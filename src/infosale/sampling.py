"""Black-box-prior pipeline: sample, estimate, solve with slack, run live.

When the prior over (state, type, budget) is only reachable through an
i.i.d. sampling oracle, the seller can still sell information: draw n−1
samples next to the one live interaction, estimate the prior as an
EmpiricalPrior (a model.PriorView), and solve the probabilistic-return LP over
it with an additive slack eps on the truthfulness / participation /
recommendation-following rows. run_mechanism1 is the end-to-end event:
estimate, solve, then recommend an action and settle the two-point transfer
{deposit, −M} for the live buyer.

The conditional estimate for pair (theta, b) is built from the matching
*later* samples plus the live interaction's realized state — never the live
buyer's report — so the live buyer cannot poison their own menu entry; the
live state is folded into every pair's conditional, which keeps all
conditionals well defined.

Oracles hand out samples as index arrays (w, t, b) against an instance;
labels exist only at the file boundary: the JSON lines a ReplayOracle reads,
an oracle's `draw`, and the live buyer's triple. A ReplayOracle parses each
distinct line once, and any oracle over other labels than the instance's
looks up each distinct triple once, in stream order, so the first bad sample
raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from .mechanisms import Menu, solve_prob_return
from .model import Instance, PriorView

Triple = tuple[str, str, float]  # (type label, state label, budget value)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class InstanceOracle:
    """Samples (theta, omega, b) triples from a known instance's prior."""

    def __init__(self, instance: Instance, rng: np.random.Generator):
        self.instance = instance
        self.rng = rng
        flat = instance.prior.reshape(-1).astype(float)
        self._cum = np.cumsum(flat)
        self._shape = instance.prior.shape

    def indices(self, k: int, instance: Instance) -> tuple[np.ndarray, ...]:
        """k draws as index arrays (w, t, b) against instance."""
        cells = self._sample(k)
        if instance is self.instance:
            return np.unravel_index(cells, self._shape)
        return _lookup(cells, self._labels, instance)

    def draw(self, k: int) -> list[Triple]:
        return self._labels(self._sample(k))

    def _sample(self, k: int) -> np.ndarray:
        """k draws as flat indices into the prior."""
        u = self.rng.random(k) * self._cum[-1]
        return np.searchsorted(self._cum, u, side="right")

    def _labels(self, cells: np.ndarray) -> list[Triple]:
        inst = self.instance
        w, t, b = np.unravel_index(cells, self._shape)
        return [(inst.theta[ti], inst.omega[wi], float(inst.budgets[bi]))
                for wi, ti, bi in zip(w.tolist(), t.tolist(), b.tolist())]


class ReplayOracle:
    """Replays a recorded stream of JSON lines {"theta":…, "omega":…, "b":…}.

    Each distinct line is parsed once; the stream is kept as one code per
    line into the distinct lines' triples.
    """

    def __init__(self, lines):
        if isinstance(lines, str):
            lines = lines.splitlines()
        seen: dict[str, int] = {}
        self._triples: list[Triple] = []
        codes = []
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            code = seen.get(line)
            if code is None:
                code = seen[line] = len(self._triples)
                self._triples.append(_parse_line(number, line))
            codes.append(code)
        self._codes = np.array(codes, dtype=np.intp)
        self._pos = 0

    @classmethod
    def from_path(cls, path) -> "ReplayOracle":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(fh.readlines())

    def indices(self, k: int, instance: Instance) -> tuple[np.ndarray, ...]:
        """The next k lines as index arrays (w, t, b) against instance."""
        return _lookup(self._take(k), self._labels, instance)

    def draw(self, k: int) -> list[Triple]:
        return self._labels(self._take(k))

    def _labels(self, codes: np.ndarray) -> list[Triple]:
        return [self._triples[c] for c in codes.tolist()]

    def _take(self, k: int) -> np.ndarray:
        if self._pos + k > len(self._codes):
            raise InputError(
                f"sample stream exhausted: need {k} more, have "
                f"{len(self._codes) - self._pos}")
        self._pos += k
        return self._codes[self._pos - k:self._pos]


def _parse_line(number: int, line: str) -> Triple:
    """One stream line as a triple: labels must be strings, b a finite number."""
    def bad(problem) -> InputError:
        shown = line if len(line) <= 80 else line[:77] + "..."
        return InputError(f"bad sample line {number} {shown!r}: {problem}")
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise bad(exc) from None
    except RecursionError:
        raise bad("nests too deeply to read") from None
    if not isinstance(row, dict):
        raise bad("not a JSON object")
    for key in ("theta", "omega", "b"):
        if key not in row:
            raise bad(f"no field {key!r}")
        if key != "b" and not isinstance(row[key], str):
            raise bad(f"field {key!r} is not a string")
    b = row["b"]
    try:
        b = float(b) if isinstance(b, (int, float)) and not isinstance(b, bool) else math.nan
    except OverflowError:
        b = math.inf
    if not math.isfinite(b):
        raise bad("field 'b' is not a finite number")
    return row["theta"], row["omega"], b


def _lookup(codes: np.ndarray, labels, instance: Instance) -> tuple[np.ndarray, ...]:
    """Index arrays (w, t, b) against instance of a stream of codes, where
    labels(distinct codes) gives their triples. Each distinct code is looked
    up once, in order of first appearance and type, state, budget within a
    triple, so the first bad label in stream order raises."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    table = np.empty((3, len(distinct)), dtype=np.intp)
    for j, (theta, omega, b) in zip(order.tolist(), labels(distinct[order])):
        table[1, j] = instance.theta_id(theta)
        table[0, j] = instance.omega_id(omega)
        table[2, j] = instance.budget_id(b)
    return tuple(table[:, inverse])


# ---------------------------------------------------------------------------
# empirical estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmpiricalPrior(PriorView):
    """A PriorView estimated from n sampled triples (see draw_samples).

    The first triple is the live interaction (theta1, omega1, b1). The joint
    weights every (state, type, budget) cell by its frequency among all n
    triples, and the index lists the pairs sampled at least once. The belief
    of pair (theta, b) is the frequency of states among that pair's
    occurrences in triples 2…n, plus one occurrence of the live state omega1
    regardless of the live report.
    """
    n: int


def draw_samples(oracle, n: int, live: Triple, instance: Instance) -> EmpiricalPrior:
    """Live triple first, then n−1 oracle draws, indexed against instance.

    A rejected live triple still costs the oracle its n−1 draws, and an
    exhausted oracle is reported before it.
    """
    if n < 1:
        raise PreconditionError("sample size n must be at least 1")
    theta1, omega1, b1 = live
    try:
        t1 = instance.theta_id(theta1)
        w1 = instance.omega_id(omega1)
        first = (w1, t1, instance.budget_id(b1))
    except InputError:
        oracle.draw(n - 1)
        raise
    drawn = oracle.indices(n - 1, instance)
    w, t, b = (np.concatenate(([i], rest)) for i, rest in zip(first, drawn))
    nw, nt, nb = len(instance.omega), len(instance.theta), len(instance.budgets)
    counts = np.bincount(np.ravel_multi_index((w, t, b), (nw, nt, nb)),
                         minlength=nw * nt * nb)
    joint_full = counts.reshape(nw, nt, nb) / n
    ti, bi = np.nonzero(joint_full.sum(axis=0) > 0.0)
    joint = np.moveaxis(joint_full, 0, -1)[ti, bi]
    later = np.bincount(np.ravel_multi_index((t[1:], b[1:], w[1:]), (nt, nb, nw)),
                        minlength=nt * nb * nw).reshape(nt, nb, nw)
    tally = later[ti, bi].astype(float)
    tally[:, w1] += 1.0
    beliefs = tally / tally.sum(axis=1, keepdims=True)
    index = tuple(zip(ti.tolist(), bi.tolist()))
    return EmpiricalPrior(instance, index, joint.sum(axis=1), joint, beliefs, n)


# ---------------------------------------------------------------------------
# slack LP and the live mechanism
# ---------------------------------------------------------------------------


def solve_epsilon_lp(empirical: PriorView, shape: Instance, M: float,
                     eps: float) -> Menu:
    """Probabilistic-return LP over a prior view with eps slack.

    The objective weighs transfers by the view's joint; the constraint rows
    use each pair's belief. Pairs never sampled carry no weight and no
    constraints — they are off the menu entirely. The view's instance gives
    the utilities and labels; `shape` must be that instance. At eps = 0 over
    prior_view(shape) this is solve_cm_probr.
    """
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")
    if empirical.instance is not shape:
        raise PreconditionError("the prior view was indexed against another instance")
    if not empirical.index:
        raise PreconditionError("empirical prior has no sampled types")
    return solve_prob_return(empirical, M, eps)


def certified_slack(eps: float) -> dict:
    """What the eps-slack LP's optimum is actually guaranteed to satisfy.

    The LP pins the truthful value only between the best response and the
    obedient value plus eps, so the optimizer may credit itself eps of
    phantom utility on the diagonal and spend the recommendation rows'
    own eps on top: solutions are eps-feasible for recommendation-following
    in aggregate, but truthfulness and participation are only guaranteed at
    2·eps. Checks against the empirical prior should budget accordingly.
    """
    return {"obedience": eps, "ic": 2.0 * eps, "ir": 2.0 * eps}


def run_mechanism1(oracle, shape: Instance, M: float, n: int, eps: float,
                   buyer: tuple[str, float], omega1: str,
                   rng: np.random.Generator) -> dict:
    """One live run: estimate, solve with slack, recommend, settle.

    buyer is the live (type, budget) report and omega1 the seller's realized
    state. Returns the sampled recommendation, the realized two-point
    transfer (the deposit b1 on "+", −M on "-"), its conditional expectation
    given everything solved, and the mechanism and estimates themselves.
    """
    theta1, b1 = buyer
    live = (theta1, omega1, float(b1))
    empirical = draw_samples(oracle, n, live, shape)
    mech = solve_epsilon_lp(empirical, shape, M, eps)
    entry = mech.menu_index(theta1, float(b1))
    w1 = shape.omega_id(omega1)
    row = mech.kernel[entry][w1]
    total = row.sum()
    if total <= 0:
        raise PreconditionError("live state has an empty recommendation row")
    na = len(shape.actions)
    pick = int(np.searchsorted(np.cumsum(row), rng.random() * total, side="right"))
    pick = min(pick, 2 * na - 1)
    indicator = "+" if pick < na else "-"
    action = shape.actions[pick % na]
    transfer = float(b1) if indicator == "+" else -float(M)
    expected = sum(t * cols[w1].sum() for _, t, cols in mech.blocks(entry))
    return {"action": action, "indicator": indicator, "transfer": transfer,
            "expected_transfer": float(expected / total),
            "mechanism": mech, "empirical": empirical}


def sample_complexity_bound(n_actions: int, n_types: int, n_budgets: int,
                            eps: float, delta: float, mu_min: float) -> int:
    """Samples sufficient for the estimate-then-solve pipeline's guarantee:
    the larger of an accuracy term (drives conditional estimates within the
    slack) and a coverage term (every type pair is seen often enough)."""
    if not (0 < eps < 1 and 0 < delta < 1):
        raise InputError("eps and delta must lie in (0, 1)")
    if not 0 < mu_min <= 1:
        raise InputError("mu_min must lie in (0, 1]")
    if min(n_actions, n_types, n_budgets) < 1:
        raise InputError("set sizes must be positive")
    a2 = float(n_actions) ** 2
    accuracy = 64.0 * a2 * math.log(
        8.0 * n_types ** 2 * n_budgets ** 2 * a2 / delta) / (eps ** 2 * mu_min)
    coverage = 2.0 * math.log(4.0 * n_types * n_budgets / delta) / mu_min ** 2
    return int(math.ceil(max(accuracy, coverage)))
