"""Black-box-prior pipeline: sample, estimate, solve with slack, run live.

When the prior over (state, type, budget) is only reachable through an
i.i.d. sampling oracle, the seller can still sell information: draw n−1
samples next to the one live interaction, form empirical distributions, and
solve the probabilistic-return LP with an additive slack eps on the
truthfulness / participation / recommendation-following rows. run_mechanism1
is the end-to-end event: estimate, solve, then recommend an action and
settle the two-point transfer {deposit, −M} for the live buyer.

The conditional estimate for pair (theta, b) is built from the matching
*later* samples plus the live interaction's realized state — never the live
buyer's report — so the live buyer cannot poison their own menu entry; the
live state is folded into every pair's conditional, which keeps all
conditionals well defined.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PreconditionError
from . import mechanisms
from .mechanisms import Menu
from .model import Instance

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

    def draw(self, k: int) -> list[Triple]:
        u = self.rng.random(k) * self._cum[-1]
        idx = np.searchsorted(self._cum, u, side="right")
        w, t, b = np.unravel_index(idx, self._shape)
        inst = self.instance
        return [(inst.theta[t[i]], inst.omega[w[i]], float(inst.budgets[b[i]]))
                for i in range(k)]


class ReplayOracle:
    """Replays a recorded stream of JSON lines {"theta":…, "omega":…, "b":…}."""

    def __init__(self, lines):
        if isinstance(lines, str):
            lines = lines.splitlines()
        self._triples: list[Triple] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                self._triples.append((str(row["theta"]), str(row["omega"]),
                                      float(row["b"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise InputError(f"bad sample line {line!r}: {exc}") from None
        self._pos = 0

    @classmethod
    def from_path(cls, path) -> "ReplayOracle":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(fh.readlines())

    def draw(self, k: int) -> list[Triple]:
        if self._pos + k > len(self._triples):
            raise InputError(
                f"sample stream exhausted: need {k} more, have "
                f"{len(self._triples) - self._pos}")
        out = self._triples[self._pos:self._pos + k]
        self._pos += k
        return out


# ---------------------------------------------------------------------------
# empirical estimates
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalPrior:
    """Empirical joint and per-pair conditionals from n sampled triples.

    The first triple is the live interaction (theta1, omega1, b1). The joint
    weights every (state, type, budget) cell by its frequency among all n
    triples. The conditional for pair (theta, b) is the frequency of states
    among that pair's occurrences in triples 2…n, plus one occurrence of the
    live state omega1 regardless of the live report.
    """
    instance: Instance
    theta_idx: np.ndarray
    omega_idx: np.ndarray
    budget_idx: np.ndarray
    _pairs: list = field(init=False, repr=False)
    _joint: np.ndarray = field(init=False, repr=False)
    _cond: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        inst = self.instance
        n = len(self.theta_idx)
        if n < 1:
            raise InputError("need at least the live triple")
        nw, nt, nb = len(inst.omega), len(inst.theta), len(inst.budgets)
        counts = np.zeros((nw, nt, nb))
        np.add.at(counts, (self.omega_idx, self.theta_idx, self.budget_idx), 1.0)
        joint_full = counts / n
        pair_mass = joint_full.sum(axis=0)
        self._pairs = [(ti, bi) for ti in range(nt) for bi in range(nb)
                       if pair_mass[ti, bi] > 0.0]
        self._joint = np.stack([joint_full[:, ti, bi] for ti, bi in self._pairs])
        w1 = int(self.omega_idx[0])
        cond = []
        for ti, bi in self._pairs:
            later = (self.theta_idx[1:] == ti) & (self.budget_idx[1:] == bi)
            tally = np.bincount(self.omega_idx[1:][later], minlength=nw).astype(float)
            tally[w1] += 1.0
            cond.append(tally / tally.sum())
        self._cond = np.stack(cond)

    # --- the prior-view surface shared with module verify ---
    def pairs(self):
        return list(self._pairs)

    def weight(self, ti: int, bi: int) -> float:
        try:
            return float(self._joint[self._pairs.index((ti, bi))].sum())
        except ValueError:
            return 0.0

    def belief(self, ti: int, bi: int) -> np.ndarray:
        try:
            return self._cond[self._pairs.index((ti, bi))].copy()
        except ValueError:
            raise InputError(f"pair ({ti}, {bi}) never sampled") from None

    @property
    def n(self) -> int:
        return len(self.theta_idx)

    def samples(self) -> list[Triple]:
        inst = self.instance
        return [(inst.theta[t], inst.omega[w], float(inst.budgets[b]))
                for t, w, b in zip(self.theta_idx, self.omega_idx, self.budget_idx)]


def draw_samples(oracle, n: int, live: Triple, instance: Instance) -> EmpiricalPrior:
    """Live triple first, then n−1 oracle draws, indexed against instance."""
    if n < 1:
        raise PreconditionError("sample size n must be at least 1")
    triples = [live] + (oracle.draw(n - 1) if n > 1 else [])
    t_idx = np.empty(n, dtype=int)
    w_idx = np.empty(n, dtype=int)
    b_idx = np.empty(n, dtype=int)
    for i, (th, w, b) in enumerate(triples):
        t_idx[i] = instance.theta_id(th)
        w_idx[i] = instance.omega_id(w)
        b_idx[i] = instance.budget_id(b)
    return EmpiricalPrior(instance=instance, theta_idx=t_idx,
                          omega_idx=w_idx, budget_idx=b_idx)


# ---------------------------------------------------------------------------
# slack LP and the live mechanism
# ---------------------------------------------------------------------------


def solve_epsilon_lp(empirical: EmpiricalPrior, shape: Instance, M: float,
                     eps: float) -> Menu:
    """Probabilistic-return LP over the empirical estimates with eps slack.

    The objective weighs transfers by the empirical joint; the constraint
    rows use each pair's empirical conditional. Pairs never sampled carry no
    weight and no constraints — they are off the menu entirely. With eps = 0
    and empirical equal to the truth this is exactly solve_cm_probr.
    """
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")
    pairs = empirical.pairs()
    if not pairs:
        raise PreconditionError("empirical prior has no sampled types")
    return mechanisms._solve_prob_return(
        shape, [(ti, float(shape.budgets[bi])) for ti, bi in pairs],
        np.stack([empirical.belief(ti, bi) for ti, bi in pairs]), empirical._joint,
        M, eps)


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
