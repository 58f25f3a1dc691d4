"""Problem instances for selling information to a budget-constrained buyer.

An instance fixes a finite state space (omega), buyer type space (theta),
action space, a grid of budget levels, a joint prior over (state, type,
budget) and a utility table u(state, type, action) in money units. The
seller additionally has a payout budget: the most money the mechanism may
ever hand to the buyer on net.

Labels are opaque strings; all numeric work happens on dense arrays indexed
in label order, so downstream LP column order is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, PreconditionError

# Input probabilities may be off by at most this much (sums, negativity).
PROB_TOL = 1e-9


@dataclass(frozen=True)
class Instance:
    """A market for information: spaces, prior, utilities, seller budget.

    prior has shape (n_omega, n_theta, n_budgets) and sums to one; utility
    has shape (n_omega, n_theta, n_actions). budgets is strictly increasing,
    with levels further apart than budget_id's tolerance. Construction runs
    validate, so an inconsistent instance raises InputError.
    """

    omega: tuple[str, ...]
    theta: tuple[str, ...]
    actions: tuple[str, ...]
    budgets: tuple[float, ...]
    seller_budget: float
    prior: np.ndarray
    utility: np.ndarray
    _omega_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _theta_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _action_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "prior", np.asarray(self.prior, dtype=float))
        object.__setattr__(self, "utility", np.asarray(self.utility, dtype=float))
        object.__setattr__(self, "_omega_index", {w: i for i, w in enumerate(self.omega)})
        object.__setattr__(self, "_theta_index", {t: i for i, t in enumerate(self.theta)})
        object.__setattr__(self, "_action_index", {a: i for i, a in enumerate(self.actions)})
        validate(self)

    # -- index helpers -------------------------------------------------

    def omega_id(self, label: str) -> int:
        return _label_id(self._omega_index, label, "state")

    def theta_id(self, label: str) -> int:
        return _label_id(self._theta_index, label, "type")

    def action_id(self, label: str) -> int:
        return _label_id(self._action_index, label, "action")

    def budget_id(self, b: float) -> int:
        return _budget_id(self.budgets, b)

    # -- marginals ------------------------------------------------------

    def omega_marginal(self) -> np.ndarray:
        return self.prior.sum(axis=(1, 2))

    def type_marginal(self) -> np.ndarray:
        """mu(theta, b) as an (n_theta, n_budgets) array."""
        return self.prior.sum(axis=0)

    def theta_marginal(self) -> np.ndarray:
        return self.prior.sum(axis=(0, 2))


def _label_id(index: dict[str, int], label: str, what: str) -> int:
    try:
        return index[label]
    except KeyError:
        raise InputError(f"unknown {what} label {label!r}") from None


def _budget_id(budgets: tuple[float, ...], b: float) -> int:
    for i, lv in enumerate(budgets):
        if abs(lv - b) <= PROB_TOL * max(1.0, abs(lv)):
            return i
    raise InputError(f"budget {b!r} is not one of the instance's levels {budgets}")


def positive_types(instance: Instance) -> list[tuple[int, int]]:
    """Index pairs (ti, bi) with mu(theta, b) > PROB_TOL, in label order.

    Zero-marginal pairs are excluded from every downstream constraint set
    and from verification; this is the single place that rule lives.
    """
    marg = instance.type_marginal()
    return [(ti, bi)
            for ti in range(len(instance.theta))
            for bi in range(len(instance.budgets))
            if marg[ti, bi] > PROB_TOL]


@dataclass(frozen=True, eq=False)
class PriorView:
    """The prior a seller solves and checks under, per positive (type,
    budget) pair: the true prior of an Instance, or an empirical estimate.

    index:   the positive (ti, bi) pairs in label order, m of them.
    weights: (m,) each pair's revenue weight.
    joint:   (m, n_omega) each pair's weight on every state.
    beliefs: (m, n_omega) each pair's belief over states.
    """

    instance: Instance
    index: tuple[tuple[int, int], ...]
    weights: np.ndarray
    joint: np.ndarray
    beliefs: np.ndarray


def prior_view(prior: Instance | PriorView) -> PriorView:
    """A PriorView unchanged, or an Instance's true prior as one."""
    if isinstance(prior, PriorView):
        return prior
    if not isinstance(prior, Instance):
        raise InputError("prior must be an Instance or a PriorView")
    index = tuple(positive_types(prior))
    ti, bi = np.array(index, dtype=int).reshape(-1, 2).T
    # contiguous rows sum in the order conditional_belief's slices do
    joint = np.ascontiguousarray(prior.prior[:, ti, bi].T)              # (P, n_omega)
    return PriorView(prior, index, prior.type_marginal()[ti, bi], joint,
                     joint / joint.sum(axis=1, keepdims=True))


def validate(instance: Instance) -> None:
    """Raise InputError unless the instance is internally consistent."""
    nw, nt, na = len(instance.omega), len(instance.theta), len(instance.actions)
    nb = len(instance.budgets)
    if min(nw, nt, na, nb) == 0:
        raise InputError("all label sets and the budget grid must be nonempty")
    for name, labels in (("omega", instance.omega), ("theta", instance.theta),
                         ("actions", instance.actions)):
        if len(set(labels)) != len(labels):
            raise InputError(f"duplicate {name} labels")
    if instance.prior.shape != (nw, nt, nb):
        raise InputError(f"prior shape {instance.prior.shape} != {(nw, nt, nb)}")
    if instance.utility.shape != (nw, nt, na):
        raise InputError(f"utility shape {instance.utility.shape} != {(nw, nt, na)}")
    if not np.all(np.isfinite(instance.prior)) or np.any(instance.prior < -PROB_TOL):
        raise InputError("prior entries must be finite and nonnegative")
    if abs(instance.prior.sum() - 1.0) > PROB_TOL:
        raise InputError(f"prior sums to {instance.prior.sum():.12g}, not 1")
    if not np.all(np.isfinite(instance.utility)):
        raise InputError("utility entries must be finite")
    if not all(np.isfinite(b) and b >= 0 for b in instance.budgets):
        raise InputError("budget levels must be finite and nonnegative")
    # budget_id matches a level within PROB_TOL * max(1, |level|), so closer
    # levels could not be told apart
    if any(b2 - b1 <= PROB_TOL * max(1.0, abs(b2))
           for b1, b2 in zip(instance.budgets, instance.budgets[1:])):
        raise InputError(f"budget levels must be increasing, each more than "
                         f"{PROB_TOL:g} * max(1, |level|) above the one before")
    if not (np.isfinite(instance.seller_budget) and instance.seller_budget >= 0):
        raise InputError("seller budget must be finite and nonnegative")
    marg_w = instance.omega_marginal()
    if np.any(marg_w <= PROB_TOL):
        raise InputError("every state needs positive prior probability")
    if not positive_types(instance):
        raise InputError("at least one (theta, budget) pair needs positive probability")


# -- construction / serialization ---------------------------------------


def load_instance(source) -> Instance:
    """Build and validate an Instance from a dict, JSON text, or file path.

    Prior entries not listed default to zero; every (omega, theta, action)
    utility triple must be listed exactly once.
    """
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        try:
            payload = json.loads(Path(source).read_text())
        except OSError as exc:
            raise InputError(f"cannot read instance file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"instance file is not valid JSON: {exc}") from exc
    elif isinstance(source, str):
        try:
            payload = json.loads(source)
        except json.JSONDecodeError as exc:
            raise InputError(f"instance text is not valid JSON: {exc}") from exc
    else:
        payload = source
    if not isinstance(payload, dict):
        raise InputError("instance payload must be a JSON object")
    for name in ("omega", "theta", "actions", "budgets", "prior", "utility"):
        rows, value = name in ("prior", "utility"), payload.get(name, [])
        if not isinstance(value, list) or rows and not all(isinstance(v, dict) for v in value):
            raise InputError(f"instance field {name!r} must be a list"
                             + (" of objects" if rows else ""))

    try:
        omega = tuple(str(w) for w in payload["omega"])
        theta = tuple(str(t) for t in payload["theta"])
        actions = tuple(str(a) for a in payload["actions"])
        budgets = tuple(float(b) for b in payload["budgets"])
        seller_budget = float(payload["seller_budget"])
        prior_rows = payload["prior"]
        utility_rows = payload["utility"]
    except KeyError as exc:
        raise InputError(f"instance is missing required field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed instance field: {exc}") from exc

    omega_ids, theta_ids, action_ids = ({label: i for i, label in enumerate(labels)}
                                        for labels in (omega, theta, actions))
    prior = np.zeros((len(omega), len(theta), len(budgets)))
    for row in prior_rows:
        try:
            wi = _label_id(omega_ids, str(row["omega"]), "state")
            ti = _label_id(theta_ids, str(row["theta"]), "type")
            bi = _budget_id(budgets, float(row["b"]))
            prior[wi, ti, bi] += float(row["p"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed prior row {row!r}: {exc}") from exc

    utility = np.full((len(omega), len(theta), len(actions)), np.nan)
    for row in utility_rows:
        try:
            wi = _label_id(omega_ids, str(row["omega"]), "state")
            ti = _label_id(theta_ids, str(row["theta"]), "type")
            ai = _label_id(action_ids, str(row["a"]), "action")
            utility[wi, ti, ai] = float(row["u"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed utility row {row!r}: {exc}") from exc
    if np.any(np.isnan(utility)):
        missing = int(np.isnan(utility).sum())
        raise InputError(f"utility table incomplete: {missing} (omega, theta, action) "
                         "triples unlisted")

    return Instance(omega, theta, actions, budgets, seller_budget, prior, utility)


def instance_to_json_dict(instance: Instance) -> dict:
    """Inverse of load_instance: a plain-JSON representation (zeros omitted)."""
    prior_rows = []
    for wi, w in enumerate(instance.omega):
        for ti, t in enumerate(instance.theta):
            for bi, b in enumerate(instance.budgets):
                p = instance.prior[wi, ti, bi]
                if p != 0.0:
                    prior_rows.append({"omega": w, "theta": t, "b": b, "p": p})
    utility_rows = [{"omega": w, "theta": t, "a": a,
                     "u": instance.utility[wi, ti, ai]}
                    for wi, w in enumerate(instance.omega)
                    for ti, t in enumerate(instance.theta)
                    for ai, a in enumerate(instance.actions)]
    return {
        "omega": list(instance.omega),
        "theta": list(instance.theta),
        "actions": list(instance.actions),
        "budgets": list(instance.budgets),
        "seller_budget": instance.seller_budget,
        "prior": prior_rows,
        "utility": utility_rows,
    }


# -- beliefs and value-of-information quantities -------------------------


def bayes_update(belief: np.ndarray, likelihood: np.ndarray) -> np.ndarray:
    """Posterior over states given per-state signal likelihoods.

    posterior(w) = belief(w) * likelihood(w) / sum_w' belief(w') * likelihood(w').
    Raises InputError when the signal has zero probability under the belief.
    """
    belief = np.asarray(belief, dtype=float)
    likelihood = np.asarray(likelihood, dtype=float)
    unnorm = belief * likelihood
    total = unnorm.sum()
    if total <= PROB_TOL:
        raise InputError("cannot condition on a zero-probability signal")
    return unnorm / total


def conditional_belief(instance: Instance, ti: int, bi: int) -> np.ndarray:
    """mu(omega | theta, b) for index pair (ti, bi); errors on zero marginal."""
    joint = instance.prior[:, ti, bi]
    total = joint.sum()
    if total <= PROB_TOL:
        raise PreconditionError(
            f"(theta={instance.theta[ti]}, b={instance.budgets[bi]:g}) has zero "
            "prior probability; no conditional belief exists")
    return joint / total


def information_values(belief: np.ndarray, util: np.ndarray):
    """(informed, outside): the expected utility of a buyer who learns the
    state, E[max_a u], and of one acting on the belief alone, max_a E[u].
    belief is (..., n_omega) and util (..., n_omega, n_actions); every sum
    is one BLAS dot, whatever the batch shape."""
    return (np.vecdot(belief, util.max(axis=-1)),
            np.vecdot(belief[..., None, :], np.swapaxes(util, -1, -2)).max(axis=-1))


def outside_option(instance: Instance, theta: str, b: float) -> float:
    """Best expected utility from acting on the prior belief alone:
    max_a E[u(omega, theta, a) | theta, b]."""
    ti, bi = instance.theta_id(theta), instance.budget_id(b)
    belief = conditional_belief(instance, ti, bi)
    return float(information_values(belief, instance.utility[:, ti, :])[1])


def surplus(instance: Instance, theta: str, b: float | None = None) -> float:
    """Value of full information to a type: E[max_a u] - max_a E[u] >= 0.

    With b given, expectations condition on (theta, b); otherwise on theta
    alone (both coincide when states are independent of the buyer's type).
    """
    ti = instance.theta_id(theta)
    if b is None:
        joint = instance.prior[:, ti, :].sum(axis=1)
        total = joint.sum()
        if total <= PROB_TOL:
            raise PreconditionError(f"type {theta!r} has zero prior probability")
        belief = joint / total
    else:
        belief = conditional_belief(instance, ti, instance.budget_id(b))
    informed, outside = information_values(belief, instance.utility[:, ti, :])
    return float(informed - outside)


def is_independent(instance: Instance) -> bool:
    """True when the joint prior factors as mu(omega) * mu(theta, b)."""
    product = np.einsum("w,tb->wtb", instance.omega_marginal(), instance.type_marginal())
    return bool(np.max(np.abs(instance.prior - product)) <= PROB_TOL)


# -- the canonical worked example ----------------------------------------


def treasure_box() -> Instance:
    """Two boxes, one prize: the didactic instance used throughout the tests.

    States/actions 0 and 1; the prize is worth 120 to type 0 and 80 to
    type 1; type 0 carries budget 50, type 1 budget 100; all four
    (state, type) combinations equally likely; seller pays out nothing.
    """
    omega = ("0", "1")
    theta = ("0", "1")
    actions = ("0", "1")
    budgets = (50.0, 100.0)
    prior = np.zeros((2, 2, 2))
    prior[0, 0, 0] = prior[1, 0, 0] = 0.25   # type 0 carries budget 50
    prior[0, 1, 1] = prior[1, 1, 1] = 0.25   # type 1 carries budget 100
    utility = np.zeros((2, 2, 2))
    for wi in range(2):
        for ti, prize in enumerate((120.0, 80.0)):
            utility[wi, ti, wi] = prize
    return Instance(omega, theta, actions, budgets, 0.0, prior, utility)
