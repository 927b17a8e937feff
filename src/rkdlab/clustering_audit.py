"""Clustering-error quantities and the audits of the clustering-error bounds.

The central object is the majority labeling: each predicted cluster is
relabeled by its most probable ground-truth class, and the clustering error
is the probability mass of vertices whose majority label disagrees with the
truth.  The audits check the population bound (inter-class mass over the
spectral gap) and the empirical bound with its linear-programming dual.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InvalidConfigError, NumericError
from .graph_core import PopulationGraph, inter_class_fraction, spectral_decompose
from .spectral_rkd import Prediction, family_scores, is_integer

VERDICT_SLACK = 1e-9
LP_AGREEMENT_TOL = 1e-9
RANK_TOL = 1e-10


@dataclass(frozen=True)
class AuditTolerances:
    """The tolerances section of a config, read by `rkdlab audit`: the number
    of random rotations of the population minimizer that theorem 1 audits."""

    audit_rotations: int = 20

    def __post_init__(self):
        if not (is_integer(self.audit_rotations) and self.audit_rotations >= 1):
            raise InvalidConfigError(
                f"tolerances.audit_rotations={self.audit_rotations!r} must be an integer >= 1"
            )


@dataclass(frozen=True)
class MajorityLabeling:
    """Majority relabeling of predicted clusters, with the minority set it induces."""

    label: np.ndarray
    minority_mask: np.ndarray
    minority_mass: float
    predicted: np.ndarray
    ties: tuple


@dataclass(frozen=True)
class SkeletonReport:
    """Per-class representative vertices with their boundedness and margins."""

    skeleton: tuple
    beta: float
    gammas: tuple
    gamma: float
    rank_ok: bool
    applicable: bool
    reason: str


@dataclass(frozen=True)
class AuditReport:
    mu: float
    alpha: float
    lambdas: tuple
    beta: float
    gamma: float
    bound_thm1: float | None
    bound_thm4: float | None
    lp_primal: float | None
    lp_dual: float | None
    verdicts: dict
    skipped: tuple


def majority_label(f: Prediction, g: PopulationGraph) -> MajorityLabeling:
    """Relabel each predicted cluster by its heaviest ground-truth class.

    Conditional class weights are degree-proportional; ties go to the smallest
    class index and are recorded.
    """
    return majority_labels(f.scores[None], g)[0]


def majority_labels(scores: np.ndarray, g: PopulationGraph) -> list:
    """majority_label of each member of an (R, |X|, K) score stack, at once.

    Class masses come from one bincount over (member, cluster, class) codes
    weighted by degree, which sums each cluster's vertices of a class in
    ascending order from zero, as a per-cluster scatter does.
    """
    R, n, K = scores.shape
    if n != g.size:
        raise DomainError(f"prediction rows {n} != |X| = {g.size}")
    predicted = np.argmax(scores, axis=2)
    C = g.num_classes
    deg = g.degrees()
    cluster = np.arange(R)[:, None] * K + predicted
    weights = np.broadcast_to(deg, predicted.shape).ravel()
    masses = np.bincount((cluster * C + g.labels).ravel(), weights=weights, minlength=R * K * C)
    masses = masses.reshape(R, K, C)
    present = np.bincount(cluster.ravel(), minlength=R * K).reshape(R, K) > 0
    tied = present & ((masses >= masses.max(axis=2, keepdims=True)).sum(axis=2) > 1)
    label = np.take_along_axis(masses.argmax(axis=2), predicted, axis=1)
    minority = label != g.labels
    return [
        MajorityLabeling(
            label=label[r],
            minority_mask=minority[r],
            minority_mass=float(deg[minority[r]].sum()),
            predicted=predicted[r],
            ties=tuple(np.nonzero(tied[r])[0].tolist()),
        )
        for r in range(R)
    ]


def halves_condition(maj: MajorityLabeling, g: PopulationGraph) -> bool:
    """P(M(f) intersect X_k) <= P(X_k)/2 for every class k."""
    deg = g.degrees()
    for k in range(g.num_classes):
        cls = g.labels == k
        if deg[cls & maj.minority_mask].sum() > deg[cls].sum() / 2 + 1e-15:
            return False
    return True


def skeletons_and_margins(scores: np.ndarray, g: PopulationGraph, majs) -> list:
    """Skeletons and margins of each member f of an (R, |X|, K) score stack,
    given its majority labelings: the skeleton s_k = argmax of f(.)_k over
    non-minority vertices, with the spectral bound beta and per-class margins
    against minority competitors.  Skeletons come from a masked argmax, the
    skeleton matrices' singular values from one stacked svd, margins from a
    masked max.

    Not-applicable (never an exception) when the minority halves condition
    fails, a skeleton entry predicts the wrong class, the skeleton matrix is
    rank-deficient, or the margin is non-positive.
    """
    R, _, K = scores.shape
    minority = np.stack([maj.minority_mask for maj in majs])
    predicted = np.stack([maj.predicted for maj in majs])
    skeleton = np.where(minority[:, :, None], -np.inf, scores).argmax(axis=1)
    wrong = np.take_along_axis(predicted, skeleton, axis=1) != np.arange(K)
    svals = np.linalg.svd(scores[np.arange(R)[:, None], skeleton], compute_uv=False)
    competitors = minority[:, :, None] & (predicted[:, :, None] != np.arange(K))
    top = np.take_along_axis(scores, skeleton[:, None, :], axis=1)[:, 0, :]
    margins = top - np.where(competitors, scores, -np.inf).max(axis=1)  # inf without competitors
    reports = []
    for r, maj in enumerate(majs):
        if not halves_condition(maj, g):
            reason = "minority mass exceeds half of some class"
        elif minority[r].all():
            reason = "no non-minority vertices"
        elif wrong[r].any():
            reason = f"skeleton vertex predicts the wrong class for k={np.nonzero(wrong[r])[0].tolist()}"
        else:
            skel, gammas = tuple(skeleton[r].tolist()), tuple(margins[r].tolist())
            beta, gamma = float(svals[r, 0]), min(gammas)
            if not svals[r, -1] > RANK_TOL:
                reports.append(SkeletonReport(skel, beta, gammas, gamma, False, False,
                                              "skeleton matrix rank-deficient"))
            elif not gamma > 0:
                reports.append(SkeletonReport(skel, beta, gammas, gamma, True, False,
                                              f"non-positive margin {gamma}"))
            else:
                reports.append(SkeletonReport(skel, beta, gammas, gamma, True, True, ""))
            continue
        reports.append(SkeletonReport((), math.nan, (), math.nan, False, False, reason))
    return reports


def margin_prefactor(beta: float, gamma: float) -> float:
    """max(beta^2 / gamma^2, 1); the infinite-margin case collapses to 1."""
    if math.isinf(gamma):
        return 1.0
    return max(beta**2 / gamma**2, 1.0)


def theorem1_check(f_family, g: PopulationGraph) -> AuditReport:
    """Audit mu(family) <= 2 max(beta^2/gamma^2, 1) alpha / lambda_{K+1}.

    The family is read by `family_scores`.  Members that violate the
    skeleton/margin preconditions are skipped with a marker and excluded from
    mu, beta, gamma.
    """
    scores = family_scores(f_family, g)
    dec = spectral_decompose(g)
    alpha = inter_class_fraction(g)
    K = scores.shape[2]
    majs = majority_labels(scores, g)
    mu = 0.0
    beta = 0.0
    gamma = math.inf
    skipped = []
    audited = 0
    for idx, (maj, skel) in enumerate(zip(majs, skeletons_and_margins(scores, g, majs))):
        if not skel.applicable:
            skipped.append((idx, skel.reason))
            continue
        audited += 1
        mu = max(mu, maj.minority_mass)
        beta = max(beta, skel.beta)
        gamma = min(gamma, skel.gamma)
    verdicts = {}
    bound = None
    if K >= g.size:
        verdicts["thm1"] = "bound-undefined: K+1 exceeds |X|"
    else:
        lam_next = float(dec.eigenvalues[K])
        if lam_next <= 1e-12:
            verdicts["thm1"] = "bound-undefined: lambda_{K+1} ~ 0"
        elif audited == 0:
            verdicts["thm1"] = "not-applicable: every member skipped"
        else:
            bound = 2.0 * margin_prefactor(beta, gamma) * alpha / lam_next
            verdicts["thm1"] = "pass" if mu <= bound + VERDICT_SLACK else "fail"
    return AuditReport(
        mu=mu, alpha=alpha, lambdas=tuple(float(x) for x in dec.eigenvalues),
        beta=beta, gamma=gamma, bound_thm1=bound, bound_thm4=None,
        lp_primal=None, lp_dual=None, verdicts=verdicts, skipped=tuple(skipped),
    )


def theorem4_check(f_emp: Prediction, g: PopulationGraph, Delta: float) -> AuditReport:
    """Audit the empirical-minimizer clustering bound at a measured loss gap Delta, with the LP's K0 the
    prediction's class count K."""
    dec = spectral_decompose(g)
    lam = dec.eigenvalues
    alpha = inter_class_fraction(g)
    K = f_emp.num_classes
    scores = f_emp.scores[None]
    majs = majority_labels(scores, g)
    (maj,), (skel,) = majs, skeletons_and_margins(scores, g, majs)
    verdicts = {}
    bound = None
    lp_primal = lp_dual = None
    base = dict(
        mu=maj.minority_mass, alpha=alpha, lambdas=tuple(float(x) for x in lam),
        beta=skel.beta, gamma=skel.gamma, bound_thm1=None,
    )
    if K >= g.size:
        verdicts["thm4"] = "bound-undefined: K+1 exceeds |X|"
    elif Delta < 0:
        verdicts["thm4"] = "bound-undefined: negative Delta"
    elif not Delta < (1.0 - lam[K - 1]) ** 2:
        verdicts["thm4"] = f"bound-undefined: Delta={Delta!r} >= (1 - lambda_K)^2"
    elif lam[K] <= 1e-12:
        verdicts["thm4"] = "bound-undefined: lambda_{K+1} ~ 0"
    elif not skel.applicable:
        verdicts["thm4"] = f"not-applicable: {skel.reason}"
    else:
        try:
            lp_primal, lp_dual = lp_bound_oracle(lam, K, K, Delta)
        except DomainError as exc:  # the closed-form dual's denominator
            verdicts["thm4"] = f"bound-undefined: {exc}"
        else:
            bound = 2.0 * margin_prefactor(skel.beta, skel.gamma) * (alpha / lam[K] + lp_dual)
            verdicts["thm4"] = "pass" if maj.minority_mass <= bound + VERDICT_SLACK else "fail"
    return AuditReport(
        bound_thm4=bound, lp_primal=lp_primal, lp_dual=lp_dual,
        verdicts=verdicts, skipped=(), **base,
    )


# ---------------------------------------------------------------------------
# the subspace-leakage linear program of the empirical bound


def _lp_data(lambdas, K: int, Delta: float):
    """Float costs (1 - lambda_i)^2, the exact budget and n.

    Floats are dyadic rationals, so Fraction(c) is each cost exactly and the
    budget, the tail costs plus Delta, is summed without rounding.
    """
    lam = np.asarray(lambdas, dtype=float)
    n = len(lam)
    if not 1 <= K < n:
        raise DomainError(f"need 1 <= K < {n}")
    if np.any(np.diff(lam) < -1e-12):
        raise DomainError("eigenvalues must be ascending")
    costs = (1.0 - lam) ** 2
    if not 0 <= Delta < costs[K - 1]:
        raise DomainError(f"Delta={Delta!r} must be in [0, (1 - lambda_K)^2 = {costs[K-1]!r})")
    return costs, _exact_sum([*costs[K:].tolist(), Delta]), n


def _exact_sum(values) -> Fraction:
    """The sum of floats without rounding: each is an integer over a power of two."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return Fraction(sum(p * (den // d) for p, d in ratios), den)


def _dearest(costs: np.ndarray, count: int) -> list:
    """The `count` largest costs as Fractions, dearest first (sorted as
    floats, whose order is exact)."""
    return [Fraction(c) for c in np.sort(costs)[::-1][:count].tolist()]


def lp_primal_greedy(lambdas, K: int, Delta: float) -> Fraction:
    """Exact optimum of max sum_{i<K} xi_i via the cost profile of the head mass.

    For head mass t, the cheapest way to meet the sum row fills the cheapest
    head coordinates with t and the cheapest tail coordinates with n - K - t.
    That least cost g(t) is convex and linear between integers, and
    g(0) = budget - Delta, so the optimum is the largest t with g(t) <= budget.
    """
    costs, budget, n = _lp_data(lambdas, K, Delta)
    t_max = min(K, n - K)
    head = _dearest(costs[:K], K)[::-1]
    tail = _dearest(costs[K:], t_max)  # the order the tail gives up mass
    spent = budget - Fraction(Delta)  # g(0), the whole tail at 1
    for t in range(t_max):
        slope = head[t] - tail[t]  # g(t + 1) - g(t)
        if spent + slope > budget:
            return t + (budget - spent) / slope
        spent += slope
    return Fraction(t_max)


def lp_lagrangian_dual(lambdas, K: int, Delta: float) -> Fraction:
    """Exact minimum of the Lagrangian dual of the budget row (second solver).

    With multiplier mu >= 0 on the budget row, the inner maximum over the sum
    row and the box keeps the n - K largest weights [i < K] - mu c_i:
        L(mu) = mu B + K - mu sum(c) - (sum of the K smallest of
                1 - mu c_head and -mu c_tail),
    which is convex and piecewise linear, and by LP duality its minimum is
    the primal optimum.  The K smallest terms come from the K dearest head and
    the K dearest tail costs, and their order changes only where
    1 - mu c_h = -mu c_t, so the minimum is at mu = 0 or at one of those
    breakpoints mu = 1 / (c_h - c_t).
    """
    costs, budget, _ = _lp_data(lambdas, K, Delta)
    head = _dearest(costs[:K], K)
    tail = _dearest(costs[K:], K)
    slack = budget - _exact_sum(costs.tolist())

    def value(mu: Fraction) -> Fraction:
        # both term lists ascend, so their merge yields the K smallest first
        terms = heapq.merge([1 - mu * c for c in head], [-mu * c for c in tail])
        return mu * slack + K - sum(itertools.islice(terms, K))

    breakpoints = {h - t for h in head for t in tail if h > t}
    return min(value(mu) for mu in [Fraction(0), *(1 / d for d in breakpoints)])


def lp_dual_value(lambdas, K: int, K0: int, Delta: float) -> float:
    """Closed-form feasible dual value (1 + (K - K0) C_{K0}) Delta / gap, with
    gap = (1 - l_{K0})^2 - (1 - l_{K+1})^2, computed in the product form
    (Delta + (K - K0) ((1 - l_{K0})^2 - (1 - l_K)^2)) / gap that stays finite
    as Delta -> 0.  A gap that is not positive as a float is a DomainError."""
    lam = np.asarray(lambdas, dtype=float)
    if not 1 <= K0 <= K:
        raise DomainError(f"need 1 <= K0 <= K, got K0={K0}")
    head, tail = float((1.0 - lam[K0 - 1]) ** 2), float((1.0 - lam[K]) ** 2)
    if not head - tail > 0:
        raise DomainError(f"(1 - lambda_K0)^2={head!r} - (1 - lambda_K+1)^2={tail!r} is not positive")
    return (Delta + (K - K0) * (head - (1.0 - lam[K - 1]) ** 2)) / (head - tail)


def lp_bound_oracle(lambdas, K: int, K0: int, Delta: float):
    """The LP optimum from two exact solvers, rounded once, and the closed-form dual.

    Raises if the greedy primal and the Lagrangian dual differ at all, or if
    weak duality against the float closed form fails by more than
    LP_AGREEMENT_TOL.
    """
    greedy = lp_primal_greedy(lambdas, K, Delta)
    lagrangian = lp_lagrangian_dual(lambdas, K, Delta)
    if greedy != lagrangian:
        raise NumericError(f"LP solvers disagree: greedy={greedy}, lagrangian={lagrangian}")
    primal = float(greedy)
    dual = lp_dual_value(lambdas, K, K0, Delta)
    if primal > dual + LP_AGREEMENT_TOL:
        raise NumericError(f"weak duality violated: primal={primal!r} > dual={dual!r}")
    return primal, dual

