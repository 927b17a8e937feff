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
from .spectral_rkd import Prediction, family_scores, is_integer, population_loss_gap

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


@dataclass(frozen=True)
class SkeletonReport:
    """A member's spectral bound beta and least margin gamma over its skeleton
    (None where no skeleton was found), and why it is not applicable ("" when
    it is)."""

    beta: float | None
    gamma: float | None
    applicable: bool
    reason: str


def audit_record(mu, bound, skip: str | None = None, **quantities) -> dict:
    """The one record of a clustering-error audit (theorems 1, 4 and 5):
    {"verdict", "mu", "bound", the theorem's own quantities}.  The verdict is
    `skip`, the marker of a bound that was not checked, or else "pass" when
    mu <= bound + VERDICT_SLACK and "fail" otherwise.  mu, bound and each
    quantity are None where the theorem computed none."""
    verdict = skip if skip is not None else ("pass" if mu <= bound + VERDICT_SLACK else "fail")
    return {"verdict": verdict, "mu": mu, "bound": bound, **quantities}


def majority_label(f: Prediction, g: PopulationGraph) -> MajorityLabeling:
    """Relabel each predicted cluster by its heaviest ground-truth class.

    Conditional class weights are degree-proportional; ties go to the smallest
    class index.
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
    label = np.take_along_axis(masses.reshape(R, K, C).argmax(axis=2), predicted, axis=1)
    minority = label != g.labels
    return [
        MajorityLabeling(
            label=label[r],
            minority_mask=minority[r],
            minority_mass=float(deg[minority[r]].sum()),
            predicted=predicted[r],
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
            beta, gamma = float(svals[r, 0]), min(margins[r].tolist())
            if not svals[r, -1] > RANK_TOL:
                reason = "skeleton matrix rank-deficient"
            elif not gamma > 0:
                reason = f"non-positive margin {gamma}"
            else:
                reason = ""
            reports.append(SkeletonReport(beta, gamma, not reason, reason))
            continue
        reports.append(SkeletonReport(None, None, False, reason))
    return reports


def margin_prefactor(beta: float, gamma: float) -> float:
    """max(beta^2 / gamma^2, 1); the infinite-margin case collapses to 1."""
    if math.isinf(gamma):
        return 1.0
    return max(beta**2 / gamma**2, 1.0)


def _lambda_next(lam: np.ndarray, K: int):
    """lambda_{K+1} of the ascending eigenvalues lam, None when K+1 exceeds their count |X|."""
    return float(lam[K]) if K < len(lam) else None


def theorem1_check(f_family, g: PopulationGraph) -> dict:
    """Audit mu(family) <= 2 max(beta^2/gamma^2, 1) alpha / lambda_{K+1}, as an
    audit_record with alpha, beta, gamma, lambda_next and skipped.

    The family is read by `family_scores`.  Members that violate the
    skeleton/margin preconditions are skipped, listed as (index, reason), and
    excluded from mu, beta, gamma (None when every member is skipped).
    """
    scores = family_scores(f_family, g)
    lam_next = _lambda_next(spectral_decompose(g).eigenvalues, scores.shape[2])
    alpha = inter_class_fraction(g)
    majs = majority_labels(scores, g)
    skels = skeletons_and_margins(scores, g, majs)
    audited = [(maj.minority_mass, skel) for maj, skel in zip(majs, skels) if skel.applicable]
    mu = beta = gamma = bound = None
    if audited:
        mu = max(mass for mass, _ in audited)
        beta = max(skel.beta for _, skel in audited)
        gamma = min(skel.gamma for _, skel in audited)
    if lam_next is None:
        skip = "bound-undefined: K+1 exceeds |X|"
    elif lam_next <= 1e-12:
        skip = "bound-undefined: lambda_{K+1} ~ 0"
    elif not audited:
        skip = "not-applicable: every member skipped"
    else:
        skip, bound = None, 2.0 * margin_prefactor(beta, gamma) * alpha / lam_next
    return audit_record(mu, bound, skip, alpha=alpha, beta=beta, gamma=gamma, lambda_next=lam_next,
                        skipped=[(idx, skel.reason) for idx, skel in enumerate(skels) if not skel.applicable])


def theorem4_check(f_emp: Prediction, g: PopulationGraph, Delta: float) -> dict:
    """Audit the empirical-minimizer clustering bound at a measured loss gap Delta, with the LP's K0 the
    prediction's class count K, as an audit_record with Delta, alpha, beta, gamma, lambda_next, lp_primal and
    lp_dual."""
    lam = spectral_decompose(g).eigenvalues
    K = f_emp.num_classes
    lam_next = _lambda_next(lam, K)
    alpha = inter_class_fraction(g)
    scores = f_emp.scores[None]
    majs = majority_labels(scores, g)
    (maj,), (skel,) = majs, skeletons_and_margins(scores, g, majs)
    bound = lp_primal = lp_dual = skip = None
    if lam_next is None:
        skip = "bound-undefined: K+1 exceeds |X|"
    elif Delta < 0:
        skip = "bound-undefined: negative Delta"
    elif not Delta < (1.0 - lam[K - 1]) ** 2:
        skip = f"bound-undefined: Delta={Delta!r} >= (1 - lambda_K)^2"
    elif lam_next <= 1e-12:
        skip = "bound-undefined: lambda_{K+1} ~ 0"
    elif not skel.applicable:
        skip = f"not-applicable: {skel.reason}"
    else:
        try:
            lp_primal, lp_dual = lp_bound_oracle(lam, K, K, Delta)
        except DomainError as exc:  # the closed-form dual's denominator
            skip = f"bound-undefined: {exc}"
        else:
            bound = 2.0 * margin_prefactor(skel.beta, skel.gamma) * (alpha / lam_next + lp_dual)
    return audit_record(maj.minority_mass, bound, skip, Delta=Delta, alpha=alpha, beta=skel.beta,
                        gamma=skel.gamma, lambda_next=lam_next, lp_primal=lp_primal, lp_dual=lp_dual)


def clustering_audits(family, g: PopulationGraph) -> dict:
    """{"thm1": theorem 1 on the family, "thm4": theorem 4 on its member 0 at
    that member's population loss gap, clamped at 0}: the global-view audits
    that `rkdlab audit` and `rkdlab ssl` write."""
    scores = family_scores(family, g)
    f0 = Prediction(scores=scores[0])
    return {"thm1": theorem1_check(scores, g),
            "thm4": theorem4_check(f0, g, Delta=max(population_loss_gap(f0, g)[1], 0.0))}


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

