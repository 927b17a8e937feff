"""Clustering-error quantities and the audits of the clustering-error bounds.

The central object is the majority labeling: each predicted cluster is
relabeled by its most probable ground-truth class, and the clustering error
is the probability mass of vertices whose majority label disagrees with the
truth.  The audits check the population bound (inter-class mass over the
spectral gap) and the empirical bound with its linear-programming dual.
"""

from __future__ import annotations

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
EPS = np.finfo(float).eps


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
    """The majority relabeling of each member of an (R, |X|, K) score stack:
    predicted clusters, their majority labels and the minority set they
    induce, shape (R, |X|); per member, the minority mass and whether the
    minority holds at most half of every class (the halves condition),
    shape (R,)."""

    label: np.ndarray
    minority_mask: np.ndarray
    minority_mass: np.ndarray
    predicted: np.ndarray
    halves: np.ndarray


@dataclass(frozen=True)
class SkeletonReport:
    """Each member's spectral bound beta and least margin gamma over its
    skeleton, shape (R,) (nan where no skeleton was found), whether the
    member is applicable, and (index, reason) of each member that is not."""

    beta: np.ndarray
    gamma: np.ndarray
    applicable: np.ndarray
    skipped: list


def audit_record(mu, bound, skip: str | None = None, **quantities) -> dict:
    """The one record of a clustering-error audit (theorems 1, 4 and 5):
    {"verdict", "mu", "bound", the theorem's own quantities}.  The verdict is
    `skip`, the marker of a bound that was not checked, or else "pass" when
    mu <= bound + VERDICT_SLACK and "fail" otherwise.  mu, bound and each
    quantity are None where the theorem computed none."""
    verdict = skip if skip is not None else ("pass" if mu <= bound + VERDICT_SLACK else "fail")
    return {"verdict": verdict, "mu": mu, "bound": bound, **quantities}


def mask_masses(masks: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """deg[mask].sum() of each row of an (R, |X|) boolean stack: numpy's
    pairwise sum of each member's own vertices, so that a member's mass has
    the same bits however the family around it is built.  An empty row
    gives 0.0 without a sum."""
    sums = np.zeros(len(masks))
    for r in np.flatnonzero(masks.any(axis=1)).tolist():
        sums[r] = deg[masks[r]].sum()
    return sums


def majority_labels(scores: np.ndarray, g: PopulationGraph) -> MajorityLabeling:
    """Relabel each predicted cluster of each member of an (R, |X|, K) score
    stack by its heaviest ground-truth class, at once.

    Conditional class weights are degree-proportional; ties go to the smallest
    class index.  Class masses come from one bincount over (member, cluster,
    class) codes weighted by degree, which sums each cluster's vertices of a
    class in ascending order from zero, as a per-cluster scatter does.
    """
    R, n, K = scores.shape
    if n != g.size:
        raise DomainError(f"prediction rows {n} != |X| = {g.size}")
    predicted = np.argmax(scores, axis=2)
    C = g.num_classes
    deg = g.degrees()
    cluster = np.arange(R)[:, None] * K + predicted
    masses = np.bincount((cluster * C + g.labels).ravel(), weights=np.tile(deg, R), minlength=R * K * C)
    label = masses.reshape(R * K, C).argmax(axis=1)[cluster]
    minority = label != g.labels
    return MajorityLabeling(label=label, minority_mask=minority, minority_mass=mask_masses(minority, deg),
                            predicted=predicted, halves=_halves_condition(minority, g))


def _halves_condition(minority: np.ndarray, g: PopulationGraph) -> np.ndarray:
    """P(M(f) intersect X_k) <= P(X_k)/2 + 1e-15 for every class k, per member
    of an (R, |X|) minority stack, with each side numpy's pairwise sum
    deg[mask].sum().

    One bincount sums every member's minority mass per class, in vertex
    order.  That sequential sum and the pairwise one each lie within
    |X| eps / 2 times the class mass of the exact sum, so they differ by
    less than |X| eps times the class mass.  Only a member with a class whose
    sequential sum lies that close to the threshold is summed again,
    pairwise, to decide it.
    """
    R, n = minority.shape
    C = g.num_classes
    deg = g.degrees()
    totals = g.class_masses()
    half = totals / 2 + 1e-15
    codes = (np.arange(R)[:, None] * C + g.labels).ravel()
    held = np.bincount(codes, weights=(minority * deg).ravel(), minlength=R * C).reshape(R, C)
    halves = (held <= half).all(axis=1)
    near = (np.abs(held - half) <= n * EPS * totals).any(axis=1)
    for r in np.flatnonzero(near).tolist():
        halves[r] = all(deg[(g.labels == k) & minority[r]].sum() <= half[k] for k in range(C))
    return halves


def skeletons_and_margins(scores: np.ndarray, maj: MajorityLabeling) -> SkeletonReport:
    """Skeletons and margins of each member f of an (R, |X|, K) score stack,
    given its majority labeling: the skeleton s_k = argmax of f(.)_k over
    non-minority vertices, with the spectral bound beta and per-class margins
    against minority competitors.  Skeletons come from a masked argmax, the
    skeleton matrices' singular values from one stacked svd, margins from a
    masked max.

    Not-applicable (never an exception) when the minority halves condition
    fails, a skeleton entry predicts the wrong class, the skeleton matrix is
    rank-deficient, or the margin is non-positive.  Only the members that
    are not applicable get a reason.
    """
    R, _, K = scores.shape
    minority, predicted = maj.minority_mask, maj.predicted
    member, classes = np.arange(R)[:, None], np.arange(K)
    skeleton = np.where(minority[:, :, None], -np.inf, scores).argmax(axis=1)
    wrong = predicted[member, skeleton] != classes
    svals = np.linalg.svd(scores[member, skeleton], compute_uv=False)
    competitors = minority[:, :, None] & (predicted[:, :, None] != classes)
    top = scores[member, skeleton, classes]
    margins = top - np.where(competitors, scores, -np.inf).max(axis=1)  # inf without competitors
    empty = minority.all(axis=1)
    found = maj.halves & ~empty & ~wrong.any(axis=1)
    beta = np.where(found, svals[:, 0], np.nan)
    gamma = np.where(found, margins.min(axis=1), np.nan)
    full_rank = svals[:, -1] > RANK_TOL
    applicable = found & full_rank & (gamma > 0)
    skipped = []
    for r in np.flatnonzero(~applicable).tolist():
        if not maj.halves[r]:
            reason = "minority mass exceeds half of some class"
        elif empty[r]:
            reason = "no non-minority vertices"
        elif not found[r]:
            reason = f"skeleton vertex predicts the wrong class for k={np.flatnonzero(wrong[r]).tolist()}"
        elif not full_rank[r]:
            reason = "skeleton matrix rank-deficient"
        else:
            reason = f"non-positive margin {gamma[r].item()}"
        skipped.append((r, reason))
    return SkeletonReport(beta=beta, gamma=gamma, applicable=applicable, skipped=skipped)


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
    maj = majority_labels(scores, g)
    skel = skeletons_and_margins(scores, maj)
    audited = skel.applicable
    mu = beta = gamma = bound = None
    if audited.any():
        mu = float(maj.minority_mass[audited].max())
        beta = float(skel.beta[audited].max())
        gamma = float(skel.gamma[audited].min())
    if lam_next is None:
        skip = "bound-undefined: K+1 exceeds |X|"
    elif lam_next <= 1e-12:
        skip = "bound-undefined: lambda_{K+1} ~ 0"
    elif mu is None:
        skip = "not-applicable: every member skipped"
    else:
        skip, bound = None, 2.0 * margin_prefactor(beta, gamma) * alpha / lam_next
    return audit_record(mu, bound, skip, alpha=alpha, beta=beta, gamma=gamma, lambda_next=lam_next,
                        skipped=skel.skipped)


def theorem4_check(f_emp: Prediction, g: PopulationGraph, Delta: float) -> dict:
    """Audit the empirical-minimizer clustering bound at a measured loss gap Delta, with the LP's K0 the
    prediction's class count K, as an audit_record with Delta, alpha, beta, gamma, lambda_next, lp_primal and
    lp_dual."""
    lam = spectral_decompose(g).eigenvalues
    K = f_emp.num_classes
    lam_next = _lambda_next(lam, K)
    alpha = inter_class_fraction(g)
    scores = f_emp.scores[None]
    maj = majority_labels(scores, g)
    skel = skeletons_and_margins(scores, maj)
    beta, gamma = (None if math.isnan(x) else x for x in (skel.beta[0].item(), skel.gamma[0].item()))
    bound = lp_primal = lp_dual = skip = None
    if lam_next is None:
        skip = "bound-undefined: K+1 exceeds |X|"
    elif Delta < 0:
        skip = "bound-undefined: negative Delta"
    elif not Delta < (1.0 - lam[K - 1]) ** 2:
        skip = f"bound-undefined: Delta={Delta!r} >= (1 - lambda_K)^2"
    elif lam_next <= 1e-12:
        skip = "bound-undefined: lambda_{K+1} ~ 0"
    elif skel.skipped:
        skip = f"not-applicable: {skel.skipped[0][1]}"
    else:
        try:
            lp_primal, lp_dual = lp_bound_oracle(lam, K, K, Delta)
        except DomainError as exc:  # the closed-form dual's denominator
            skip = f"bound-undefined: {exc}"
        else:
            bound = 2.0 * margin_prefactor(beta, gamma) * (alpha / lam_next + lp_dual)
    return audit_record(maj.minority_mass[0].item(), bound, skip, Delta=Delta, alpha=alpha, beta=beta,
                        gamma=gamma, lambda_next=lam_next, lp_primal=lp_primal, lp_dual=lp_dual)


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


def _lp_costs(lambdas, K: int, Delta: float) -> np.ndarray:
    """The float costs (1 - lambda_i)^2 of the LP on ascending eigenvalues,
    once 1 <= K < n and 0 <= Delta < (1 - lambda_K)^2 hold."""
    lam = np.asarray(lambdas, dtype=float)
    n = len(lam)
    if not 1 <= K < n:
        raise DomainError(f"need 1 <= K < {n}")
    if np.any(np.diff(lam) < -1e-12):
        raise DomainError("eigenvalues must be ascending")
    costs = (1.0 - lam) ** 2
    if not 0 <= Delta < costs[K - 1]:
        raise DomainError(f"Delta={Delta!r} must be in [0, (1 - lambda_K)^2 = {costs[K-1]!r})")
    return costs


def _dyadic(values) -> tuple:
    """Floats as integers over one power of two, exactly: (numerators, denominator)."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [p * (den // d) for p, d in ratios], den


def _exact_sum(values) -> Fraction:
    """The sum of floats without rounding."""
    numerators, den = _dyadic(values)
    return Fraction(sum(numerators), den)


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
    costs = _lp_costs(lambdas, K, Delta)
    budget = _exact_sum([*costs[K:].tolist(), Delta])  # the tail costs plus Delta
    t_max = min(K, len(costs) - K)
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

    The arithmetic is in integers.  Floats are dyadic, so one power of two D
    makes each of those costs C = D c and the slack S = D (B - sum(c)) =
    D (Delta - sum(c_head)) an integer.  At a breakpoint mu = D / E,
    E = C_h - C_t, every term is an integer over E (1 - mu c_h = (E - C_h) / E
    and -mu c_t = -C_t / E), so L(mu) = (S + K E - sum of the K smallest
    numerators) / E, and two candidates compare by cross-multiplication.
    L(0) is the tail length.
    """
    costs = _lp_costs(lambdas, K, Delta)
    dearest = [*np.sort(costs[:K])[::-1].tolist(), *np.sort(costs[K:])[::-1][:K].tolist()]
    (*scaled, delta), _ = _dyadic([*dearest, Delta])
    head, tail = scaled[:K], scaled[K:]
    slack = delta - sum(head)
    best_num, best_den = len(tail), 1  # L(0)
    for e in {h - t for h in head for t in tail if h > t}:
        num = slack + K * e - sum(sorted([e - h for h in head] + [-t for t in tail])[:K])
        if num * best_den < best_num * e:
            best_num, best_den = num, e
    return Fraction(best_num, best_den)


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

