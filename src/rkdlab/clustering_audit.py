"""Clustering-error quantities and the audits of the clustering-error bounds.

The central object is the majority labeling: each predicted cluster is
relabeled by its most probable ground-truth class, and the clustering error
is the probability mass of vertices whose majority label disagrees with the
truth.  The audits check the population bound (inter-class mass over the
spectral gap), the empirical bound with its linear-programming dual, and the
supporting identities and counter-example formulas.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericError, SizeLimitError
from .graph_core import PopulationGraph, inter_class_fraction, laplacian, spectral_decompose
from .spectral_rkd import Prediction

VERDICT_SLACK = 1e-9
LP_AGREEMENT_TOL = 1e-9
RANK_TOL = 1e-10
LP_ENUMERATION_CAP = 12


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
    skipped: tuple = ()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def majority_label(f: Prediction, g: PopulationGraph, predicted: np.ndarray | None = None) -> MajorityLabeling:
    """Relabel each predicted cluster by its heaviest ground-truth class.

    Conditional class weights are degree-proportional; ties go to the smallest
    class index and are recorded.  `predicted` overrides the deterministic
    argmax (used by the stochastic tie-breaking mode).
    """
    if predicted is None:
        predicted = f.hard_labels()
    predicted = np.asarray(predicted, dtype=int)
    if predicted.shape != (g.size,):
        raise DomainError("predicted labels misaligned with the vertex set")
    deg = g.degrees()
    label = np.empty(g.size, dtype=int)
    ties = []
    for cluster in np.unique(predicted):
        members = predicted == cluster
        masses = np.zeros(g.num_classes)
        np.add.at(masses, g.labels[members], deg[members])
        top = masses.max()
        winners = np.nonzero(masses >= top)[0]
        if len(winners) > 1:
            ties.append(int(cluster))
        label[members] = winners[0]
    minority = label != g.labels
    return MajorityLabeling(
        label=label,
        minority_mask=minority,
        minority_mass=float(deg[minority].sum()),
        predicted=predicted,
        ties=tuple(ties),
    )


def label_boundary_mass(g: PopulationGraph) -> float:
    """sum_k y_k^T L y_k for the degree-scaled one-hot truth; equals the
    inter-class weight fraction exactly."""
    lap = laplacian(g)
    sd = np.sqrt(g.degrees())
    total = 0.0
    for k in range(g.num_classes):
        yk = sd * (g.labels == k)
        total += float(yk @ lap @ yk)
    return total


def halves_condition(maj: MajorityLabeling, g: PopulationGraph) -> bool:
    """P(M(f) intersect X_k) <= P(X_k)/2 for every class k."""
    deg = g.degrees()
    for k in range(g.num_classes):
        cls = g.labels == k
        if deg[cls & maj.minority_mask].sum() > deg[cls].sum() / 2 + 1e-15:
            return False
    return True


def skeleton_and_margin(
    f: Prediction, g: PopulationGraph, maj: MajorityLabeling | None = None
) -> SkeletonReport:
    """Skeleton s_k = argmax of f(.)_k over non-minority vertices, with the
    spectral bound beta and per-class margins against minority competitors.

    Not-applicable (never an exception) when the minority halves condition
    fails, a skeleton entry predicts the wrong class, the skeleton matrix is
    rank-deficient, or the margin is non-positive.
    """
    if maj is None:
        maj = majority_label(f, g)
    K = f.num_classes
    empty = SkeletonReport(
        skeleton=(), beta=math.nan, gammas=(), gamma=math.nan,
        rank_ok=False, applicable=False, reason="",
    )
    if not halves_condition(maj, g):
        return _with_reason(empty, "minority mass exceeds half of some class")
    candidates = np.nonzero(~maj.minority_mask)[0]
    if len(candidates) == 0:
        return _with_reason(empty, "no non-minority vertices")
    skeleton = []
    for k in range(K):
        col = f.scores[candidates, k]
        skeleton.append(int(candidates[int(np.argmax(col))]))
    predicted = maj.predicted
    if any(predicted[s] != k for k, s in enumerate(skeleton)):
        bad = [k for k, s in enumerate(skeleton) if predicted[s] != k]
        return _with_reason(empty, f"skeleton vertex predicts the wrong class for k={bad}")
    fs = f.scores[skeleton, :]
    svals = np.linalg.svd(fs, compute_uv=False)
    rank_ok = bool(svals[-1] > RANK_TOL)
    beta = float(svals[0])
    gammas = []
    for k in range(K):
        competitors = maj.minority_mask & (predicted != k)
        if competitors.any():
            gammas.append(float(f.scores[skeleton[k], k] - f.scores[competitors, k].max()))
        else:
            gammas.append(math.inf)
    gamma = min(gammas)
    if not rank_ok:
        return SkeletonReport(tuple(skeleton), beta, tuple(gammas), gamma, False, False,
                              "skeleton matrix rank-deficient")
    if not gamma > 0:
        return SkeletonReport(tuple(skeleton), beta, tuple(gammas), gamma, True, False,
                              f"non-positive margin {gamma}")
    return SkeletonReport(tuple(skeleton), beta, tuple(gammas), gamma, True, True, "")


def _with_reason(report: SkeletonReport, reason: str) -> SkeletonReport:
    return SkeletonReport(report.skeleton, report.beta, report.gammas, report.gamma,
                          report.rank_ok, False, reason)


def margin_prefactor(beta: float, gamma: float) -> float:
    """max(beta^2 / gamma^2, 1); the infinite-margin case collapses to 1."""
    if math.isinf(gamma):
        return 1.0
    return max(beta**2 / gamma**2, 1.0)


def theorem1_check(f_family, g: PopulationGraph) -> AuditReport:
    """Audit mu(family) <= 2 max(beta^2/gamma^2, 1) alpha / lambda_{K+1}.

    Members that violate the skeleton/margin preconditions are skipped with a
    marker and excluded from mu, beta, gamma.
    """
    if not f_family:
        raise DomainError("empty prediction family")
    dec = spectral_decompose(g)
    alpha = inter_class_fraction(g)
    K = f_family[0].num_classes
    mu = 0.0
    beta = 0.0
    gamma = math.inf
    skipped = []
    audited = 0
    for idx, f in enumerate(f_family):
        maj = majority_label(f, g)
        skel = skeleton_and_margin(f, g, maj)
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


def theorem4_check(f_emp: Prediction, g: PopulationGraph, Delta: float, K0: int) -> AuditReport:
    """Audit the empirical-minimizer clustering bound at a measured loss gap Delta."""
    dec = spectral_decompose(g)
    lam = dec.eigenvalues
    alpha = inter_class_fraction(g)
    K = f_emp.num_classes
    maj = majority_label(f_emp, g)
    skel = skeleton_and_margin(f_emp, g, maj)
    verdicts = {}
    bound = None
    lp_primal = lp_dual = None
    base = dict(
        mu=maj.minority_mass, alpha=alpha, lambdas=tuple(float(x) for x in lam),
        beta=skel.beta, gamma=skel.gamma, bound_thm1=None,
    )
    if K >= g.size:
        verdicts["thm4"] = "bound-undefined: K+1 exceeds |X|"
    elif not 1 <= K0 <= K:
        verdicts["thm4"] = f"bound-undefined: K0={K0} outside [1, K]"
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
            lp_primal, lp_dual = lp_bound_oracle(lam, K, K0, Delta)
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


def lp_primal_enumerate(lambdas, K: int, Delta: float) -> Fraction:
    """Exact brute vertex enumeration (test oracle, |lambdas| <= LP_ENUMERATION_CAP).

    A vertex has at most two coordinates strictly inside (0, 1).  The sum row
    n - K is an integer, so either none is (n - K coordinates at 1 within the
    budget), or exactly two are, sharing one unit of mass on the binding
    budget row.
    """
    costs, budget, n = _lp_data(lambdas, K, Delta)
    if n > LP_ENUMERATION_CAP:
        raise SizeLimitError(f"{n} variables exceed the enumeration cap {LP_ENUMERATION_CAP}")
    exact = [Fraction(x) for x in costs.tolist()]
    # one power of two turns every cost and the budget into an integer
    scale = max(x.denominator for x in [*exact, budget])
    c = [int(x * scale) for x in exact]
    cap = int(budget * scale)
    best = None
    for free in itertools.chain([()], itertools.combinations(range(n), 2)):
        if free and c[free[0]] == c[free[1]]:
            continue  # two free coordinates of equal cost make no vertex
        rest = [i for i in range(n) if i not in free]
        for ones in itertools.combinations(rest, n - K - len(free) // 2):
            spare = cap - sum(c[i] for i in ones)
            value = sum(1 for i in ones if i < K)
            if free:
                i, j = free
                # xi_i + xi_j = 1 and c_i xi_i + c_j xi_j = spare
                xj = Fraction(spare - c[i], c[j] - c[i])
                if not 0 < xj < 1:
                    continue
                value += (i < K) * (1 - xj) + (j < K) * xj
            elif spare < 0:
                continue
            if best is None or value > best:
                best = value
    if best is None:
        raise NumericError("internal error: enumeration found no feasible vertex")
    return Fraction(best)


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


# ---------------------------------------------------------------------------
# supporting identity and counter-example formulas


def lemma_c1_check(f: Prediction, g: PopulationGraph):
    """Return (minority mass, 2 max(beta^2/gamma^2, 1) min_Z ||Y - F Z||_F^2).

    The right side is computed by least squares; rank-deficient F falls back to
    the pseudo-inverse and is recorded by the caller via the skeleton report.
    """
    maj = majority_label(f, g)
    skel = skeleton_and_margin(f, g, maj)
    if not skel.applicable:
        raise DomainError(f"margin preconditions not met: {skel.reason}")
    sd = np.sqrt(g.degrees())
    F = f.scores * sd[:, None]
    Y = (np.eye(g.num_classes)[g.labels]) * sd[:, None]
    Z, *_ = np.linalg.lstsq(F, Y, rcond=None)
    rhs = 2.0 * margin_prefactor(skel.beta, skel.gamma) * float(np.linalg.norm(Y - F @ Z) ** 2)
    lhs = maj.minority_mass
    if lhs > rhs + VERDICT_SLACK:
        raise NumericError(f"interpolation bound violated: {lhs!r} > {rhs!r}")
    return lhs, rhs


def example_c1_margin_check(beta: float, ce_loss: float) -> float:
    """Margin lower bound from the weak-supervision cross-entropy window.

    Defined for log(1 + exp(-sqrt(2) beta)) <= L < log(1 + exp(-beta)); equals
    sqrt(2) beta at the lower endpoint.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    lo = math.log1p(math.exp(-math.sqrt(2.0) * beta))
    hi = math.log1p(math.exp(-beta))
    if not lo - 1e-12 <= ce_loss < hi:
        raise DomainError(f"cross-entropy {ce_loss!r} outside [{lo!r}, {hi!r})")
    gap = -math.log(math.expm1(ce_loss))
    radicand = max(2.0 * beta**2 - gap**2, 0.0)
    return gap - math.sqrt(radicand)
