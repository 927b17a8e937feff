"""Reference implementations that only the tests call.

Brute-force and closed-form oracles of the library's quantities: the exact
LP vertex enumeration, the C.1 interpolation-bound and margin-formula checks,
argmax labels with random tie-breaking, the Laplacian form of the inter-class
fraction, the neighborhood relation of an augmentation map, the
facility-location optimum and full greedy, the coupon-collector coverage
checks, the graph-revealing identity and the exact Rademacher enumeration.
Beside them sit the one-member forms of stacked library functions (one
skeleton, one minimizer, one rotation, one pair draw, one pair expectation)
and the file readers of what the commands write.  No command reaches any of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rkdlab import jsonio
from rkdlab.clustering_audit import (
    VERDICT_SLACK,
    _lp_data,
    MajorityLabeling,
    SkeletonReport,
    majority_label,
    margin_prefactor,
    skeletons_and_margins,
)
from rkdlab.dac_expansion import AugmentationMap
from rkdlab.errors import DomainError, NumericError
from rkdlab.graph_core import PopulationGraph, laplacian, normalized_adjacency
from rkdlab.label_acquisition import REDRAW_CAP, _cluster_wise_plan
from rkdlab.spectral_rkd import (
    Prediction,
    StudentModel,
    _PairTable,
    _pair_expectations,
    family_scores,
    population_minimizers,
    random_rotations,
)
from rkdlab.teacher_kernel import KernelSpec, kernel_matrix

LP_ENUMERATION_CAP = 12


# ---------------------------------------------------------------------------
# clustering audit


def lp_primal_enumerate(lambdas, K: int, Delta: float) -> Fraction:
    """Exact brute vertex enumeration (test oracle, |lambdas| <= LP_ENUMERATION_CAP).

    A vertex has at most two coordinates strictly inside (0, 1).  The sum row
    n - K is an integer, so either none is (n - K coordinates at 1 within the
    budget), or exactly two are, sharing one unit of mass on the binding
    budget row.
    """
    costs, budget, n = _lp_data(lambdas, K, Delta)
    if n > LP_ENUMERATION_CAP:
        raise DomainError(f"{n} variables exceed the enumeration cap {LP_ENUMERATION_CAP}")
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


def skeleton_and_margin(f: Prediction, g: PopulationGraph, maj: MajorityLabeling) -> SkeletonReport:
    """skeletons_and_margins of f alone, given its majority labeling maj."""
    return skeletons_and_margins(f.scores[None], g, [maj])[0]


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


def hard_labels_stochastic(f: Prediction, rng: np.random.Generator) -> np.ndarray:
    """f's argmax labels with uniform tie-breaking among entries within 1e-9 of the row max."""
    out = np.empty(f.scores.shape[0], dtype=int)
    for i, row in enumerate(f.scores):
        ties = np.nonzero(row >= row.max() - 1e-9)[0]
        out[i] = ties[0] if len(ties) == 1 else rng.choice(ties)
    return out


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


# ---------------------------------------------------------------------------
# augmentation maps


def save_augmentation(aug: AugmentationMap, path) -> None:
    jsonio.dump_canonical({"sets": [sorted(s) for s in aug.sets]}, path)


@dataclass(frozen=True)
class NeighborhoodMap:
    """NB(x) = {x' : A(x) and A(x') overlap}; symmetric and reflexive."""

    members: tuple

    def of_set(self, subset) -> frozenset:
        out = set()
        for x in subset:
            out |= self.members[int(x)]
        return frozenset(out)


def neighborhoods(aug: AugmentationMap) -> NeighborhoodMap:
    n = aug.size
    members = []
    for x in range(n):
        ax = aug.sets[x]
        members.append(frozenset(x2 for x2 in range(n) if ax & aug.sets[x2]))
    return NeighborhoodMap(members=tuple(members))


# ---------------------------------------------------------------------------
# label acquisition


def coverage_rate(f: Prediction, g: PopulationGraph, delta: float, trials: int, seed: int) -> float:
    """Monte Carlo frequency of cluster-wise draws covering every class."""
    m, maj = _cluster_wise_plan(f, g, delta)
    rng = np.random.default_rng(seed)
    K = g.num_classes
    seen = np.zeros((trials, K), dtype=bool)
    rows = np.repeat(np.arange(trials), m)
    for k in range(K):
        members = np.nonzero(maj.label == k)[0]
        draws = rng.choice(members, size=(trials, m), replace=True)
        seen[rows, g.labels[draws].ravel()] = True
    return float(seen.all(axis=1).mean())


def mean_draws_to_cover(g: PopulationGraph, trials: int, seed: int) -> float:
    """Mean number of i.i.d. degree-weighted draws until every class appears
    (at most REDRAW_CAP per trial)."""
    rng = np.random.default_rng(seed)
    deg = g.degrees()
    K = g.num_classes
    counts = np.zeros(trials, dtype=int)
    done = np.zeros(trials, dtype=bool)
    seen = np.zeros((trials, K), dtype=bool)
    step = 0
    block = 16
    while not done.all():
        if step >= REDRAW_CAP:
            raise DomainError(f"class coverage not reached within {REDRAW_CAP} draws")
        draws = rng.choice(g.size, size=(trials, block), p=deg)
        labels = g.labels[draws]
        for j in range(block):
            step += 1
            seen[np.arange(trials), labels[:, j]] = True
            newly = seen.all(axis=1) & ~done
            counts[newly] = step
            done |= newly
    return float(counts.mean())


def facility_location_value(selected, kmat: np.ndarray) -> float:
    """sum over the population of the best kernel similarity to the selected set."""
    sel = sorted(set(int(v) for v in selected))
    if not sel:
        raise DomainError("selected set must be nonempty")
    return float(kmat[sel, :].max(axis=0).sum())


def full_greedy(kmat: np.ndarray, n: int):
    """Reference greedy maximizer; returns (selected list, marginal gains)."""
    size = len(kmat)
    if not 1 <= n <= size:
        raise DomainError(f"need 1 <= n <= |X|, got n={n}")
    selected = []
    gains = []
    best_cover = np.zeros(size)
    remaining = set(range(size))
    for _ in range(n):
        cand = np.array(sorted(remaining))
        margin = np.maximum(kmat[cand, :] - best_cover[None, :], 0.0).sum(axis=1)
        pick = int(cand[int(np.argmax(margin))])
        gains.append(float(margin.max()))
        selected.append(pick)
        remaining.discard(pick)
        best_cover = np.maximum(best_cover, kmat[pick, :])
    return selected, gains


def exhaustive_best_subset(kmat: np.ndarray, n: int):
    """Optimal facility-location subset by exhaustive search (tiny fixtures only)."""
    if len(kmat) > 12 or n > 3:
        raise DomainError("exhaustive search limited to |X| <= 12 and n <= 3")
    best_val = -math.inf
    best_set = None
    for combo in itertools.combinations(range(len(kmat)), n):
        val = float(kmat[list(combo), :].max(axis=0).sum())
        if val > best_val:
            best_val = val
            best_set = combo
    return list(best_set), best_val


# ---------------------------------------------------------------------------
# teacher kernel and relational losses


def verify_graph_revealing_identity(g: PopulationGraph) -> float:
    """Frobenius residual of D^{1/2} K D^{1/2} - normalized adjacency.

    Zero (to machine precision) for the graph-revealing kernel of g itself.
    """
    kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
    sqrt_deg = np.sqrt(g.degrees())
    lhs = kmat * np.outer(sqrt_deg, sqrt_deg)
    return float(np.linalg.norm(lhs - normalized_adjacency(g)))


def exact_pair_expectation(f: Prediction, kmat: np.ndarray, g: PopulationGraph) -> float:
    """Exhaustive weighted pairing: sum over ordered pairs of w_x w_x' (f^T f - k)^2.

    The independent oracle for unbiasedness of the sampled empirical loss.
    """
    deg = g.degrees()
    return float(_pair_expectations(f.scores[None], kmat, np.outer(deg, deg))[0])


def exact_rademacher(family, g: PopulationGraph, N: int) -> float:
    """estimate_rademacher's sup-over-family Rademacher average, exactly: every
    ordered draw of N vertices, weighted by its degree product, and every N x K
    sign matrix (tiny N, K and |X| only)."""
    members = family_scores(family, g)
    K = members.shape[2]
    deg = g.degrees()
    total = 0.0
    signs = list(itertools.product((-1.0, 1.0), repeat=N * K))
    for draw in itertools.product(range(g.size), repeat=N):
        p = float(np.prod(deg[list(draw)]))
        acc = 0.0
        for flat in signs:
            rho = np.asarray(flat).reshape(N, K)
            acc += max(float(np.sum(rho * m[list(draw), :])) / N for m in members)
        total += p * acc / len(signs)
    return total


def draw_pairs(g: PopulationGraph, num_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Consecutive disjoint pairs from an i.i.d. degree-weighted vertex draw."""
    if num_pairs < 1:
        raise DomainError("need at least one pair")
    return _PairTable.build(np.arange(g.size), g.degrees()).draw(rng, num_pairs)


def exact_population_minimizer(g: PopulationGraph, K: int, rotation: np.ndarray | None = None) -> Prediction:
    """Closed-form population minimizer D^{-1/2} V_K diag(sqrt(1-lambda_i)) Q.

    Requires 1 - lambda_i >= 0 for i <= K (guaranteed when the normalized
    adjacency is positive semi-definite); any orthogonal Q gives the same loss.
    """
    stacked = None if rotation is None else np.asarray(rotation, dtype=float)[None]
    return Prediction(scores=population_minimizers(g, K, stacked)[0])


def random_rotation(K: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw."""
    return random_rotations(K, 1, rng)[0]


def load_checkpoint(path) -> StudentModel:
    data = jsonio.load(path)
    return StudentModel(
        architecture=data["architecture"],
        widths=tuple(data["widths"]),
        parameters=np.asarray(data["parameters"], dtype=float),
    )
