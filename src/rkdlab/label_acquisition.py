"""Label-acquisition strategies and the label-complexity audits.

Covers i.i.d. and per-class-uniform labeling, cluster-wise labeling driven by
a non-degenerate prediction, and facility-location coresets selected by
(stochastic) greedy submodular maximization, plus empirical risk minimization
over finite families and the excess-risk Monte Carlo audit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidConfigError
from .graph_core import PopulationGraph
from .spectral_rkd import Prediction
from .teacher_kernel import kernel_matrix


@dataclass(frozen=True)
class LabeledSet:
    """Noiselessly labeled vertices with the strategy and seed that chose them."""

    pairs: tuple
    strategy: str
    seed: int

    def vertices(self) -> np.ndarray:
        return self._columns[0]

    def classes(self) -> np.ndarray:
        return self._columns[1]

    @cached_property
    def _columns(self) -> tuple:
        """(vertices, classes) as read-only arrays, built once per set."""
        table = np.array(self.pairs, dtype=int).reshape(-1, 2)
        table.flags.writeable = False
        return table[:, 0], table[:, 1]


def make_labeled(g: PopulationGraph, vertices, strategy: str, seed: int) -> LabeledSet:
    pairs = tuple((int(v), int(g.labels[int(v)])) for v in vertices)
    return LabeledSet(pairs=pairs, strategy=strategy, seed=seed)


def save_labeled(labeled: LabeledSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_id", "class", "strategy", "seed"])
        for v, c in labeled.pairs:
            writer.writerow([v, c, labeled.strategy, labeled.seed])


def iid_sample(g: PopulationGraph, n: int, seed: int, require_coverage: bool = False):
    """n i.i.d. degree-weighted labeled draws; optionally redraw until every
    class is covered (at most 100000 redraws), counting rejections.  Returns
    (LabeledSet, rejections)."""
    if n < 1:
        raise InvalidConfigError("label budget must be positive")
    rng = np.random.default_rng(seed)
    deg = g.degrees()
    rejections = 0
    while True:
        draws = rng.choice(g.size, size=n, p=deg)
        if not require_coverage or len(np.unique(g.labels[draws])) == g.num_classes:
            return make_labeled(g, draws, "iid", seed), rejections
        rejections += 1
        if rejections > 100000:
            raise DomainError(f"no class-covering draw of size {n} in 100000 attempts")


def uniform_per_class_sample(g: PopulationGraph, n_per_class: int, seed: int) -> LabeledSet:
    """n_per_class uniform draws without replacement from each ground-truth class."""
    if n_per_class < 1:
        raise InvalidConfigError("per-class budget must be positive")
    rng = np.random.default_rng(seed)
    chosen = []
    for k in range(g.num_classes):
        members = g.class_members(k)
        if len(members) < n_per_class:
            raise DomainError(f"class {k} has only {len(members)} vertices for budget {n_per_class}")
        chosen.extend(rng.choice(members, size=n_per_class, replace=False).tolist())
    return make_labeled(g, chosen, "uniform_per_class", seed)


@dataclass(frozen=True)
class NonDegeneracyReport:
    m0: int
    c0: float
    ok: bool
    reasons: tuple


def check_non_degenerate(f: Prediction, g: PopulationGraph) -> NonDegeneracyReport:
    """Surjective predictions, nonempty majority clusters, and minority mass at
    most half the smallest admissible fraction: c0 = min_k P(cluster_k) over
    P(minority in cluster_k) must be >= 2."""
    from .clustering_audit import majority_label

    maj = majority_label(f, g)
    reasons = []
    predicted_classes = set(maj.predicted.tolist())
    if predicted_classes != set(range(g.num_classes)):
        reasons.append("prediction not surjective onto the class set")
    deg = g.degrees()
    sizes = []
    ratios = []
    for k in range(g.num_classes):
        members = maj.label == k
        sizes.append(int(members.sum()))
        if sizes[-1] == 0:
            reasons.append(f"majority cluster {k} is empty")
            continue
        cluster_mass = float(deg[members].sum())
        minority_mass = float(deg[members & maj.minority_mask].sum())
        ratios.append(math.inf if minority_mass == 0 else cluster_mass / minority_mass)
    m0 = min(sizes) if sizes else 0
    c0 = min(ratios) if ratios else 0.0
    if not reasons and c0 < 2:
        reasons.append(f"c0={c0} below 2")
    return NonDegeneracyReport(m0=m0, c0=c0, ok=not reasons, reasons=tuple(reasons))


def _cluster_wise_plan(f: Prediction, g: PopulationGraph, delta: float):
    """Validate non-degeneracy and the delta window; return (m, majority labeling)."""
    from .clustering_audit import majority_label

    report = check_non_degenerate(f, g)
    if not report.ok:
        raise DomainError(f"prediction is degenerate: {'; '.join(report.reasons)}")
    K = g.num_classes
    delta_min = 2.0 * K / report.c0**report.m0 if math.isfinite(report.c0) else 0.0
    if not delta_min < delta < 1.0:
        raise DomainError(f"delta={delta!r} outside (delta_min={delta_min!r}, 1)")
    if math.isinf(report.c0):
        m = 1
    else:
        m = max(1, math.ceil(math.log(2.0 * K / delta) / math.log(report.c0)))
    return m, majority_label(f, g)


def cluster_wise_sample(f: Prediction, g: PopulationGraph, delta: float, seed: int) -> LabeledSet:
    """ceil(log_c0(2K / delta)) uniform draws from each majority cluster.

    delta must exceed delta_min = 2K / c0^m0; coverage of all classes is the
    random event the Monte Carlo audit measures.
    """
    m, maj = _cluster_wise_plan(f, g, delta)
    rng = np.random.default_rng(seed)
    chosen = []
    for k in range(g.num_classes):
        members = np.nonzero(maj.label == k)[0]
        chosen.extend(rng.choice(members, size=m, replace=True).tolist())
    return make_labeled(g, chosen, "cluster_wise", seed)


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
    (at most 100000 per trial)."""
    rng = np.random.default_rng(seed)
    deg = g.degrees()
    K = g.num_classes
    counts = np.zeros(trials, dtype=int)
    done = np.zeros(trials, dtype=bool)
    seen = np.zeros((trials, K), dtype=bool)
    step = 0
    block = 16
    while not done.all():
        if step >= 100000:
            raise DomainError("class coverage not reached within 100000 draws")
        draws = rng.choice(g.size, size=(trials, block), p=deg)
        labels = g.labels[draws]
        for j in range(block):
            step += 1
            seen[np.arange(trials), labels[:, j]] = True
            newly = seen.all(axis=1) & ~done
            counts[newly] = step
            done |= newly
    return float(counts.mean())


# ---------------------------------------------------------------------------
# facility-location coresets


def facility_location_value(selected, kernel, g: PopulationGraph) -> float:
    """sum over the population of the best kernel similarity to the selected set."""
    sel = sorted(set(int(v) for v in selected))
    if not sel:
        raise DomainError("selected set must be nonempty")
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    return float(kmat[sel, :].max(axis=0).sum())


def full_greedy(kernel, g: PopulationGraph, n: int):
    """Reference greedy maximizer; returns (selected list, marginal gains)."""
    if not 1 <= n <= g.size:
        raise DomainError(f"need 1 <= n <= |X|, got n={n}")
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    selected = []
    gains = []
    best_cover = np.zeros(g.size)
    remaining = set(range(g.size))
    for _ in range(n):
        cand = np.array(sorted(remaining))
        margin = np.maximum(kmat[cand, :] - best_cover[None, :], 0.0).sum(axis=1)
        pick = int(cand[int(np.argmax(margin))])
        gains.append(float(margin.max()))
        selected.append(pick)
        remaining.discard(pick)
        best_cover = np.maximum(best_cover, kmat[pick, :])
    return selected, gains


def stochastic_greedy(kernel, g: PopulationGraph, n: int, epsilon: float, seed: int):
    """Greedy over uniformly sampled candidate pools of size ceil((|X|/n) log(1/eps)).

    Deterministic given the seed; with pools covering the whole remaining
    ground set it coincides with full greedy (identical tie-breaking by
    smallest vertex index).
    """
    if not 1 <= n <= g.size:
        raise DomainError(f"need 1 <= n <= |X|, got n={n}")
    if not 0 < epsilon < 1:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    pool_size = math.ceil((g.size / n) * math.log(1.0 / epsilon))
    rng = np.random.default_rng(seed)
    selected = []
    best_cover = np.zeros(g.size)
    remaining = set(range(g.size))
    for _ in range(n):
        cand_all = np.array(sorted(remaining))
        if pool_size >= len(cand_all):
            cand = cand_all
        else:
            cand = np.sort(rng.choice(cand_all, size=pool_size, replace=False))
        margin = np.maximum(kmat[cand, :] - best_cover[None, :], 0.0).sum(axis=1)
        pick = int(cand[int(np.argmax(margin))])
        selected.append(pick)
        remaining.discard(pick)
        best_cover = np.maximum(best_cover, kmat[pick, :])
    return selected


def exhaustive_best_subset(kernel, g: PopulationGraph, n: int):
    """Optimal facility-location subset by exhaustive search (tiny fixtures only)."""
    import itertools

    if g.size > 12 or n > 3:
        raise DomainError("exhaustive search limited to |X| <= 12 and n <= 3")
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    best_val = -math.inf
    best_set = None
    for combo in itertools.combinations(range(g.size), n):
        val = float(kmat[list(combo), :].max(axis=0).sum())
        if val > best_val:
            best_val = val
            best_set = combo
    return list(best_set), best_val


# ---------------------------------------------------------------------------
# ERM over finite families and the excess-risk audit


@dataclass(frozen=True)
class ErmResult:
    index: int
    prediction: Prediction
    empirical_errors: tuple


def erm_zero_one(family, labeled: LabeledSet) -> ErmResult:
    """Zero-one empirical risk minimizer; ties go to the earliest family member."""
    if not family:
        raise DomainError("family must be nonempty")
    verts = labeled.vertices()
    truth = labeled.classes()
    errs = []
    for f in family:
        errs.append(float(np.mean(f.hard_labels()[verts] != truth)))
    best = int(np.argmin(errs))
    return ErmResult(index=best, prediction=family[best], empirical_errors=tuple(errs))


def population_error(f: Prediction, g: PopulationGraph) -> float:
    deg = g.degrees()
    return float(deg[f.hard_labels() != g.labels].sum())


@dataclass(frozen=True)
class Theorem3Report:
    bound: float
    mu: float
    trials: int
    failures: int
    failure_rate: float
    rejections: int
    vacuous: bool
    max_excess: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def theorem3_bound(K: int, n: int, mu: float, delta: float) -> float:
    """Excess-risk bound 4 sqrt(2K log(2n)/n + 2 mu) + sqrt(2 log(4/delta)/n)."""
    if n < K:
        raise InvalidConfigError(f"budget n={n} below the class count K={K} makes the bound vacuous")
    if not 0 < delta < 1:
        raise DomainError("delta must be in (0, 1)")
    return 4.0 * math.sqrt(2.0 * K * math.log(2.0 * n) / n + 2.0 * mu) + math.sqrt(
        2.0 * math.log(4.0 / delta) / n
    )


def theorem3_check(
    family,
    g: PopulationGraph,
    n: int,
    trials: int,
    delta: float,
    seed: int,
) -> Theorem3Report:
    """Monte Carlo frequency of excess-risk bound violations over label draws.

    Each trial draws n i.i.d. labels, discarding (and counting) draws that miss
    a class; the ERM winner's excess population risk is compared to the bound.
    """
    from .clustering_audit import majority_label

    mu = max(majority_label(f, g).minority_mass for f in family)
    bound = theorem3_bound(g.num_classes, n, mu, delta)
    pop_errors = np.array([population_error(f, g) for f in family])
    best_possible = float(pop_errors.min())
    err_table = np.stack([f.hard_labels() != g.labels for f in family]).astype(float)
    rng = np.random.default_rng(seed)
    deg = g.degrees()
    failures = 0
    rejections = 0
    max_excess = 0.0
    for _ in range(trials):
        while True:
            draws = rng.choice(g.size, size=n, p=deg)
            if len(np.unique(g.labels[draws])) == g.num_classes:
                break
            rejections += 1
        emp = err_table[:, draws].mean(axis=1)
        winner = int(np.argmin(emp))
        excess = float(pop_errors[winner]) - best_possible
        max_excess = max(max_excess, excess)
        if excess > bound:
            failures += 1
    return Theorem3Report(
        bound=bound, mu=mu, trials=trials, failures=failures,
        failure_rate=failures / trials, rejections=rejections,
        vacuous=bound > 1.0, max_excess=max_excess,
    )
