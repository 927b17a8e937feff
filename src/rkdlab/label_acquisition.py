"""Label-acquisition strategies and the label-complexity audits.

Covers i.i.d. and per-class-uniform labeling, cluster-wise labeling driven by
a non-degenerate prediction, and facility-location coresets selected by
(stochastic) greedy submodular maximization, plus empirical risk minimization
over finite families and the excess-risk Monte Carlo audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jsonio
from .clustering_audit import MajorityLabeling, majority_label, majority_labels
from .errors import DomainError, InvalidConfigError
from .graph_core import PopulationGraph, _freeze
from .spectral_rkd import Prediction, family_scores, is_integer

REDRAW_CAP = 100000


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
        return _freeze(table[:, 0]), _freeze(table[:, 1])


def make_labeled(g: PopulationGraph, vertices, strategy: str, seed: int) -> LabeledSet:
    pairs = tuple((int(v), int(g.labels[int(v)])) for v in vertices)
    return LabeledSet(pairs=pairs, strategy=strategy, seed=seed)


def save_labeled(labeled: LabeledSet, path) -> None:
    jsonio.dump_csv(("vertex_id", "class", "strategy", "seed"),
                    [(f"{v}", f"{c}", labeled.strategy, f"{labeled.seed}") for v, c in labeled.pairs], path)


def iid_sample(g: PopulationGraph, n: int, seed: int, require_coverage: bool):
    """n i.i.d. degree-weighted labeled draws; with require_coverage, redraw until every
    class is covered (`covering_draws`), counting rejections.  Returns
    (LabeledSet, rejections)."""
    if not (is_integer(n) and n >= 1):
        raise InvalidConfigError(f"labels.budget={n!r} must be an integer >= 1")
    rng = np.random.default_rng(seed)
    if require_coverage:
        draws, rejections = covering_draws(g, n, rng)
    else:
        draws, rejections = rng.choice(g.size, size=n, p=g.degrees()), 0
    return make_labeled(g, draws, "iid", seed), rejections


def covering_draws(g: PopulationGraph, n: int, rng: np.random.Generator):
    """(the first of repeated n i.i.d. degree-weighted draws that covers every class, the draws rejected before
    it); more than REDRAW_CAP rejections are a DomainError."""
    for rejections in range(REDRAW_CAP + 1):
        draws = rng.choice(g.size, size=n, p=g.degrees())
        if len(np.unique(g.labels[draws])) == g.num_classes:
            return draws, rejections
    raise DomainError(f"no class-covering draw of size {n} in {REDRAW_CAP} attempts")


def uniform_per_class_sample(g: PopulationGraph, n_per_class: int, seed: int) -> LabeledSet:
    """n_per_class uniform draws without replacement from each ground-truth class."""
    if not (is_integer(n_per_class) and n_per_class >= 1):
        raise InvalidConfigError(f"labels.n_per_class={n_per_class!r} must be an integer >= 1")
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
    majority: MajorityLabeling  # the prediction's majority labeling, which the checks read


def check_non_degenerate(f: Prediction, g: PopulationGraph) -> NonDegeneracyReport:
    """Surjective predictions, nonempty majority clusters, and minority mass at
    most half the smallest admissible fraction: c0 = min_k P(cluster_k) over
    P(minority in cluster_k) must be >= 2."""
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
    return NonDegeneracyReport(m0=m0, c0=c0, ok=not reasons, reasons=tuple(reasons), majority=maj)


def _cluster_wise_plan(f: Prediction, g: PopulationGraph, delta: float):
    """Validate non-degeneracy and the delta window; return (m, majority labeling)."""
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
    return m, report.majority


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


# ---------------------------------------------------------------------------
# facility-location coresets


def stochastic_greedy(kmat: np.ndarray, n: int, epsilon: float, seed: int):
    """Greedy over uniformly sampled candidate pools of size ceil((|X|/n) log(1/eps)).

    Deterministic given the seed; with pools covering the whole remaining
    ground set it coincides with full greedy (identical tie-breaking by
    smallest vertex index).
    """
    size = len(kmat)
    if not 1 <= n <= size:
        raise DomainError(f"need 1 <= n <= |X|, got n={n}")
    if not 0 < epsilon < 1:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    pool_size = math.ceil((size / n) * math.log(1.0 / epsilon))
    rng = np.random.default_rng(seed)
    selected = []
    best_cover = np.zeros(size)
    remaining = set(range(size))
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
    a class (`covering_draws`); the ERM winner's excess population risk is compared to the bound.
    The family is read by `family_scores` and labeled once.
    """
    scores = family_scores(family, g)
    if not (is_integer(trials) and trials >= 1):
        raise DomainError(f"trials={trials!r} must be an integer >= 1")
    majs = majority_labels(scores, g)
    mu = max(maj.minority_mass for maj in majs)
    bound = theorem3_bound(g.num_classes, n, mu, delta)
    wrong = np.stack([maj.predicted != g.labels for maj in majs])
    deg = g.degrees()
    pop_errors = np.array([float(deg[w].sum()) for w in wrong])
    best_possible = float(pop_errors.min())
    err_table = wrong.astype(float)
    rng = np.random.default_rng(seed)
    failures = 0
    rejections = 0
    max_excess = 0.0
    for _ in range(trials):
        draws, rejected = covering_draws(g, n, rng)
        rejections += rejected
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
