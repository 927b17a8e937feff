"""Expansion-based augmentations, consistency error, and margin machinery.

Augmentation sets live inside ground-truth classes; two vertices are
neighbors when their augmentation sets overlap.  Expansion strength is the
worst-case per-class growth factor of neighborhoods over small subsets.  It
is exact: every subset of each connected component of the neighbor relation
is enumerated (components of up to 20 vertices).  The constant-expansion
probes mix classes through the total mass, so they enumerate the subsets of
the whole graph (up to 18 vertices).  Both build their subset tables by
doubling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    InvalidAugmentationError,
    InvalidConfigError,
    NumericError,
    SizeLimitError,
)
from .graph_core import PopulationGraph
from .spectral_rkd import Prediction, StudentModel

EXHAUSTIVE_SUBSET_CAP = 18  # whole-graph enumeration (constant expansion)
COMPONENT_SUBSET_CAP = 20  # per-NB-component enumeration (c-expansion)
C_HAT_CAP = 1e18
MASS_TOL = 1e-12
VERDICT_SLACK = 1e-9


@dataclass(frozen=True)
class AugmentationMap:
    """Per-vertex augmentation sets A(x); conforming maps satisfy x in A(x),
    A(x) strictly larger than {x}, and A(x) inside x's ground-truth class."""

    sets: tuple
    conforming: bool = True

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(int(v) for v in s) for s in self.sets))

    @property
    def size(self) -> int:
        return len(self.sets)

    def validate(self, g: PopulationGraph) -> None:
        if self.size != g.size:
            raise InvalidAugmentationError(f"{self.size} augmentation sets for {g.size} vertices")
        for x, aset in enumerate(self.sets):
            if x not in aset:
                raise InvalidAugmentationError(f"vertex {x} missing from its own augmentation set")
            if self.conforming and aset == {x}:
                raise InvalidAugmentationError(f"augmentation set of vertex {x} is the bare singleton")
            if any(g.labels[v] != g.labels[x] for v in aset):
                raise InvalidAugmentationError(f"augmentation of vertex {x} crosses a class boundary")


def make_augmentation(sets, g: PopulationGraph, strict: bool = True) -> AugmentationMap:
    """Build and validate an augmentation map; strict=False admits singleton
    sets for counter-example fixtures and marks the map non-conforming."""
    aug = AugmentationMap(sets=tuple(sets), conforming=strict)
    aug.validate(g)
    return aug


def chain_augmentation(g: PopulationGraph) -> AugmentationMap:
    """A(x) = {x, next vertex in x's class} cyclically within each class."""
    sets = [None] * g.size
    for k in range(g.num_classes):
        members = [int(v) for v in g.class_members(k)]
        for i, v in enumerate(members):
            sets[v] = {v, members[(i + 1) % len(members)]}
    return AugmentationMap(sets=tuple(sets))


def load_augmentation(path, g: PopulationGraph) -> AugmentationMap:
    """Load {"sets": [[...vertex ids...], ...]} aligned to graph vertex order."""
    data = json.loads(Path(path).read_text())
    return make_augmentation(data["sets"], g)


def save_augmentation(aug: AugmentationMap, path) -> None:
    from .jsonio import dump_canonical

    dump_canonical({"sets": [sorted(s) for s in aug.sets]}, path)


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


@dataclass(frozen=True)
class ExpansionReport:
    """c_hat with the number of qualifying subsets checked; exhaustive is
    always True (every estimate is an exact enumeration)."""

    c_hat: float
    checked_subsets: int
    exhaustive: bool


def _nb_components(aug: AugmentationMap) -> list:
    """Connected components of the NB relation, as ascending vertex lists.

    Found from the augmentation sets by union-find in O(sum |A(x)|): x and
    every v in A(x) are NB neighbors, because v is in A(v), and any overlap
    A(x) & A(x') = {w, ...} joins x and x' through w.
    """
    parent = list(range(aug.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, aset in enumerate(aug.sets):
        root = find(x)
        for v in aset:
            other = find(v)
            if other != root:
                parent[other] = root
    groups = {}
    for x in range(aug.size):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _nb_masks(aug: AugmentationMap, members) -> np.ndarray:
    """NB(x) of each member as a bitmask over positions in `members`, which
    must be a union of NB components."""
    holders = {}  # w -> members whose augmentation set holds w
    for i, x in enumerate(members):
        for w in aug.sets[x]:
            holders[w] = holders.get(w, 0) | (1 << i)
    masks = []
    for x in members:
        mask = 0
        for w in aug.sets[x]:
            mask |= holders[w]
        masks.append(mask)
    return np.array(masks, dtype=np.int64)


def _subset_tables(mass: np.ndarray, nb_masks: np.ndarray):
    """Per-subset masses and NB codes of n vertices, built by doubling.

    mass has one row of vertex masses per measure, shape (r, n).  The entry
    for code c | 2^j (c < 2^j) is the entry for c with vertex j added, so
    the (r, 2^n) mass table and the 2^n NB codes take O((r + 1) 2^n) work.
    """
    r, n = mass.shape
    sums = np.zeros((r, 1 << n))
    nb_of = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        lo, hi = 1 << j, 2 << j
        np.add(sums[:, :lo], mass[:, j : j + 1], out=sums[:, lo:hi])
        np.bitwise_or(nb_of[:lo], nb_masks[j], out=nb_of[lo:hi])
    return sums, nb_of


def estimate_c_expansion(aug: AugmentationMap, g: PopulationGraph) -> ExpansionReport:
    """Largest c for which every qualifying subset expands by factor c per class.

    Qualifying subsets hold at most half of each class's mass; subsets whose
    neighborhood already covers a class impose no constraint there.

    Exact, by one enumeration per NB component.  Augmentation sets are
    class-invariant, so each component C lies inside one class k and
    NB(S) = union of NB(S & C) over components.  A subset's class-k ratio
    nb/s = (sum_i nb_i) / (sum_i s_i) over its parts in the separate
    components is a mediant of the parts' ratios nb_i / s_i, so it is at
    least the smallest of them.  Every part is itself a qualifying subset
    (s_i <= s), and constrained wherever the whole is (nb_i <= nb), so the
    minimum over all subsets is reached inside one component.  Each component
    C enumerates its 2^|C| subsets against its class total T_k; raises
    SizeLimitError when a component has more than COMPONENT_SUBSET_CAP
    vertices.  checked_subsets counts qualifying nonempty subsets per
    component.
    """
    components = _nb_components(aug)
    largest = max(len(comp) for comp in components)
    if largest > COMPONENT_SUBSET_CAP:
        raise SizeLimitError(
            f"NB component of {largest} vertices exceeds the exhaustive cap {COMPONENT_SUBSET_CAP}"
        )
    deg = g.degrees()
    totals = g.class_masses()
    c_hat = C_HAT_CAP
    checked = 0
    for comp in components:
        total = totals[g.labels[comp[0]]]
        sums, nb_of = _subset_tables(deg[comp][None, :], _nb_masks(aug, comp))
        mass = sums[0]
        qualifying = mass <= total / 2 + MASS_TOL
        qualifying[0] = False
        idx = np.nonzero(qualifying)[0]
        checked += len(idx)
        s_mass = mass[idx]
        nb_mass = mass[nb_of[idx]]
        constrained = (s_mass > MASS_TOL) & (nb_mass < total - MASS_TOL)
        if constrained.any():
            c_hat = min(c_hat, float((nb_mass[constrained] / s_mass[constrained]).min()))
    return ExpansionReport(c_hat=c_hat, checked_subsets=checked, exhaustive=True)


def dac_error(f: Prediction, aug: AugmentationMap, g: PopulationGraph) -> float:
    """Mass of vertices whose augmentation set crosses a predicted boundary."""
    labels = f.hard_labels()
    deg = g.degrees()
    bad = np.array([any(labels[v] != labels[x] for v in aug.sets[x]) for x in range(g.size)])
    return float(deg[bad].sum())


def dac_error_family(f_family, aug: AugmentationMap, g: PopulationGraph) -> float:
    return max(dac_error(f, aug, g) for f in f_family)


def theorem5_check(f_family, aug: AugmentationMap, g: PopulationGraph):
    """Audit mu(family) <= max(2 / (c - 1), 2) nu(family) under c-expansion.

    Members whose minority set exceeds half of some class are skipped with a
    marker (the expansion argument only applies to qualifying minority sets).
    Returns (mu, bound, verdict_string).
    """
    from .clustering_audit import halves_condition, majority_label

    if not f_family:
        raise DomainError("empty prediction family")
    try:
        report = estimate_c_expansion(aug, g)
    except SizeLimitError:
        return math.nan, math.nan, "not-applicable: component above the exhaustive cap"
    if report.c_hat <= 1.0:
        return math.nan, math.nan, f"bound-undefined: c_hat={report.c_hat!r} <= 1"
    mu = 0.0
    nu = 0.0
    audited = 0
    for f in f_family:
        maj = majority_label(f, g)
        if not halves_condition(maj, g):
            continue
        audited += 1
        mu = max(mu, maj.minority_mass)
        nu = max(nu, dac_error(f, aug, g))
    if audited == 0:
        return math.nan, math.nan, "not-applicable: every member skipped"
    bound = max(2.0 / (report.c_hat - 1.0), 2.0) * nu
    verdict = "pass" if mu <= bound + VERDICT_SLACK else "fail"
    return mu, bound, verdict


def _constant_expansion_masses(aug: AugmentationMap, g: PopulationGraph):
    """(P(S), P(NB(S))) of every nonempty subset S holding at most half of
    each class's mass, from one whole-graph enumeration."""
    n = g.size
    if n > EXHAUSTIVE_SUBSET_CAP:
        raise DomainError(f"|X|={n} exceeds the exhaustive cap {EXHAUSTIVE_SUBSET_CAP}")
    deg = g.degrees()
    class_mass, nb_of = _subset_tables(
        deg * (g.labels[None, :] == np.arange(g.num_classes)[:, None]), _nb_masks(aug, range(n))
    )
    totals = class_mass[:, -1]
    total_mass = class_mass.sum(axis=0)
    qualifying = np.all(class_mass <= totals[:, None] / 2 + MASS_TOL, axis=0)
    qualifying[0] = False
    idx = np.nonzero(qualifying)[0]
    return total_mass[idx], total_mass[nb_of[idx]]


def _expands(s_mass: np.ndarray, nb_mass: np.ndarray, q: float, xi: float) -> bool:
    """Whether every listed subset of mass >= q grows by more than min(P(S), xi)."""
    keep = s_mass >= q - MASS_TOL
    s_mass = s_mass[keep]
    return bool(np.all(nb_mass[keep] > np.minimum(s_mass, xi) + s_mass))


def constant_expansion_check(aug: AugmentationMap, g: PopulationGraph, q: float, xi: float) -> bool:
    """(q, xi)-constant expansion: every qualifying subset with mass >= q grows
    by more than min(P(S), xi)."""
    return _expands(*_constant_expansion_masses(aug, g), q, xi)


def expansion_implication_check(aug: AugmentationMap, g: PopulationGraph, xis=(0.05, 0.1, 0.2)) -> dict:
    """Probe that c-expansion at the measured c_hat implies
    (xi / (c_hat - 1), xi)-constant expansion for each probed xi.

    Not applicable (no probes, and a "reason") when c_hat <= 1 or when the
    graph is above the whole-graph cap of the constant-expansion check.  The
    probes share one enumeration of the graph's subsets.
    """
    report = estimate_c_expansion(aug, g)
    out = {"c_hat": report.c_hat, "probes": {}}
    if report.c_hat <= 1.0:
        out["applicable"] = False
        out["reason"] = f"c_hat={report.c_hat!r} <= 1"
        return out
    if g.size > EXHAUSTIVE_SUBSET_CAP:
        out["applicable"] = False
        out["reason"] = f"|X|={g.size} above the whole-graph cap {EXHAUSTIVE_SUBSET_CAP}"
        return out
    out["applicable"] = True
    masses = _constant_expansion_masses(aug, g)
    # probe marginally inside the feasible region so that attained-infimum
    # equalities in c_hat do not flip a strict comparison
    c_eff = report.c_hat * (1.0 - 1e-9) if math.isfinite(report.c_hat) else C_HAT_CAP
    for xi in xis:
        q = xi / (c_eff - 1.0)
        out["probes"][xi] = _expands(*masses, q=q, xi=xi)
    return out


# ---------------------------------------------------------------------------
# all-layer and robust margins


@dataclass(frozen=True)
class PerturbationSolverConfig:
    """Random restarts of the margin descent: each runs 4 penalty rounds of
    200 steps of size 0.05, with penalty weights 1, 10, 100 and 1000."""

    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 4:
            raise InvalidConfigError("perturbation solver needs at least 4 restarts")


@dataclass(frozen=True)
class MarginResult:
    """value is the layerwise-perturbation norm; exact=False flags a descent
    upper bound whose certificate delta verifiably flips the argmax."""

    value: float
    exact: bool
    delta: tuple


def _uniquely_argmax(scores: np.ndarray, y: int) -> bool:
    return bool(np.all(np.delete(scores, y) < scores[y]))


def all_layer_margin(model: StudentModel, x, y: int, solver: PerturbationSolverConfig | None = None) -> MarginResult:
    """Minimum norm of layerwise perturbations that flip the prediction off y.

    Exact closed form for linear models; projected-descent upper bound with
    multiple restarts (plus an output-layer fallback) for 1-hidden-layer nets.
    """
    x = np.asarray(x, dtype=float)
    if model.architecture == "table":
        raise DomainError("all-layer margins are defined for parametric models only")
    scores = model.forward(x[None, :])[0]
    K = model.num_classes
    if not 0 <= y < K:
        raise DomainError(f"class {y} outside [0, {K})")
    if not _uniquely_argmax(scores, y):
        return MarginResult(value=0.0, exact=True, delta=(np.zeros(K),))
    if model.architecture == "linear":
        norm_x = float(np.linalg.norm(x))
        gaps = scores[y] - np.delete(scores, y)
        value = float(gaps.min()) / (math.sqrt(2.0) * norm_x)
        k_star = int(np.argmin(gaps))
        k_star = k_star if k_star < y else k_star + 1
        step = (float(gaps.min()) / 2.0 + 1e-12) / norm_x
        delta = np.zeros(K)
        delta[k_star] = step
        delta[y] = -step
        return MarginResult(value=value, exact=True, delta=(delta,))
    if solver is None:
        solver = PerturbationSolverConfig()
    return _mlp_margin_descent(model, x, y, solver)


def _mlp_perturbed_forward(model: StudentModel, x, d1, d2, d3):
    a1, a2 = model._unpack()
    n0 = float(np.linalg.norm(x))
    u1 = a1 @ x + d1 * n0
    n1 = float(np.linalg.norm(u1))
    u2 = np.tanh(u1) + d2 * n1
    n2 = float(np.linalg.norm(u2))
    u3 = a2 @ u2 + d3 * n2
    return u1, u2, u3, n0, n1, n2


def _mlp_flips(model: StudentModel, x, y: int, delta) -> bool:
    _, _, u3, *_ = _mlp_perturbed_forward(model, x, *delta)
    return bool(np.max(np.delete(u3, y)) > u3[y])


def _mlp_margin_descent(model: StudentModel, x, y: int, solver: PerturbationSolverConfig) -> MarginResult:
    a1, a2 = model._unpack()
    h = a1.shape[0]
    K = a2.shape[0]
    rng = np.random.default_rng(solver.seed)
    best_value = math.inf
    best_delta = None

    def certify(delta):
        """Scale delta just past the decision boundary; returns (norm, scaled) or None."""
        nonlocal best_value, best_delta
        lo, hi = 0.0, 1.0
        if not _mlp_flips(model, x, y, delta):
            grow = 1.0
            while grow < 1e6:
                grow *= 2.0
                if _mlp_flips(model, x, y, tuple(grow * d for d in delta)):
                    hi = grow
                    lo = grow / 2.0
                    break
            else:
                return
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if _mlp_flips(model, x, y, tuple(mid * d for d in delta)):
                hi = mid
            else:
                lo = mid
        scaled = tuple(hi * d for d in delta)
        norm = math.sqrt(sum(float(np.sum(d**2)) for d in scaled))
        if norm < best_value:
            best_value = norm
            best_delta = scaled

    # output-layer-only fallback: exact attack on the last layer
    u1, u2, u3, n0, n1, n2 = _mlp_perturbed_forward(model, x, np.zeros(h), np.zeros(h), np.zeros(K))
    if n2 > 0:
        gaps = u3[y] - np.delete(u3, y)
        k_star = int(np.argmin(gaps))
        k_star = k_star if k_star < y else k_star + 1
        step = (float(gaps.min()) / 2.0 + 1e-12) / n2
        d3 = np.zeros(K)
        d3[k_star] = step
        d3[y] = -step
        certify((np.zeros(h), np.zeros(h), d3))

    for restart in range(solver.restarts):
        scale = 10.0 ** rng.uniform(-2, 0)
        d1 = scale * rng.standard_normal(h)
        d2 = scale * rng.standard_normal(h)
        d3 = scale * rng.standard_normal(K)
        for rho in (1.0, 10.0, 100.0, 1000.0):
            for _ in range(200):
                u1, u2, u3, n0, n1, n2 = _mlp_perturbed_forward(model, x, d1, d2, d3)
                others = np.delete(u3, y)
                k_hat = int(np.argmax(others))
                k_hat = k_hat if k_hat < y else k_hat + 1
                gap = float(u3[y] - u3[k_hat])
                g1 = 2.0 * d1
                g2 = 2.0 * d2
                g3 = 2.0 * d3
                if gap > -1e-9:
                    gu3 = np.zeros(K)
                    gu3[y] = 1.0
                    gu3[k_hat] = -1.0
                    gu3 *= 2.0 * rho * max(gap + 1e-6, 0.0)
                    gu2 = a2.T @ gu3
                    if n2 > 0:
                        gu2 += float(d3 @ gu3) * (u2 / n2)
                    gu1 = (1.0 - np.tanh(u1) ** 2) * gu2
                    if n1 > 0:
                        gu1 += float(d2 @ gu2) * (u1 / n1)
                    g3 += n2 * gu3
                    g2 += n1 * gu2
                    g1 += n0 * gu1
                d1 -= 0.05 * g1
                d2 -= 0.05 * g2
                d3 -= 0.05 * g3
        certify((d1, d2, d3))

    if best_delta is None:
        raise NumericError("margin descent found no flipping perturbation")
    return MarginResult(value=best_value, exact=False, delta=best_delta)


def robust_margin(
    model: StudentModel,
    features: np.ndarray,
    vertex: int,
    aug: AugmentationMap,
    solver: PerturbationSolverConfig | None = None,
) -> MarginResult:
    """Worst all-layer margin over the augmentation set of a vertex, measured
    against the model's own prediction at that vertex."""
    features = np.asarray(features, dtype=float)
    y = int(np.argmax(model.forward(features[vertex][None, :])[0]))
    best = None
    for other in sorted(aug.sets[vertex]):
        res = all_layer_margin(model, features[other], y, solver)
        if best is None or res.value < best.value:
            best = res
    return best


def dac_class_membership(
    model: StudentModel,
    features: np.ndarray,
    points,
    aug: AugmentationMap,
    tau: float,
    solver: PerturbationSolverConfig | None = None,
) -> list:
    """Whether the robust margin clears tau at each given unlabeled point."""
    if tau <= 0:
        raise DomainError("tau must be positive")
    return [robust_margin(model, features, int(p), aug, solver).value >= tau for p in points]


def prop1_bound(weights_frobenius, d: int, tau: float, N: int, delta: float, p: int) -> float:
    """Two-term scale indicator for the consistency-error sample bound.

    Explicit constant 1 on each term, polylogarithmic factors dropped; this is
    a reported scale, never asserted as a true bound.
    """
    norms = [float(v) for v in weights_frobenius]
    if len(norms) != p:
        raise DomainError(f"expected {p} layer norms, got {len(norms)}")
    if d <= 0 or tau <= 0 or N < 1 or p < 1 or any(v <= 0 for v in norms):
        raise DomainError("all inputs must be positive")
    if not 0 < delta < 1:
        raise DomainError("delta must be in (0, 1)")
    term1 = sum(norms) * math.sqrt(d) / (tau * math.sqrt(N))
    term2 = math.sqrt((math.log(1.0 / delta) + p * math.log(N)) / N)
    return term1 + term2
