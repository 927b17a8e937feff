"""Expansion-based augmentations and consistency error.

Augmentation sets live inside ground-truth classes; two vertices are
neighbors when their augmentation sets overlap.  Expansion strength is the
worst-case per-class growth factor of neighborhoods over small subsets.  It
is exact: every subset of each connected component of the neighbor relation
is enumerated (components of up to 20 vertices; above that the estimate is a
report with no c, not an exception).  The constant-expansion
probes mix classes through the total mass, so they enumerate the subsets of
the whole graph (up to 18 vertices).  Both build their subset tables by
doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jsonio
from .clustering_audit import audit_record, majority_labels, mask_masses
from .errors import DomainError, InvalidAugmentationError, InvalidConfigError
from .graph_core import PopulationGraph, _freeze
from .spectral_rkd import family_scores, is_integer

EXHAUSTIVE_SUBSET_CAP = 18  # whole-graph enumeration (constant expansion)
COMPONENT_SUBSET_CAP = 20  # per-NB-component enumeration (c-expansion)
C_HAT_CAP = 1e18
MASS_TOL = 1e-12


@dataclass(frozen=True)
class AugmentationMap:
    """Per-vertex augmentation sets A(x); `validate` checks x in A(x), A(x)
    strictly larger than {x}, and A(x) inside x's ground-truth class."""

    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(int(v) for v in s) for s in self.sets))

    @property
    def size(self) -> int:
        return len(self.sets)

    @cached_property
    def pairs(self) -> tuple:
        """(x, v) over every v in A(x) other than x, as two read-only index arrays, built once per map."""
        xv = np.array([(x, v) for x, aset in enumerate(self.sets) for v in aset if v != x], dtype=int)
        return _freeze(xv.reshape(-1, 2).T)

    def validate(self, g: PopulationGraph) -> None:
        if self.size != g.size:
            raise InvalidAugmentationError(f"{self.size} augmentation sets for {g.size} vertices")
        for x, aset in enumerate(self.sets):
            if x not in aset:
                raise InvalidAugmentationError(f"vertex {x} missing from its own augmentation set")
            if aset == {x}:
                raise InvalidAugmentationError(f"augmentation set of vertex {x} is the bare singleton")
            if any(g.labels[v] != g.labels[x] for v in aset):
                raise InvalidAugmentationError(f"augmentation of vertex {x} crosses a class boundary")


def make_augmentation(sets, g: PopulationGraph) -> AugmentationMap:
    """Build and validate an augmentation map."""
    aug = AugmentationMap(sets=tuple(sets))
    aug.validate(g)
    return aug


def chain_augmentation(g: PopulationGraph) -> AugmentationMap:
    """A(x) = {x, next vertex in x's class} cyclically within each class: the split chain of one part."""
    return split_chain_augmentation(g, 1)


def split_chain_augmentation(g: PopulationGraph, parts: int = 2) -> AugmentationMap:
    """Up to `parts` disjoint sub-chains per class: a weak augmentation, no expansion across parts."""
    if not (is_integer(parts) and parts >= 1):
        raise InvalidConfigError(f"augmentation.parts={parts!r} must be an integer >= 1")
    sets = [None] * g.size
    for k in range(g.num_classes):
        members = [int(v) for v in g.class_members(k)]
        chunk = max(2, -(-len(members) // parts))
        for start in range(0, len(members), chunk):
            piece = members[start : start + chunk]
            if len(piece) == 1:
                sets[piece[0]] = {piece[0], members[start - 1]}
                continue
            for i, v in enumerate(piece):
                sets[v] = {v, piece[(i + 1) % len(piece)]}
    return AugmentationMap(sets=tuple(sets))


def knn_augmentation(g: PopulationGraph, points, k: int = 2) -> AugmentationMap:
    """A(x) = x and its k nearest points of x's class."""
    if points is None:
        raise InvalidConfigError("knn augmentation needs point coordinates")
    if not is_integer(k):
        raise InvalidConfigError(f"augmentation.k={k!r} must be an integer")
    sets = []
    for x in range(g.size):
        same = np.nonzero(g.labels == g.labels[x])[0]
        order = same[np.argsort(np.linalg.norm(points[same] - points[x], axis=1))]
        sets.append(set(order[: k + 1].tolist()) | {x})
    return make_augmentation(sets, g)


def load_augmentation(path, g: PopulationGraph) -> AugmentationMap:
    """Load {"sets": [[...vertex ids...], ...]} aligned to graph vertex order."""
    data = jsonio.load(path)
    return make_augmentation(data["sets"], g)


@dataclass(frozen=True)
class ExpansionReport:
    """c_hat with the number of qualifying subsets checked, by an exact
    enumeration (exhaustive, no reason); or, above the enumeration cap, no
    c_hat, nothing checked, and the reason."""

    c_hat: float | None
    checked_subsets: int
    exhaustive: bool
    reason: str


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
    C enumerates its 2^|C| subsets against its class total T_k; when a
    component has more than COMPONENT_SUBSET_CAP vertices, nothing is
    enumerated and the report says so.  checked_subsets counts qualifying
    nonempty subsets per component.
    """
    components = _nb_components(aug)
    largest = max(len(comp) for comp in components)
    if largest > COMPONENT_SUBSET_CAP:
        return ExpansionReport(c_hat=None, checked_subsets=0, exhaustive=False, reason=(
            f"NB component of {largest} vertices exceeds the exhaustive cap {COMPONENT_SUBSET_CAP}"))
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
    return ExpansionReport(c_hat=c_hat, checked_subsets=checked, exhaustive=True, reason="")


def dac_error(labels: np.ndarray, aug: AugmentationMap, g: PopulationGraph) -> np.ndarray:
    """Mass of the vertices whose augmentation set crosses a boundary of the
    predicted hard labels, for each row of an (R, |X|) label stack: one
    comparison over every member's (x, v) pairs, one bincount of the
    crossing ones per (member, x)."""
    xs, vs = aug.pairs
    R, n = labels.shape
    crossing = labels[:, xs] != labels[:, vs]
    codes = (np.arange(R)[:, None] * n + xs)[crossing]
    return mask_masses(np.bincount(codes, minlength=R * n).reshape(R, n) > 0, g.degrees())


def theorem5_check(f_family, aug: AugmentationMap, g: PopulationGraph, c_hat: float | None) -> dict:
    """Audit mu(family) <= max(2 / (c - 1), 2) nu(family) under c-expansion,
    with c = c_hat the caller's estimate_c_expansion(aug, g).c_hat, None above
    the exhaustive cap, as an audit_record with c_hat and nu (the family's
    worst DAC error).  The family is read by `family_scores` and labeled once.

    Members whose minority set exceeds half of some class are skipped (the
    expansion argument only applies to qualifying minority sets).
    """
    scores = family_scores(f_family, g)
    if c_hat is None:
        return audit_record(None, None, "not-applicable: component above the exhaustive cap", c_hat=c_hat, nu=None)
    if c_hat <= 1.0:
        return audit_record(None, None, f"bound-undefined: c_hat={c_hat!r} <= 1", c_hat=c_hat, nu=None)
    maj = majority_labels(scores, g)
    audited = maj.halves
    if not audited.any():
        return audit_record(None, None, "not-applicable: every member skipped", c_hat=c_hat, nu=None)
    mu = float(maj.minority_mass[audited].max())
    nu = float(dac_error(maj.predicted[audited], aug, g).max())
    return audit_record(mu, max(2.0 / (c_hat - 1.0), 2.0) * nu, c_hat=c_hat, nu=nu)


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


def expansion_implication_check(aug: AugmentationMap, g: PopulationGraph, report: ExpansionReport) -> dict:
    """Probe that c-expansion at c_hat, from the graph's estimate_c_expansion
    report, implies (xi / (c_hat - 1), xi)-constant expansion at xi = 0.05, 0.1
    and 0.2.

    Not applicable (no probes, and a "reason") when the report has no c_hat,
    when c_hat <= 1, or when the graph is above the whole-graph cap of the
    constant-expansion check.  The probes share one enumeration of the graph's
    subsets.
    """
    c_hat = report.c_hat
    if c_hat is None:
        reason = report.reason
    elif c_hat <= 1.0:
        reason = f"c_hat={c_hat!r} <= 1"
    elif g.size > EXHAUSTIVE_SUBSET_CAP:
        reason = f"|X|={g.size} above the whole-graph cap {EXHAUSTIVE_SUBSET_CAP}"
    else:
        masses = _constant_expansion_masses(aug, g)
        # probe marginally inside the feasible region so that attained-infimum
        # equalities in c_hat do not flip a strict comparison
        c_eff = c_hat * (1.0 - 1e-9) if math.isfinite(c_hat) else C_HAT_CAP
        probes = {xi: _expands(*masses, q=xi / (c_eff - 1.0), xi=xi) for xi in (0.05, 0.1, 0.2)}
        return {"probes": probes, "applicable": True}
    return {"probes": {}, "applicable": False, "reason": reason}
