"""Exhaustive census of valid characteristic functions over a poset.

Labels range over the primitive sign-canonical vectors with entries in
[-B, B].  That box is a user choice: the full label space is infinite and
no finite bound can be complete, so census counts are always relative to B.

Enumeration is exact backtracking facet by facet, in an order compatible
with the face ordering by reverse inclusion, pruning a branch as soon as
some face has all of its facets labeled and the labels fail the
direct-summand condition.  Results are deterministic: identical inputs give
identical outputs.

Deduplication works on orbits of the poset's automorphism group Aut(P),
which is found once per census, lazily, by the isomorphism search of
``classify`` on the bare poset.  A strong class is one Aut(P)-orbit of
labelings.  A weak class joins the strong classes whose labelings share a
GL(k, Z) x sign normal form (``lattice.gl_sign_normal_form``) after some
automorphism, so the orbit's least form is its key.  There is no bound on
the poset's size; the work grows with |Aut(P)| times the number of strong
classes, and the search stops once every labeling has a class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .charpair import CharacteristicPair
from .classify import poset_automorphisms
from .faceposet import FacePoset
from .lattice import Matrix, PrimitiveVector, gl_sign_normal_form, is_direct_summand

DEFAULT_BUDGET = 10 ** 9

Labeling = tuple[tuple[int, ...], ...]  # label per facet, in facet order
Permutation = tuple[int, ...]  # facet positions


class CensusError(ValueError):
    pass


class BudgetExceededError(CensusError):
    def __init__(self, estimate: int, budget: int):
        super().__init__(
            f"estimated search space {estimate} exceeds budget {budget}"
        )
        self.estimate = estimate
        self.budget = budget


def primitive_vectors_in_box(k: int, bound: int) -> list[PrimitiveVector]:
    """All primitive sign-canonical vectors with entries in [-bound, bound]."""
    if k < 1 or bound < 1:
        raise CensusError("need k >= 1 and bound >= 1 for a nonempty label box")
    out = []
    for t in itertools.product(range(-bound, bound + 1), repeat=k):
        if not any(t):
            continue
        g = 0
        for x in t:
            g = gcd(g, x)
        if g != 1:
            continue
        v = PrimitiveVector(t)
        if v.coords == t:
            out.append(v)
    return sorted(out, key=lambda v: v.coords)


@dataclass(frozen=True)
class CensusSpec:
    poset: FacePoset
    k: int
    entry_bound: int
    dedup: str = "none"
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.k < 1:
            raise CensusError("torus rank must be >= 1")
        if self.entry_bound < 1:
            raise CensusError("entry bound must be >= 1 (no primitive vectors)")
        if self.dedup not in ("none", "strong", "weak"):
            raise CensusError(f"unknown dedup mode {self.dedup!r}")
        if self.budget < 1:
            raise CensusError("budget must be positive")


@dataclass(frozen=True)
class CensusClass:
    representative: Labeling
    size: int


@dataclass(frozen=True)
class CensusResult:
    total_valid: int
    classes: tuple[CensusClass, ...]
    faces_per_codim: dict[int, int]
    euler_count: int
    facet_order: tuple[str, ...]

    def pair_for(self, spec: CensusSpec, labeling: Labeling) -> CharacteristicPair:
        return CharacteristicPair(
            spec.poset,
            spec.k,
            {f: PrimitiveVector(v) for f, v in zip(self.facet_order, labeling)},
        )


def enumerate_labelings(spec: CensusSpec) -> list[Labeling]:
    """All valid labelings in lexicographic vocabulary order.

    Whether a face passes depends only on the vocabulary vectors on its facet
    star, so each summand test is memoised on the sorted tuple of their
    vocabulary indices.  The depth-first search keeps an explicit stack, so
    posets with more facets than the recursion limit are fine.
    """
    poset = spec.poset
    ext = poset.linear_extension()
    facets = [f for f in ext if poset.codim(f) == 1]
    if not facets:
        return [()]
    vocab = [v.coords for v in primitive_vectors_in_box(spec.k, spec.entry_bound)]
    pos = {f: i for i, f in enumerate(facets)}
    # Every face is checked the moment its last facet gets a label.
    check_at: list[list[list[int]]] = [[] for _ in facets]
    for f in poset.ids():
        star = poset.facets_containing(f)
        if not star:
            continue
        positions = [pos[x] for x in star]
        check_at[max(positions)].append(positions)

    summand: dict[tuple[int, ...], bool] = {}
    chosen = [-1] * len(facets)  # vocabulary index per facet; the stack

    def passes(i: int) -> bool:
        for positions in check_at[i]:
            if len(positions) > spec.k:
                return False
            key = tuple(sorted([chosen[p] for p in positions]))
            ok = summand.get(key)
            if ok is None:
                ok = summand[key] = is_direct_summand(tuple(vocab[j] for j in key))
            if not ok:
                return False
        return True

    out: list[Labeling] = []
    last = len(facets) - 1
    i = 0
    while i >= 0:
        chosen[i] += 1
        if chosen[i] == len(vocab):
            chosen[i] = -1
            i -= 1
        elif passes(i):
            if i == last:
                out.append(tuple(vocab[j] for j in chosen))
            else:
                i += 1
    return out


def _faces_per_codim(poset: FacePoset) -> dict[int, int]:
    counts: dict[int, int] = {}
    for f in poset.ids():
        c = poset.codim(f)
        counts[c] = counts.get(c, 0) + 1
    return counts


def enumerate_census(spec: CensusSpec) -> CensusResult:
    """Run the census; identical specs give identical results."""
    report = spec.poset.validate()
    if not report.valid:
        raise CensusError("poset is invalid; run validation for details")
    ext = spec.poset.linear_extension()
    facets = tuple(f for f in ext if spec.poset.codim(f) == 1)
    vocab = primitive_vectors_in_box(spec.k, spec.entry_bound)
    estimate = len(vocab) ** len(facets)
    if estimate > spec.budget:
        raise BudgetExceededError(estimate, spec.budget)

    labelings = enumerate_labelings(spec)
    classes = _deduplicate(
        spec.dedup, labelings, _facet_permutations(spec.poset, facets)
    )
    faces_per_codim = _faces_per_codim(spec.poset)
    euler_codim = min(spec.k, spec.poset.dim_orbit)
    return CensusResult(
        total_valid=len(labelings),
        classes=classes,
        faces_per_codim=faces_per_codim,
        euler_count=faces_per_codim.get(euler_codim, 0),
        facet_order=facets,
    )


def _facet_permutations(
    poset: FacePoset, facets: tuple[str, ...]
) -> Iterator[Permutation]:
    """Aut(P) as facet-position permutations, found lazily.

    Image i of a permutation is the position of the facet that the
    automorphism sends facet i to, so ``tuple(lab[p] for p in perm)`` is the
    labeling moved by the automorphism.  Automorphisms that differ only off
    the facets give the same permutation twice, which costs time only.
    """
    pos = {f: i for i, f in enumerate(facets)}
    for phi in poset_automorphisms(poset):
        yield tuple(pos[phi[f]] for f in facets)


def _deduplicate(
    dedup: str, labelings: list[Labeling], automorphisms: Iterator[Permutation]
) -> tuple[CensusClass, ...]:
    """Group labelings into classes via the poset's automorphism group.

    The strong class of L is its Aut(P)-orbit {L o sigma}: automorphisms keep
    the label box and validity, so every image is itself a labeling.  A weak
    class is a union of strong classes, keyed by the least GL(k, Z) x sign
    normal form of a member's k x n label matrix.  Permutations are drawn
    from ``automorphisms`` only as needed and reused for later orbits; once
    every labeling has a class the rest of the group is never generated.
    """
    if dedup == "none":
        return tuple(CensusClass(lab, 1) for lab in labelings)

    # Each element of Aut(P) found so far, as a map from a labeling to its
    # image.  A permutation of fewer than two positions is the identity.
    group: list[Callable[[Labeling], Labeling]] = []

    def group_elements() -> Iterator[Callable[[Labeling], Labeling]]:
        yield from group
        for perm in automorphisms:
            group.append(itemgetter(*perm) if len(perm) > 1 else lambda lab: lab)
            yield group[-1]

    orbit_of: dict[Labeling, Optional[int]] = dict.fromkeys(labelings)
    unassigned = len(labelings)
    weak: dict[Matrix, list] = {}  # normal form -> [representative, size]
    classes: list[CensusClass] = []
    for index, lab in enumerate(labelings):
        if orbit_of[lab] is not None:
            continue
        orbit: list[Labeling] = []
        for move in group_elements():
            image = move(lab)
            owner = orbit_of.get(image, -1)
            if owner is None:
                orbit_of[image] = index
                orbit.append(image)
                unassigned -= 1
                if not unassigned:
                    break
            elif owner != index:
                raise RuntimeError(
                    "internal: an automorphism moves a labeling out of the census"
                    if owner == -1
                    else "internal: an automorphism joins two distinct orbits"
                )
        if orbit_of[lab] != index:
            raise RuntimeError("internal: a labeling is missing from its own orbit")
        rep = min(orbit)
        if dedup == "strong":
            classes.append(CensusClass(rep, len(orbit)))
            continue
        key = min(gl_sign_normal_form(tuple(zip(*member))) for member in orbit)
        entry = weak.setdefault(key, [rep, 0])
        entry[0] = min(entry[0], rep)
        entry[1] += len(orbit)
    classes.extend(CensusClass(rep, size) for rep, size in weak.values())
    return tuple(sorted(classes, key=lambda c: c.representative))
