"""Exhaustive census of valid characteristic functions over a poset.

Labels range over the primitive sign-canonical vectors with entries in
[-B, B].  That box is a user choice: the full label space is infinite and
no finite bound can be complete, so census counts are always relative to B.

The budget compares |box|^(number of facets) with the spec's budget before
any enumeration; |box| is counted by Moebius inversion, not listed.

Enumeration is exact backtracking facet by facet, in an order compatible
with the face ordering by reverse inclusion.  The labels allowed at a facet
are a bitmask over the box: the AND, over the faces that the facet
completes, of the labels that make that face pass the direct-summand test
given the labels already on its other facets.  One Hermite reduction of
those labels decides every label of the box at once: they must span a
summand, and a label passes when its coordinates in the quotient of Z^k by
their span have gcd 1.  The masks are memoised on the other facets' labels,
so a branch is cut the moment no label fits.
Results are deterministic: identical inputs give identical outputs.

Deduplication works on orbits of the poset's automorphism group Aut(P),
which is found once per census, lazily, by the isomorphism search of
``classify`` on the bare poset.  A strong class is one Aut(P)-orbit of
labelings.  A weak class joins the strong classes whose labelings share a
GL(k, Z) x sign normal form (``lattice.gl_sign_normal_form``) after some
automorphism, so the orbit's least form is its key.  Signed permutations
of the k coordinates permute the strong orbits and keep their keys, so the
orbits they join form one component and the key is computed once per
component, on its smallest orbit.  There is no bound on the poset's size;
the orbit search grows with |Aut(P)| times the number of strong classes and
stops once every labeling has a class.  The weak keys cost one normal form
per member of the smallest orbit of each component: on the stock posets
that is 27-37% of the labelings at k = 2 and 6-8% at k = 3, where there are
48 signed permutations instead of 8.
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
from .lattice import (
    Matrix,
    PrimitiveVector,
    canonical_sign,
    gl_sign_normal_form,
    # Not called here; perfbench's test_tracer_wraps_imported_names_and_
    # restores_them asserts that this name stays bound in census.
    is_direct_summand,  # noqa: F401
    summand_extension_mask,
)

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


def count_primitive_vectors_in_box(k: int, bound: int) -> int:
    """``len(primitive_vectors_in_box(k, bound))``, without building the box.

    By Moebius inversion over the gcd d of the entries, the nonzero vectors
    of the box with gcd 1 number sum_{d=1..bound} mu(d) * ((2*(bound//d) + 1)^k
    - 1), and half of them are sign-canonical.  The sieve for mu takes
    O(bound) steps and memory, so a bound of 10^7 or more is slow.
    """
    if k < 1 or bound < 1:
        raise CensusError("need k >= 1 and bound >= 1 for a nonempty label box")
    mu = [1] * (bound + 1)
    seen = bytearray(bound + 1)  # multiples of a prime already sieved
    for p in range(2, bound + 1):
        if seen[p]:
            continue
        for m in range(p, bound + 1, p):
            seen[m] = 1
            mu[m] = -mu[m]
        for m in range(p * p, bound + 1, p * p):
            mu[m] = 0
    total = sum(mu[d] * ((2 * (bound // d) + 1) ** k - 1) for d in range(1, bound + 1))
    return total // 2


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

    A face is checked at the position of its last facet.  Whether it passes
    depends only on the vocabulary indices on its facet star, so for each
    sorted tuple of indices on its other facets an ``int`` bitmask records
    which vocabulary indices pass the summand test there.  The candidates at
    a position are the AND of the masks of the faces checked there; a face
    with more than k facets leaves none.  Masks are filled lazily, each from
    one Hermite reduction of the other facets' labels
    (``lattice.summand_extension_mask``), and memoised.  The depth-first
    search walks set bits upward, so the output keeps the vocabulary order,
    and keeps an explicit stack, so posets with more facets than the
    recursion limit are fine.
    """
    poset = spec.poset
    ext = poset.linear_extension()
    facets = [f for f in ext if poset.codim(f) == 1]
    if not facets:
        return [()]
    vocab = [v.coords for v in primitive_vectors_in_box(spec.k, spec.entry_bound)]
    pos = {f: i for i, f in enumerate(facets)}
    # Per position, the other facets of each face checked there; None when
    # one of those faces has more facets than the torus rank.
    check_at: list[Optional[list[list[int]]]] = [[] for _ in facets]
    for f in poset.ids():
        star = poset.facets_containing(f)
        if not star:
            continue
        positions = sorted(pos[x] for x in star)
        last = positions.pop()
        if len(star) > spec.k:
            check_at[last] = None
        elif check_at[last] is not None:
            check_at[last].append(positions)

    masks: dict[tuple[int, ...], int] = {}

    last = len(facets) - 1
    chosen = [0] * last  # vocabulary index per facet above the last
    everything = (1 << len(vocab)) - 1

    def candidates(i: int) -> int:
        faces = check_at[i]
        if faces is None:
            return 0
        allowed = everything
        for others in faces:
            key = tuple(sorted([chosen[p] for p in others]))
            mask = masks.get(key)
            if mask is None:
                mask = masks[key] = summand_extension_mask(
                    tuple(vocab[x] for x in key), vocab
                )
            allowed &= mask
            if not allowed:
                break
        return allowed

    out: list[Labeling] = []
    untried = [0] * len(facets)  # candidate bits per position not yet tried
    untried[0] = candidates(0)
    i = 0
    while i >= 0:
        bits = untried[i]
        if i == last:
            prefix = tuple(vocab[j] for j in chosen)
            while bits:
                low = bits & -bits
                bits ^= low
                out.append(prefix + (vocab[low.bit_length() - 1],))
            i -= 1
        elif bits:
            low = bits & -bits
            untried[i] = bits ^ low
            chosen[i] = low.bit_length() - 1
            i += 1
            untried[i] = candidates(i)
        else:
            i -= 1
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
    # Counted, not built: the box has (2B+1)^k points, too many to list
    # before a refusal when B or k is large.
    box = count_primitive_vectors_in_box(spec.k, spec.entry_bound)
    estimate = box ** len(facets)
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
    the label box and validity, so every image is itself a labeling.
    Permutations are drawn from ``automorphisms`` only as needed and reused
    for later orbits; once every labeling has a class the rest of the group
    is never generated.

    A weak class is a union of strong classes, keyed by the least GL(k, Z) x
    sign normal form of a member's k x n label matrix.  A signed permutation
    of the k coordinates, followed by ``canonical_sign``, maps the census
    onto itself and commutes with Aut(P), so it permutes the strong orbits,
    and two orbits it joins have the same member forms and the same key.
    The key is therefore computed once per component that these joins make
    (``_weak_groups``), not once per orbit.
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
    orbits: list[list[Labeling]] = []
    for lab in labelings:
        if orbit_of[lab] is not None:
            continue
        index = len(orbits)
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
        orbits.append(orbit)
    if dedup == "strong":
        groups = [[orbit] for orbit in orbits]
    else:
        groups = _weak_groups(orbits, orbit_of)
    classes = [CensusClass(min(map(min, g)), sum(map(len, g))) for g in groups]
    return tuple(sorted(classes, key=lambda c: c.representative))


def _weak_groups(
    orbits: list[list[Labeling]], orbit_of: dict[Labeling, Optional[int]]
) -> list[list[list[Labeling]]]:
    """The strong orbits grouped by weak class, in order of first orbit.

    A union-find joins orbits along the generators of the signed coordinate
    permutations (negate the first coordinate; swap two neighbours), each
    applied label by label to an orbit's first member; the normal form then
    runs only on the smallest orbit of each component.  An image that is no
    census labeling joins nothing: joining only saves work, so the groups
    stay exact even on a set of labelings that those permutations do not
    map onto itself.
    """
    # The root of a component is its least orbit index.
    parent = list(range(len(orbits)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    labels = {x for orbit in orbits for x in orbit[0]}
    k = len(next(iter(labels), ()))
    moves = [lambda v: (-v[0],) + v[1:]] + [
        lambda v, i=i: v[:i] + (v[i + 1], v[i]) + v[i + 2 :] for i in range(k - 1)
    ]
    for move in moves:
        image_of = {x: canonical_sign(move(x)) for x in labels}
        for i, orbit in enumerate(orbits):
            j = orbit_of.get(tuple(image_of[x] for x in orbit[0]))
            if j is not None:
                a, b = root(i), root(j)
                parent[max(a, b)] = min(a, b)

    components: dict[int, list[list[Labeling]]] = {}
    for i, orbit in enumerate(orbits):
        components.setdefault(root(i), []).append(orbit)
    weak: dict[Matrix, list[list[Labeling]]] = {}
    for members in components.values():
        smallest = min(members, key=len)
        key = ()  # the one labeling of a facet-free poset has no matrix
        if smallest[0]:
            key = min(gl_sign_normal_form(tuple(zip(*lab))) for lab in smallest)
        weak.setdefault(key, []).extend(members)
    return list(weak.values())
