"""Exhaustive census of valid characteristic functions over a poset.

Labels range over the primitive sign-canonical vectors with entries in
[-B, B].  That box is a user choice: the full label space is infinite and
no finite bound can be complete, so census counts are always relative to B.

The budget compares |box|^(number of facets) with the spec's budget before
any enumeration; |box| is counted by Moebius inversion, not listed, in
O(B^(2/3)) steps, so even a bound of 10^9 is refused in about a second.
Listing the box walks only its sign-canonical points, at most (2B+1)^k,
and for k >= 2 and at least one facet that bound is held to the budget as
well.  At k = 1 the box is {(1,)} whatever B is, and nothing walks the
line.

Enumeration is exact backtracking facet by facet, in facet-id order.  The
labels allowed at a facet are a bitmask over the box: the AND, over the
faces that the facet completes, of the labels that make that face pass the
direct-summand test given the labels already on its other facets.  One
Hermite reduction of those labels decides every label of the box at once:
they must span a summand, and a label passes when its coordinates in the
quotient of Z^k by their span have gcd 1.  A branch is cut the moment no
label fits.  Each face reads its other facets' box indices through an
``itemgetter`` built at set-up; the masks are memoised on that raw key
first and on the sorted index tuple second, so each multiset of labels
costs one reduction and no search node sorts anything.
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
from typing import Callable, Iterator, NamedTuple, Optional

from .charpair import CharacteristicPair
from .classify import poset_automorphisms
from .faceposet import FacePoset, bits
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


def primitive_vectors_in_box(k: int, bound: int) -> list[tuple[int, ...]]:
    """All primitive sign-canonical vectors with entries in [-bound, bound],
    in sorted order.

    Only sign-canonical points are walked: those whose first nonzero entry,
    at position i, runs over 1..bound.  More leading zeros sort first, so
    the groups go from i = k - 1, which is just (0, ..., 0, 1), down to 0.
    """
    if k < 1 or bound < 1:
        raise CensusError("need k >= 1 and bound >= 1 for a nonempty label box")
    out = [(0,) * (k - 1) + (1,)]
    entries = range(-bound, bound + 1)
    for i in range(k - 2, -1, -1):
        zeros = (0,) * i
        walk = itertools.product(range(1, bound + 1), *[entries] * (k - 1 - i))
        out += [zeros + t for t in walk if gcd(*t) == 1]
    return out


def count_primitive_vectors_in_box(k: int, bound: int) -> int:
    """``len(primitive_vectors_in_box(k, bound))``, without building the box.

    By Moebius inversion over the gcd d of the entries, the nonzero vectors
    of the box with gcd 1 number sum_{d=1..bound} mu(d) * ((2*(bound//d) + 1)^k
    - 1), and half of them are sign-canonical.  The terms with equal
    bound//d form O(sqrt(bound)) blocks, each weighted by a difference of the
    Mertens function M(x) = sum_{d<=x} mu(d); ``_mertens`` gets M in
    O(bound^(2/3)) steps and memory, so a bound of 10^9 takes about a second.
    """
    if k < 1 or bound < 1:
        raise CensusError("need k >= 1 and bound >= 1 for a nonempty label box")
    mertens = _mertens(bound)
    total = 0
    below = 0  # M(d - 1)
    d = 1
    while d <= bound:
        q = bound // d
        last = bound // q  # the last d' with bound // d' == q
        upto = mertens(last)
        total += (upto - below) * ((2 * q + 1) ** k - 1)
        below = upto
        d = last + 1
    return total // 2


def _mertens(bound: int) -> Callable[[int], int]:
    """M(x) = sum_{d<=x} mu(d), for every x of the form bound // m.

    mu is sieved up to about bound^(2/3); above that, M comes from
    sum_{d<=x} M(x // d) = 1, with the d of equal x // d taken as one block
    and each M(x) memoised.  Every x // d of such an x is again of the form
    bound // m, so the memo holds O(bound^(1/3)) values.
    """
    limit = min(bound, int(bound ** (2 / 3)) + 1)
    mu = [1] * (limit + 1)
    seen = bytearray(limit + 1)  # multiples of a prime already sieved
    for p in range(2, limit + 1):
        if seen[p]:
            continue
        for m in range(p, limit + 1, p):
            seen[m] = 1
            mu[m] = -mu[m]
        for m in range(p * p, limit + 1, p * p):
            mu[m] = 0
    mu[0] = 0
    small = list(itertools.accumulate(mu))
    large: dict[int, int] = {}

    def mertens(x: int) -> int:
        if x <= limit:
            return small[x]
        if x not in large:
            total = 1
            d = 2
            while d <= x:
                q = x // d
                last = x // q
                total -= (last - d + 1) * mertens(q)
                d = last + 1
            large[x] = total
        return large[x]

    return mertens


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


class CensusClass(NamedTuple):
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
    depends only on the vocabulary indices on its facet star, so an ``int``
    bitmask per multiset of indices on its other facets records which
    vocabulary indices pass the summand test there.  The candidates at a
    position are the AND of the masks of the faces checked there; a face
    with more than k facets leaves none, and a face whose only facet is the
    current one is skipped, since every box vector is primitive.  Every
    other face gets, at set-up, an ``operator.itemgetter`` of its other
    facets' positions, which reads their indices off the chosen ones: an
    index, or a tuple in position order.  Masks are memoised on that raw
    key; on a miss the sorted index tuple is looked up, and only when it is
    new too does one Hermite reduction of the other facets' labels
    (``lattice.summand_extension_mask``) fill it.  The depth-first search
    walks set bits upward, so the output keeps the vocabulary order, keeps
    the label prefix of each depth as a tuple, and keeps an explicit stack,
    so posets with more facets than the recursion limit are fine.
    """
    poset = spec.poset
    facets = poset.facets()
    if not facets:
        return [()]
    vocab = primitive_vectors_in_box(spec.k, spec.entry_bound)
    # Per position, a getter of the other facets' indices for each face
    # checked there; None when one of those faces has more facets than the
    # torus rank.
    check_at: list[Optional[list[itemgetter]]] = [[] for _ in facets]
    for star in poset.star_masks:
        if not star:
            continue
        # A facet's position is the number of facets numbered below it.
        positions = [(poset.facet_mask & ((1 << i) - 1)).bit_count() for i in bits(star)]
        last = positions.pop()
        if star.bit_count() > spec.k:
            check_at[last] = None
        elif positions and check_at[last] is not None:
            check_at[last].append(itemgetter(*positions))

    # Keyed by a getter's raw output and by sorted index tuples alike: both
    # name a multiset of indices, and an int j names the same one as (j,).
    masks: dict[object, int] = {}

    def mask_of(raw: object) -> int:
        key = (raw,) if isinstance(raw, int) else tuple(sorted(raw))
        mask = masks.get(key)
        if mask is None:
            mask = masks[key] = summand_extension_mask(
                tuple(vocab[x] for x in key), vocab
            )
        masks[raw] = mask
        return mask

    last = len(facets) - 1
    chosen = [0] * last  # vocabulary index per facet above the last
    everything = (1 << len(vocab)) - 1

    def candidates(i: int) -> int:
        getters = check_at[i]
        if getters is None:
            return 0
        allowed = everything
        for getter in getters:
            raw = getter(chosen)
            mask = masks.get(raw)
            allowed &= mask_of(raw) if mask is None else mask
            if not allowed:
                break
        return allowed

    single = [(v,) for v in vocab]
    out: list[Labeling] = []
    prefix: list[Labeling] = [()] * len(facets)  # labels before each position
    untried = [0] * len(facets)  # candidate bits per position not yet tried
    untried[0] = candidates(0)
    i = 0
    while i >= 0:
        todo = untried[i]
        if i == last:
            head = prefix[i]
            while todo:
                low = todo & -todo
                todo ^= low
                out.append(head + single[low.bit_length() - 1])
            i -= 1
        elif todo:
            low = todo & -todo
            untried[i] = todo ^ low
            j = chosen[i] = low.bit_length() - 1
            prefix[i + 1] = prefix[i] + single[j]
            i += 1
            untried[i] = candidates(i)
        else:
            i -= 1
    return out


def enumerate_census(spec: CensusSpec) -> CensusResult:
    """Run the census; identical specs give identical results."""
    report = spec.poset.validate()
    if not report.valid:
        raise CensusError("poset is invalid; run validation for details")
    facets = tuple(spec.poset.facets())
    # Counted, not built: the box has (2B+1)^k points, too many to list
    # before a refusal when B or k is large.
    box = count_primitive_vectors_in_box(spec.k, spec.entry_bound)
    estimate = box ** len(facets)
    if estimate > spec.budget:
        raise BudgetExceededError(estimate, spec.budget)
    # Listing the box walks at most its (2B+1)^k points, which can exceed
    # the budget when there are few facets.  Nothing walks the line at
    # k = 1, nor the box of a facet-free poset.
    if facets and spec.k >= 2:
        walk = (2 * spec.entry_bound + 1) ** spec.k
        if walk > spec.budget:
            raise BudgetExceededError(walk, spec.budget)

    labelings = enumerate_labelings(spec)
    classes = _deduplicate(
        spec.dedup, labelings, _facet_permutations(spec.poset, facets)
    )
    faces_per_codim = spec.poset.faces_per_codim()
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
        return tuple(map(CensusClass, labelings, itertools.repeat(1)))

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
