"""Plain characteristic-pair data and the checks the benchmark trusts.

Nothing here calls the package under test.  Validity is the minor-gcd
criterion (rows span a direct summand of Z^k exactly when the gcd of their
maximal minors is 1), witnesses are rechecked from the raw face and cover
lists, and every negative carries an invariant that separates it from its
base pair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

Vec = tuple[int, ...]
Matrix = tuple[Vec, ...]


def canonical_sign(v: Sequence[int]) -> Vec:
    """Flip v so its first nonzero entry is positive."""
    t = tuple(v)
    for x in t:
        if x:
            return t if x > 0 else tuple(-y for y in t)
    return t


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1] if n else 1


def minor_gcd(rows: Sequence[Vec]) -> int:
    """gcd of the maximal (r x r) minors of an r x k matrix; 0 when r > k."""
    r = len(rows)
    if r == 0:
        return 1
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), r):
        g = gcd(g, det([[row[c] for c in cols] for row in rows]))
    return g


def mat_vec(a: Matrix, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def primitive_box(k: int, bound: int) -> list[Vec]:
    """Sign-canonical primitive vectors with entries in [-bound, bound]."""
    out = []
    for t in itertools.product(range(-bound, bound + 1), repeat=k):
        g = 0
        for x in t:
            g = gcd(g, x)
        if g == 1 and canonical_sign(t) == t:
            out.append(t)
    return out


@dataclass
class Pair:
    """A face poset (codimensions and covers) with a label on every facet."""

    k: int
    dim_orbit: int
    codim: dict[str, int]
    covers: frozenset[tuple[str, str]]  # (lower, upper)
    labels: dict[str, Vec]
    _stars: Optional[dict[str, tuple[str, ...]]] = field(default=None, repr=False)

    def facets(self) -> list[str]:
        return sorted(f for f, c in self.codim.items() if c == 1)

    def stars(self) -> dict[str, tuple[str, ...]]:
        """Facets containing each face (the face's own upper set, codim 1)."""
        if self._stars is None:
            ups: dict[str, list[str]] = {f: [] for f in self.codim}
            for lo, up in self.covers:
                ups[lo].append(up)
            above: dict[str, frozenset[str]] = {}
            for f in sorted(self.codim, key=lambda x: self.codim[x]):
                acc = {f}
                for u in ups[f]:
                    acc |= above[u]
                above[f] = frozenset(acc)
            self._stars = {
                f: tuple(sorted(g for g in above[f] if self.codim[g] == 1))
                for f in self.codim
            }
        return self._stars

    def with_labels(self, labels: dict[str, Vec]) -> "Pair":
        return Pair(self.k, self.dim_orbit, self.codim, self.covers, labels, self._stars)

    def document(self, rng: random.Random, bare: bool = False) -> dict:
        """The on-disk document, with faces and covers in a seeded order."""
        faces = [{"id": f, "codim": c} for f, c in sorted(self.codim.items())]
        covers = [list(c) for c in sorted(self.covers)]
        rng.shuffle(faces)
        rng.shuffle(covers)
        doc = {"dim_orbit": self.dim_orbit, "faces": faces, "covers": covers}
        if not bare:
            doc["k"] = self.k
            doc["lambda"] = {f: list(v) for f, v in sorted(self.labels.items())}
            doc["attestations"] = {
                "sections_exist": True,
                "faces_contractible": True,
                "four_faces_matched": True,
            }
        return doc


def from_lstorus(cp) -> Pair:
    """Copy a package pair (or a bare poset, k = 0) into plain data; set-up only."""
    poset = getattr(cp, "poset", cp)
    labels = {f: v.coords for f, v in cp.labels().items()} if hasattr(cp, "labels") else {}
    return Pair(
        k=getattr(cp, "k", 0),
        dim_orbit=poset.dim_orbit,
        codim={f: poset.codim(f) for f in poset.ids()},
        covers=frozenset(poset.covers()),
        labels=labels,
    )


# ---------------------------------------------------------------------------
# Validity, invariants and witnesses.


def is_valid(p: Pair) -> bool:
    """Every face's facet labels span a direct summand of rank codim <= k."""
    for f, star in p.stars().items():
        n = p.codim[f]
        if n == 0:
            continue
        if n > p.k or len(star) != n:
            return False
        if minor_gcd([p.labels[x] for x in star]) != 1:
            return False
    return True


def strong_invariant(p: Pair) -> list:
    """Multiset of (codim, sorted star labels): kept by label-exact isomorphisms."""
    return sorted(
        (p.codim[f], tuple(sorted(p.labels[x] for x in star)))
        for f, star in p.stars().items()
        if star
    )


def class_sizes(p: Pair) -> list[int]:
    counts: dict[Vec, int] = {}
    for v in p.labels.values():
        counts[v] = counts.get(v, 0) + 1
    return sorted(counts.values())


def weak_invariant(p: Pair) -> tuple:
    """Label-class sizes plus, over facet subsets of size 2 and 3, the multiset
    of (is the subset some face's star, gcd of maximal label minors).

    Poset isomorphisms map stars to stars and GL(k, Z) keeps every minor gcd
    (Cauchy-Binet), so weakly equivalent pairs have equal invariants.
    """
    facets = p.facets()
    star_sets = {frozenset(s) for s in p.stars().values()}
    keys = []
    for r in range(2, min(p.k, 3) + 1):
        for sub in itertools.combinations(facets, r):
            keys.append(
                (r, frozenset(sub) in star_sets, minor_gcd([p.labels[x] for x in sub]))
            )
    return (class_sizes(p), sorted(keys))


def witness_ok(
    a: Pair, b: Pair, phi: dict, auto: Optional[list], mode: str
) -> bool:
    """Recheck a claimed equivalence: phi maps covers onto covers and labels
    match exactly (strong) or under A with det A = +-1 (weak)."""
    if not isinstance(phi, dict) or set(phi) != set(a.codim):
        return False
    if set(phi.values()) != set(b.codim) or len(set(phi.values())) != len(phi):
        return False
    if any(a.codim[f] != b.codim[phi[f]] for f in a.codim):
        return False
    if {(phi[lo], phi[up]) for lo, up in a.covers} != set(b.covers):
        return False
    if mode == "strong":
        return all(a.labels[f] == b.labels[phi[f]] for f in a.labels)
    if (
        not isinstance(auto, list)
        or len(auto) != a.k
        or any(not isinstance(r, list) or len(r) != a.k for r in auto)
        or any(not isinstance(x, int) or isinstance(x, bool) for r in auto for x in r)
    ):
        return False
    m = tuple(tuple(r) for r in auto)
    if abs(det(m)) != 1:
        return False
    return all(
        canonical_sign(mat_vec(m, a.labels[f])) == b.labels[phi[f]] for f in a.labels
    )


# ---------------------------------------------------------------------------
# Seeded variants: renamed copies, relabelings, and proven negatives.


def renamed(p: Pair, rng: random.Random, keep_order: bool = False) -> tuple[Pair, dict]:
    """Copy with fresh face ids.  keep_order makes the new ids sort like the
    old ones, so id-ordered algorithms do identical work."""
    ids = sorted(p.codim)
    slots = list(range(len(ids)))
    if not keep_order:
        rng.shuffle(slots)
    tokens = set()
    while len(tokens) < len(ids):
        tokens.add("".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(5)))
    tokens = sorted(tokens)
    rng.shuffle(tokens)
    mapping = {f: f"{slots[i]:03d}{tokens[i]}" for i, f in enumerate(ids)}
    q = Pair(
        p.k,
        p.dim_orbit,
        {mapping[f]: c for f, c in p.codim.items()},
        frozenset((mapping[lo], mapping[up]) for lo, up in p.covers),
        {mapping[f]: v for f, v in p.labels.items()},
    )
    return q, mapping


def relabeled(p: Pair, auto: Matrix) -> Pair:
    return p.with_labels(
        {f: canonical_sign(mat_vec(auto, v)) for f, v in p.labels.items()}
    )


def negatives(p: Pair, mode: str, rng: random.Random, count: int) -> list[Pair]:
    """Valid relabelings of p that provably differ from it in the given mode.

    Candidates that pass the decider's cheap precheck come first: for weak
    mode a single facet moved to a fresh label while the label-class sizes
    stay the same, for strong mode a swap of two facet labels (a single-facet
    change always alters the label multiset).  Where a poset has too few of
    those, valid single-facet changes that fail the precheck fill the rest.
    Each one's invariant differs from the base's.
    """
    invariant = strong_invariant if mode == "strong" else weak_invariant
    base = invariant(p)
    sizes: dict[Vec, int] = {}
    for v in p.labels.values():
        sizes[v] = sizes.get(v, 0) + 1
    facets = p.facets()
    singles = [
        {**p.labels, f: v}
        for f in facets
        for v in primitive_box(p.k, 2)
        if v not in sizes
    ]
    if mode == "strong":
        passing = [
            {**p.labels, f: p.labels[g], g: p.labels[f]}
            for f, g in itertools.combinations(facets, 2)
            if p.labels[f] != p.labels[g]
        ]
        failing = singles
    else:
        passing = [lab for lab in singles if class_sizes(p.with_labels(lab)) == class_sizes(p)]
        failing = [lab for lab in singles if class_sizes(p.with_labels(lab)) != class_sizes(p)]
    out: list[Pair] = []
    for group in (passing, failing):
        rng.shuffle(group)
        for labels in group:
            if len(out) == count:
                return out
            q = p.with_labels(labels)
            if is_valid(q) and invariant(q) != base:
                out.append(q)
    return out


def invalid_variants(p: Pair, rng: random.Random, count: int) -> list[Pair]:
    """Single-facet relabelings that break the summand condition somewhere."""
    cands = [(f, v) for f in p.facets() for v in primitive_box(p.k, 1) if v != p.labels[f]]
    rng.shuffle(cands)
    out = []
    for f, v in cands:
        q = p.with_labels({**p.labels, f: v})
        if not is_valid(q):
            out.append(q)
            if len(out) == count:
                break
    return out
