"""Face posets of nice manifolds with corners.

A poset is given by its faces (opaque string ids with a codimension) and its
covering relations in the inclusion order.  A cover pair ``(lower, upper)``
means the lower face is strictly contained in the upper with nothing in
between, so the lower face has the larger codimension.

Construction enforces only well-formedness (unique ids, known cover
endpoints) and numbers the faces once, 0 to n - 1 in sorted id order.  Every
table is indexed by those numbers: ``codims``, the sorted cover tuples ``up``
and ``down``, and, on first use, the upper set and the star (the facets
containing a face) of each face as an ``int`` bitmask over face numbers.
String ids appear only at construction, in the public accessors and in
reports; the labeling check, the searches of ``classify`` and the census
read the numbered tables, and sorting numbers sorts ids.

The semantic invariants of a nice corner structure -- a single top face,
grading, and Boolean upper intervals -- are checked by ``validate_poset``
and reported rather than raised, so broken inputs can be described to the
user.  The upper sets are derived in one pass by codimension, so the order
queries (``upper_set``, ``leq``, ``facets_containing``) need a graded poset
and raise ``PosetError`` on any other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable


class PosetError(ValueError):
    """Malformed poset input: duplicate ids, dangling covers, bad codims."""


@dataclass(frozen=True)
class Violation:
    kind: str
    faces: tuple[str, ...]
    detail: str


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[Violation, ...]

    def by_kind(self, kind: str) -> list[Violation]:
        return [v for v in self.violations if v.kind == kind]


def _pair(entry: Any, what: str) -> tuple:
    """entry unpacked as a pair; a str, though it may unpack, is not one."""
    if not isinstance(entry, str):
        try:
            a, b = entry
            return a, b
        except (TypeError, ValueError):
            pass
    raise PosetError(f"{what} {entry!r} is not a pair")


def bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first: the face numbers in a face set."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class FacePoset:
    """Graded face poset of an orbit space, immutable after construction.

    Face i is the i-th id in sorted order.  ``codims[i]`` is its
    codimension; ``up[i]`` and ``down[i]`` are the sorted numbers of the
    faces covering it and covered by it; ``index`` maps an id to its number.
    """

    def __init__(
        self,
        faces: Iterable[tuple[str, int]],
        covers: Iterable[tuple[str, str]],
        dim_orbit: int,
    ):
        codim: dict[str, int] = {}
        for entry in faces:
            fid, c = entry if type(entry) is tuple and len(entry) == 2 else _pair(entry, "face")
            # Exact strs and ints pass on the first test.
            if type(fid) is not str and not isinstance(fid, str) or not fid:
                raise PosetError(f"face id must be a nonempty string, got {fid!r}")
            if fid in codim:
                raise PosetError(f"duplicate face id {fid!r}")
            if type(c) is not int and (not isinstance(c, int) or isinstance(c, bool)) or c < 0:
                raise PosetError(f"face {fid!r} has bad codimension {c!r}")
            codim[fid] = c
        if not codim:
            raise PosetError("poset needs at least one face")
        if not isinstance(dim_orbit, int) or isinstance(dim_orbit, bool) or dim_orbit < 0:
            raise PosetError(f"bad orbit-space dimension {dim_orbit!r}")

        self.dim_orbit = dim_orbit
        self._ids = ids = tuple(sorted(codim))
        self.index = index = {f: i for i, f in enumerate(ids)}
        self.codims = list(map(codim.__getitem__, ids))
        n = len(ids)
        edges = set()  # lower * n + upper, so that covers given twice count once
        for pair in covers:
            lo, hi = pair if type(pair) is tuple and len(pair) == 2 else _pair(pair, "cover")
            # A non-str endpoint, hashable or not, names no face.
            i = index.get(lo) if isinstance(lo, str) else None
            j = index.get(hi) if isinstance(hi, str) else None
            if i is None or j is None:
                raise PosetError(f"cover ({lo!r}, {hi!r}) references unknown face")
            if i == j:
                raise PosetError(f"cover ({lo!r}, {hi!r}) is reflexive")
            edges.add(i * n + j)
        up: list[list[int]] = [[] for _ in ids]
        down: list[list[int]] = [[] for _ in ids]
        for e in sorted(edges):
            i, j = divmod(e, n)
            up[i].append(j)
            down[j].append(i)
        self.up = list(map(tuple, up))
        self.down = list(map(tuple, down))

    # -- basic accessors -------------------------------------------------

    def ids(self) -> list[str]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def codim(self, fid: str) -> int:
        return self.codims[self._require(fid)]

    @cached_property
    def _covers(self) -> frozenset[tuple[str, str]]:
        ids = self._ids
        return frozenset((ids[i], ids[j]) for i, ups in enumerate(self.up) for j in ups)

    def covers(self) -> frozenset[tuple[str, str]]:
        return self._covers

    def covering(self, fid: str) -> tuple[str, ...]:
        """Faces covering fid: one codimension lower, containing it."""
        return tuple(map(self._ids.__getitem__, self.up[self._require(fid)]))

    def faces_of_codim(self, n: int) -> list[str]:
        return [f for f, c in zip(self._ids, self.codims) if c == n]

    def facets(self) -> list[str]:
        return self.faces_of_codim(1)

    def top_faces(self) -> list[str]:
        return self.faces_of_codim(0)

    def top(self) -> str:
        tops = self.top_faces()
        if len(tops) != 1:
            raise PosetError(f"expected a unique top face, found {tops}")
        return tops[0]

    def _require(self, fid: str) -> int:
        i = self.index.get(fid)
        if i is None:
            raise PosetError(f"unknown face id {fid!r}")
        return i

    # -- order -----------------------------------------------------------

    def upper_set(self, fid: str) -> frozenset[str]:
        """All faces containing fid, including fid itself."""
        i = self._require(fid)
        return frozenset(map(self._ids.__getitem__, bits(self.upper_masks[i])))

    def leq(self, f: str, g: str) -> bool:
        """Inclusion order: f is a (non-strict) subface of g."""
        i, j = self._require(f), self._require(g)
        return bool(self.upper_masks[i] >> j & 1)

    def facets_containing(self, fid: str) -> list[str]:
        """The star of fid: the facets containing it, in id order."""
        i = self._require(fid)
        return list(map(self._ids.__getitem__, bits(self.star_masks[i])))

    def faces_per_codim(self) -> dict[int, int]:
        """The number of faces of each codimension, by increasing codimension."""
        return dict(self.codim_counts)

    @cached_property
    def codim_counts(self) -> dict[int, int]:
        """``faces_per_codim()``, counted once and shared: do not mutate."""
        return dict(sorted(Counter(self.codims).items()))

    @cached_property
    def _by_codim(self) -> list[int]:
        """Face numbers by increasing codimension, ties in number order."""
        return sorted(range(len(self._ids)), key=self.codims.__getitem__)

    @cached_property
    def upper_masks(self) -> list[int]:
        """The upper set of each face as a bitmask, built by increasing
        codimension, so that in a graded poset the covers of a face are done
        before it; a cover that does not drop codimension by 1, as on any
        cycle, raises."""
        codims, up = self.codims, self.up
        out = [0] * len(codims)
        for i in self._by_codim:
            mask = 1 << i
            for j in up[i]:
                if codims[j] != codims[i] - 1:
                    raise PosetError(
                        f"order queries need a graded poset; cover {self._ids[i]!r} over "
                        f"{self._ids[j]!r} does not drop codimension by 1"
                    )
                mask |= out[j]
            out[i] = mask
        return out

    @cached_property
    def facet_mask(self) -> int:
        """The facets as a bitmask."""
        return sum(1 << i for i, c in enumerate(self.codims) if c == 1)

    @cached_property
    def star_masks(self) -> list[int]:
        """The star of each face as a bitmask: its upper set's facets."""
        facets = self.facet_mask
        return [facets & mask for mask in self.upper_masks]

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidityReport:
        """Validity report, computed on the first call and then reused (the
        poset is immutable)."""
        return self._validity

    @cached_property
    def _validity(self) -> ValidityReport:
        return self._compute_validity()

    def _compute_validity(self) -> ValidityReport:
        ids, codims = self._ids, self.codims
        faces = range(len(ids))
        violations: list[Violation] = []
        tops = self.top_faces()
        if len(tops) != 1:
            violations.append(
                Violation(
                    "top",
                    tuple(tops),
                    f"expected exactly one codimension-0 face, found {len(tops)}",
                )
            )
        # Face numbers sort as ids do, so the covers come in sorted order.
        for lo, c, ups in zip(faces, codims, self.up):
            for up in ups:
                if codims[up] != c - 1:
                    violations.append(
                        Violation(
                            "grading",
                            (ids[lo], ids[up]),
                            f"cover {ids[lo]!r} (codim {c}) over {ids[up]!r} "
                            f"(codim {codims[up]}) must drop codimension by 1",
                        )
                    )
        for f in faces:
            if codims[f] > self.dim_orbit:
                violations.append(
                    Violation(
                        "codim-bound",
                        (ids[f],),
                        f"codimension {codims[f]} exceeds orbit dimension "
                        f"{self.dim_orbit}",
                    )
                )
        if violations:
            # Niceness is meaningless on an ungraded or multi-top structure.
            return ValidityReport(False, tuple(violations))

        uppers = self.upper_masks
        stars = self.star_masks
        # Stars shrink going up a graded poset.  So once the stars of f's
        # upper interval are the distinct subsets of star(f), a face g of the
        # interval lies below at most the 2^|star(g)| faces whose stars fit
        # in star(g).  The interval order disagrees with the subset order
        # exactly at the faces g that lie below fewer: the short ones.
        short = 0
        # The distinct stars over each upper interval, as a bitmask of the
        # first face met with each star; an interval is the face and the
        # intervals of its covers.
        first: dict[int, int] = {}
        interval_stars = [0] * len(ids)
        for g in self._by_codim:
            star = stars[g]
            if uppers[g].bit_count() != 1 << star.bit_count():
                short |= 1 << g
            mask = 1 << first.setdefault(star, g)
            for h in self.up[g]:
                mask |= interval_stars[h]
            interval_stars[g] = mask
        for f, n, star, upper in zip(faces, codims, stars, uppers):
            if star.bit_count() != n:
                names = [ids[g] for g in bits(star)]
                violations.append(
                    Violation(
                        "niceness",
                        (ids[f],),
                        f"face of codimension {n} lies below {len(names)} facets "
                        f"({names}); niceness requires exactly {n}",
                    )
                )
                continue
            size = upper.bit_count()
            if size != 1 << n:
                violations.append(
                    Violation(
                        "boolean-interval",
                        (ids[f],),
                        f"upper interval has {size} faces, expected {2 ** n}",
                    )
                )
                continue
            if interval_stars[f].bit_count() != size:
                seen: set[int] = set()
                for g in bits(upper):
                    if stars[g] in seen:
                        violations.append(
                            Violation(
                                "boolean-interval",
                                (ids[f], ids[g]),
                                "faces above do not match distinct facet subsets",
                            )
                        )
                        break
                    seen.add(stars[g])
                continue
            if not short & upper:
                continue
            for g1 in bits(short & upper):
                star1 = stars[g1]
                for g2 in bits(upper):
                    if not uppers[g1] >> g2 & 1 and not stars[g2] & ~star1:
                        violations.append(
                            Violation(
                                "boolean-interval",
                                (ids[f], ids[g1], ids[g2]),
                                "interval order disagrees with facet-subset order",
                            )
                        )
        return ValidityReport(not violations, tuple(violations))

    # -- ordering ----------------------------------------------------------

    def linear_extension(self) -> list[str]:
        """Faces ordered so larger faces come first.

        Sorting by (codim, id) always respects reverse inclusion: comparable
        distinct faces have distinct codimensions in a graded poset.
        """
        return list(map(self._ids.__getitem__, self._by_codim))

    def __repr__(self) -> str:
        return f"FacePoset({len(self._ids)} faces, dim_orbit={self.dim_orbit})"


def validate_poset(p: FacePoset) -> ValidityReport:
    return p.validate()
