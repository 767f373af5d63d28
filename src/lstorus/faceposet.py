"""Face posets of nice manifolds with corners.

A poset is given by its faces (opaque string ids with a codimension) and its
covering relations in the inclusion order.  A cover pair ``(lower, upper)``
means the lower face is strictly contained in the upper with nothing in
between, so the lower face has the larger codimension.

Construction enforces only well-formedness (unique ids, known cover
endpoints).  The semantic invariants of a nice corner structure -- a single
top face, grading, and Boolean upper intervals -- are checked by
``validate_poset`` and reported rather than raised, so broken inputs can be
described to the user.  The order queries (``upper_set``, ``leq``,
``facets_containing``) read tables derived in one pass by codimension, so
they need a graded poset and raise ``PosetError`` on any other.
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


class FacePoset:
    """Graded face poset of an orbit space, immutable after construction."""

    def __init__(
        self,
        faces: Iterable[tuple[str, int]],
        covers: Iterable[tuple[str, str]],
        dim_orbit: int,
    ):
        codim: dict[str, int] = {}
        for entry in faces:
            fid, c = _pair(entry, "face")
            if not isinstance(fid, str) or not fid:
                raise PosetError(f"face id must be a nonempty string, got {fid!r}")
            if fid in codim:
                raise PosetError(f"duplicate face id {fid!r}")
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise PosetError(f"face {fid!r} has bad codimension {c!r}")
            codim[fid] = c
        if not codim:
            raise PosetError("poset needs at least one face")
        if not isinstance(dim_orbit, int) or isinstance(dim_orbit, bool) or dim_orbit < 0:
            raise PosetError(f"bad orbit-space dimension {dim_orbit!r}")

        cover_set: set[tuple[str, str]] = set()
        for pair in covers:
            lo, up = _pair(pair, "cover")
            if lo not in codim or up not in codim:
                raise PosetError(f"cover ({lo!r}, {up!r}) references unknown face")
            if lo == up:
                raise PosetError(f"cover ({lo!r}, {up!r}) is reflexive")
            cover_set.add((lo, up))

        self.dim_orbit = dim_orbit
        self._codim = codim
        self._covers = frozenset(cover_set)
        up_map: dict[str, list[str]] = {f: [] for f in codim}
        lo_map: dict[str, list[str]] = {f: [] for f in codim}
        for lo, up in cover_set:
            up_map[lo].append(up)
            lo_map[up].append(lo)
        self._uppers = {f: tuple(sorted(ups)) for f, ups in up_map.items()}
        self._lowers = {f: tuple(sorted(los)) for f, los in lo_map.items()}
        self._ids = tuple(sorted(codim))
        self._facets = tuple(f for f in self._ids if codim[f] == 1)

    # -- basic accessors -------------------------------------------------

    def ids(self) -> list[str]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._codim)

    def codim(self, fid: str) -> int:
        self._require(fid)
        return self._codim[fid]

    def covers(self) -> frozenset[tuple[str, str]]:
        return self._covers

    def covering(self, fid: str) -> tuple[str, ...]:
        """Faces covering fid: one codimension lower, containing it."""
        self._require(fid)
        return self._uppers[fid]

    def covered_by(self, fid: str) -> tuple[str, ...]:
        self._require(fid)
        return self._lowers[fid]

    def faces_of_codim(self, n: int) -> list[str]:
        return [f for f in self._ids if self._codim[f] == n]

    def facets(self) -> list[str]:
        return list(self._facets)

    def top_faces(self) -> list[str]:
        return self.faces_of_codim(0)

    def top(self) -> str:
        tops = self.top_faces()
        if len(tops) != 1:
            raise PosetError(f"expected a unique top face, found {tops}")
        return tops[0]

    def _require(self, fid: str) -> None:
        if fid not in self._codim:
            raise PosetError(f"unknown face id {fid!r}")

    # -- order -----------------------------------------------------------

    def upper_set(self, fid: str) -> frozenset[str]:
        """All faces containing fid, including fid itself."""
        self._require(fid)
        return self._upper_sets[fid]

    def leq(self, f: str, g: str) -> bool:
        """Inclusion order: f is a (non-strict) subface of g."""
        return g in self.upper_set(f)

    def facets_containing(self, fid: str) -> list[str]:
        """The star of fid: the facets containing it, in id order."""
        self._require(fid)
        return list(self._stars[fid])

    def faces_per_codim(self) -> dict[int, int]:
        """The number of faces of each codimension, by increasing codimension."""
        return dict(sorted(Counter(self._codim.values()).items()))

    @cached_property
    def _upper_sets(self) -> dict[str, frozenset[str]]:
        """Upper sets by increasing codimension, so that in a graded poset
        the covers of a face are done before it; a cover that does not drop
        codimension by 1, as on any cycle, raises."""
        codim = self._codim
        out: dict[str, frozenset[str]] = {}
        for f in sorted(self._ids, key=codim.__getitem__):
            upper = {f}
            for g in self._uppers[f]:
                if codim[g] != codim[f] - 1:
                    raise PosetError(
                        f"order queries need a graded poset; cover {f!r} over {g!r} "
                        "does not drop codimension by 1"
                    )
                upper |= out[g]
            out[f] = frozenset(upper)
        return out

    @cached_property
    def _stars(self) -> dict[str, tuple[str, ...]]:
        facets = frozenset(self._facets)
        return {f: tuple(sorted(facets & up)) for f, up in self._upper_sets.items()}

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidityReport:
        """Validity report, computed on the first call and then reused (the
        poset is immutable)."""
        return self._validity

    @cached_property
    def _validity(self) -> ValidityReport:
        return self._compute_validity()

    def _compute_validity(self) -> ValidityReport:
        codim = self._codim
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
        ungraded = [(lo, up) for lo, up in self._covers if codim[lo] != codim[up] + 1]
        for lo, up in sorted(ungraded):
            violations.append(
                Violation(
                    "grading",
                    (lo, up),
                    f"cover {lo!r} (codim {codim[lo]}) over {up!r} "
                    f"(codim {codim[up]}) must drop codimension by 1",
                )
            )
        for f in self._ids:
            if codim[f] > self.dim_orbit:
                violations.append(
                    Violation(
                        "codim-bound",
                        (f,),
                        f"codimension {codim[f]} exceeds orbit dimension "
                        f"{self.dim_orbit}",
                    )
                )
        if violations:
            # Niceness is meaningless on an ungraded or multi-top structure.
            return ValidityReport(False, tuple(violations))

        uppers = self._upper_sets
        stars = self._stars
        # Stars shrink going up a graded poset.  So once the stars of f's
        # upper interval are the distinct subsets of star(f), a face g of the
        # interval lies below at most the 2^|star(g)| faces whose stars fit
        # in star(g).  The interval order disagrees with the subset order
        # exactly at the faces g that lie below fewer: the short ones.
        short = {g for g in self._ids if len(uppers[g]) != 2 ** len(stars[g])}
        for f in self._ids:
            n = codim[f]
            star = stars[f]
            if len(star) != n:
                violations.append(
                    Violation(
                        "niceness",
                        (f,),
                        f"face of codimension {n} lies below {len(star)} facets "
                        f"({list(star)}); niceness requires exactly {n}",
                    )
                )
                continue
            interval = uppers[f]
            if len(interval) != 2 ** n:
                violations.append(
                    Violation(
                        "boolean-interval",
                        (f,),
                        f"upper interval has {len(interval)} faces, expected {2 ** n}",
                    )
                )
                continue
            if len({stars[g] for g in interval}) != len(interval):
                seen: set[tuple[str, ...]] = set()
                for g in sorted(interval):
                    if stars[g] in seen:
                        violations.append(
                            Violation(
                                "boolean-interval",
                                (f, g),
                                "faces above do not match distinct facet subsets",
                            )
                        )
                        break
                    seen.add(stars[g])
                continue
            for g1 in sorted(short.intersection(interval)):
                star1 = frozenset(stars[g1])
                for g2 in sorted(interval):
                    if g2 not in uppers[g1] and star1.issuperset(stars[g2]):
                        violations.append(
                            Violation(
                                "boolean-interval",
                                (f, g1, g2),
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
        return sorted(self._ids, key=self._codim.__getitem__)

    def __repr__(self) -> str:
        return (
            f"FacePoset({len(self._codim)} faces, dim_orbit={self.dim_orbit})"
        )


def validate_poset(p: FacePoset) -> ValidityReport:
    return p.validate()
