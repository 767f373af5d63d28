"""Face posets of nice manifolds with corners.

A poset is given by its faces (opaque string ids with a codimension) and its
covering relations in the inclusion order.  A cover pair ``(lower, upper)``
means the lower face is strictly contained in the upper with nothing in
between, so the lower face has the larger codimension.

Construction enforces only well-formedness (unique ids, known cover
endpoints).  The semantic invariants of a nice corner structure -- a single
top face, grading, and Boolean upper intervals -- are checked by
``validate_poset`` and reported rather than raised, so broken inputs can be
described to the user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional


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


class FacePoset:
    """Graded face poset of an orbit space, immutable after construction."""

    def __init__(
        self,
        faces: Iterable[tuple[str, int]] | Mapping[str, int],
        covers: Iterable[tuple[str, str]],
        dim_orbit: int,
    ):
        if isinstance(faces, Mapping):
            face_items = list(faces.items())
        else:
            face_items = list(faces)
        codim: dict[str, int] = {}
        for fid, c in face_items:
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
            lo, up = pair
            if lo not in codim or up not in codim:
                raise PosetError(f"cover ({lo!r}, {up!r}) references unknown face")
            if lo == up:
                raise PosetError(f"cover ({lo!r}, {up!r}) is reflexive")
            cover_set.add((lo, up))

        self.dim_orbit = dim_orbit
        self._codim = codim
        self._covers = frozenset(cover_set)
        self._uppers: dict[str, tuple[str, ...]] = {f: () for f in codim}
        self._lowers: dict[str, tuple[str, ...]] = {f: () for f in codim}
        up_map: dict[str, list[str]] = {f: [] for f in codim}
        lo_map: dict[str, list[str]] = {f: [] for f in codim}
        for lo, up in cover_set:
            up_map[lo].append(up)
            lo_map[up].append(lo)
        for f in codim:
            self._uppers[f] = tuple(sorted(up_map[f]))
            self._lowers[f] = tuple(sorted(lo_map[f]))
        self._upper_sets: Optional[dict[str, frozenset[str]]] = None
        self._report: Optional[ValidityReport] = None

    # -- basic accessors -------------------------------------------------

    def ids(self) -> list[str]:
        return sorted(self._codim)

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
        return sorted(f for f, c in self._codim.items() if c == n)

    def facets(self) -> list[str]:
        return self.faces_of_codim(1)

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
        return self._upper_sets_map()[fid]

    def _upper_sets_map(self) -> dict[str, frozenset[str]]:
        if self._upper_sets is None:
            self._upper_sets = self._compute_upper_sets()
        return self._upper_sets

    def _compute_upper_sets(self) -> dict[str, frozenset[str]]:
        """Depth-first closure over the covers, on an explicit stack so a
        deep chain does not hit the recursion limit.  A face met again on
        the current path (a cycle) contributes nothing, which terminates."""
        out: dict[str, frozenset[str]] = {}
        for root in sorted(self._codim):
            if root in out:
                continue
            path = {root}
            stack = [(root, iter(self._uppers[root]), {root})]
            while stack:
                f, ups, acc = stack[-1]
                for up in ups:
                    if up in out:
                        acc |= out[up]
                    elif up not in path:
                        path.add(up)
                        stack.append((up, iter(self._uppers[up]), {up}))
                        break
                else:
                    stack.pop()
                    path.discard(f)
                    out[f] = frozenset(acc)
                    if stack:
                        stack[-1][2].update(out[f])
        return out

    def leq(self, f: str, g: str) -> bool:
        """Inclusion order: f is a (non-strict) subface of g."""
        return g in self.upper_set(f)

    def comparable(self, f: str, g: str) -> bool:
        return self.leq(f, g) or self.leq(g, f)

    def facets_containing(self, fid: str) -> list[str]:
        self._require(fid)
        return sorted(g for g in self.upper_set(fid) if self._codim[g] == 1)

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidityReport:
        """Validity report, computed on the first call and then reused (the
        poset is immutable)."""
        if self._report is None:
            self._report = self._compute_validity()
        return self._report

    def _compute_validity(self) -> ValidityReport:
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
        for lo, up in sorted(self._covers):
            if self._codim[lo] != self._codim[up] + 1:
                violations.append(
                    Violation(
                        "grading",
                        (lo, up),
                        f"cover {lo!r} (codim {self._codim[lo]}) over {up!r} "
                        f"(codim {self._codim[up]}) must drop codimension by 1",
                    )
                )
        for f in self.ids():
            if self._codim[f] > self.dim_orbit:
                violations.append(
                    Violation(
                        "codim-bound",
                        (f,),
                        f"codimension {self._codim[f]} exceeds orbit dimension "
                        f"{self.dim_orbit}",
                    )
                )
        if violations:
            # Niceness is meaningless on an ungraded or multi-top structure.
            return ValidityReport(False, tuple(violations))

        uppers = self._upper_sets_map()
        stars = {
            f: frozenset(g for g in uppers[f] if self._codim[g] == 1)
            for f in self._codim
        }
        for f in self.ids():
            n = self._codim[f]
            star_set = stars[f]
            if len(star_set) != n:
                star = sorted(star_set)
                violations.append(
                    Violation(
                        "niceness",
                        (f,),
                        f"face of codimension {n} lies below {len(star)} facets "
                        f"({star}); niceness requires exactly {n}",
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
            seen: dict[frozenset[str], str] = {}
            bad = False
            for g in sorted(interval):
                key = stars[g]
                if not key <= star_set or key in seen:
                    violations.append(
                        Violation(
                            "boolean-interval",
                            (f, g),
                            "faces above do not match distinct facet subsets",
                        )
                    )
                    bad = True
                    break
                seen[key] = g
            if bad:
                continue
            for g1 in interval:
                for g2 in interval:
                    if (g2 in uppers[g1]) != (stars[g2] <= stars[g1]):
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
        return sorted(self._codim, key=lambda f: (self._codim[f], f))

    def __repr__(self) -> str:
        return (
            f"FacePoset({len(self._codim)} faces, dim_orbit={self.dim_orbit})"
        )


def validate_poset(p: FacePoset) -> ValidityReport:
    return p.validate()
