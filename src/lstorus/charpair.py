"""Characteristic pairs: facet-labeled face posets.

A pair assigns a primitive weight vector in Z^k to every facet.  The deeper
strata get their isotropy subtorus from the facets through them, so labels
are stored on facets only and extended by saturation.  The pair is valid
when the labels at every codimension-n face span a rank-n direct summand,
which is exactly the condition for a standard linear effective local chart.

The three attestation flags record analytic hypotheses that no finite input
can certify (existence of sections, contractibility of closed faces, and the
matching of four-dimensional faces after smoothing); they are echoed into
every verdict so reports state exactly what has been assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .faceposet import FacePoset, ValidityReport, Violation, bits
from .lattice import Matrix, PrimitiveVector, apply_auto, is_direct_summand


class CharPairError(ValueError):
    """Structurally broken characteristic pair input."""


@dataclass(frozen=True)
class Attestations:
    sections_exist: bool = False
    faces_contractible: bool = False
    four_faces_matched: bool = False

    def as_dict(self) -> dict[str, bool]:
        return {
            "sections_exist": self.sections_exist,
            "faces_contractible": self.faces_contractible,
            "four_faces_matched": self.four_faces_matched,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, bool]) -> "Attestations":
        known = cls().as_dict()
        extra = set(d) - set(known)
        if extra:
            raise CharPairError(f"unknown attestation keys {sorted(extra)}")
        vals = {}
        for key in known:
            v = d.get(key, False)
            if not isinstance(v, bool):
                raise CharPairError(f"attestation {key} must be a boolean")
            vals[key] = v
        return cls(**vals)


class CharacteristicPair:
    """A face poset with torus rank k and a primitive label on every facet.

    ``coords[i]`` is the label of face number i (see ``FacePoset``) as an
    int tuple, and None when the face is no facet.
    """

    def __init__(
        self,
        poset: FacePoset,
        k: int,
        facet_lambda: Mapping[str, PrimitiveVector | Sequence[int]],
        attestations: Attestations = Attestations(),
    ):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise CharPairError(f"torus rank must be a positive integer, got {k!r}")
        labels: dict[str, PrimitiveVector] = {}
        coords: list[Optional[tuple[int, ...]]] = [None] * len(poset)
        for fid, value in facet_lambda.items():
            i = poset.index.get(fid)
            if i is None or poset.codims[i] != 1:
                raise CharPairError(f"label on {fid!r}, which is not a facet")
            vec = value if isinstance(value, PrimitiveVector) else PrimitiveVector(value)
            if vec.k != k:
                raise CharPairError(
                    f"label on {fid!r} has length {vec.k}, expected {k}"
                )
            labels[fid] = vec
            coords[i] = vec.coords
        if len(labels) != poset.codims.count(1):
            missing = [f for f in poset.facets() if f not in labels]
            raise CharPairError(f"missing facet label for {missing}")
        self.poset = poset
        self.k = k
        self.attestations = attestations
        self._labels = labels
        self.coords = coords

    @property
    def dim_orbit(self) -> int:
        return self.poset.dim_orbit

    def label(self, facet: str) -> PrimitiveVector:
        if facet not in self._labels:
            raise CharPairError(f"{facet!r} is not a labeled facet")
        return self._labels[facet]

    def labels(self) -> dict[str, PrimitiveVector]:
        return dict(self._labels)

    def star_matrix(self, fid: str) -> Matrix:
        """Labels of the facets containing fid, stacked in facet-id order."""
        return tuple(self._labels[f].coords for f in self.poset.facets_containing(fid))

    def __repr__(self) -> str:
        return f"CharacteristicPair(k={self.k}, {self.poset!r})"


def validate_characteristic(cp: CharacteristicPair) -> ValidityReport:
    """Check the direct-summand condition at every face.

    The underlying poset must already be valid; niceness is what makes the
    facet stars the right data to test.
    """
    poset = cp.poset
    if not poset.validate().valid:
        raise CharPairError(
            "poset is invalid; validate the poset before the labeling"
        )
    ids, codims, down = poset.ids(), poset.codims, poset.down
    stars, coords = poset.star_masks, cp.coords
    found: dict[int, Violation] = {}
    passed = [False] * len(ids)
    # The summand test does not depend on row order, so it is memoised on
    # each face's sorted star labels; details keep the star order.
    summand: dict[Matrix, bool] = {}
    # Deeper faces first.  The star of a face is part of the star of each
    # face below it, and part of a basis of a direct summand spans one, so a
    # face with a lower cover that passed passes without a test.
    for f in sorted(range(len(ids)), key=codims.__getitem__, reverse=True):
        n = codims[f]
        if n == 0:
            break
        if n > cp.k:
            found[f] = Violation(
                "codim-rank",
                (ids[f],),
                f"codimension {n} exceeds torus rank {cp.k}",
            )
            continue
        if any(map(passed.__getitem__, down[f])):
            passed[f] = True
            continue
        rows = tuple(map(coords.__getitem__, bits(stars[f])))
        key = tuple(sorted(rows))
        ok = summand.get(key)
        if ok is None:
            ok = summand[key] = is_direct_summand(key)
        if ok:
            passed[f] = True
        else:
            found[f] = Violation(
                "summand",
                (ids[f],),
                f"facet labels {list(rows)} do not span a rank-{n} "
                f"direct summand",
            )
    # Face numbers sort as ids do.
    violations = tuple(found[f] for f in sorted(found))
    return ValidityReport(not violations, violations)


def relabel(cp: CharacteristicPair, auto: Matrix) -> CharacteristicPair:
    """Apply a torus automorphism A to every facet label."""
    return CharacteristicPair(
        cp.poset,
        cp.k,
        {f: apply_auto(auto, v) for f, v in cp.labels().items()},
        cp.attestations,
    )


def rename_faces(cp: CharacteristicPair, mapping: Mapping[str, str]) -> CharacteristicPair:
    """Rebuild the pair with renamed face ids (mapping must be a bijection)."""
    ids = cp.poset.ids()
    if sorted(mapping) != ids or len(set(mapping.values())) != len(ids):
        raise CharPairError("rename mapping must be a bijection on all faces")
    poset = FacePoset(
        [(mapping[f], cp.poset.codim(f)) for f in ids],
        [(mapping[lo], mapping[up]) for lo, up in cp.poset.covers()],
        cp.poset.dim_orbit,
    )
    return CharacteristicPair(
        poset,
        cp.k,
        {mapping[f]: v for f, v in cp.labels().items()},
        cp.attestations,
    )
