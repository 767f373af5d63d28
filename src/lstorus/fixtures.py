"""Generators for the stock posets and characteristic pairs.

These are the combinatorial shapes the test suite and the shipped fixture
documents are built from: simplices, cubes and general products, polygons,
the non-compact half plane, and the classic labeled pairs over them.
"""

from __future__ import annotations

import itertools

from .charpair import Attestations, CharacteristicPair
from .faceposet import FacePoset
from .lattice import PrimitiveVector


def simplex_poset(n: int) -> FacePoset:
    """Face poset of the n-simplex as a manifold with corners.

    Faces correspond to the proper subsets of the n + 1 facets; codimension
    is the subset size.
    """
    if n < 1:
        raise ValueError("simplex dimension must be >= 1")

    def face_id(subset: tuple[int, ...]) -> str:
        return "T" if not subset else "F" + "-".join(str(i) for i in subset)

    faces = []
    covers = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(n + 1), size):
            faces.append((face_id(subset), size))
            for i in subset:
                smaller = tuple(x for x in subset if x != i)
                covers.append((face_id(subset), face_id(smaller)))
    return FacePoset(faces, covers, n)


def corner_poset(n: int) -> FacePoset:
    """The corner of R^n where every coordinate is nonnegative: faces are the
    subsets of the n facets A, B, C, ..., named by their letters ("T" for
    the empty subset), with codimension the subset size."""
    if not 1 <= n <= 26:
        raise ValueError("corner dimension must be between 1 and 26")
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:n]
    faces = []
    covers = []
    for size in range(n + 1):
        for subset in itertools.combinations(letters, size):
            fid = "".join(subset) or "T"
            faces.append((fid, size))
            for i in range(size):
                covers.append((fid, fid[:i] + fid[i + 1:] or "T"))
    return FacePoset(faces, covers, n)


def segment_poset() -> FacePoset:
    return simplex_poset(1)


def polygon_poset(sides: int) -> FacePoset:
    """Face poset of an m-gon: cyclic edges E0..E{m-1} and vertices between."""
    if sides < 2:
        raise ValueError("polygon needs at least 2 sides")
    faces = [("T", 0)]
    covers = []
    for i in range(sides):
        faces.append((f"E{i}", 1))
        covers.append((f"E{i}", "T"))
    for i in range(sides):
        faces.append((f"V{i}", 2))
        covers.append((f"V{i}", f"E{i}"))
        covers.append((f"V{i}", f"E{(i + 1) % sides}"))
    return FacePoset(faces, covers, 2)


def triangle_poset() -> FacePoset:
    return polygon_poset(3)


def square_poset() -> FacePoset:
    return polygon_poset(4)


def pentagon_poset() -> FacePoset:
    return polygon_poset(5)


def half_plane_poset() -> FacePoset:
    """Non-compact orbit space with a single facet and no deeper strata."""
    return FacePoset([("T", 0), ("E", 1)], [("E", "T")], 2)


_PRODUCT_SEP = "|"  # joins the two face ids of a product face


def product_poset(p: FacePoset, q: FacePoset) -> FacePoset:
    """Face poset of a product: faces are pairs, codimensions add."""
    faces = []
    covers = []
    for a in p.ids():
        for b in q.ids():
            faces.append((f"{a}{_PRODUCT_SEP}{b}", p.codim(a) + q.codim(b)))
    for lo, up in p.covers():
        for b in q.ids():
            covers.append((f"{lo}{_PRODUCT_SEP}{b}", f"{up}{_PRODUCT_SEP}{b}"))
    for a in p.ids():
        for lo, up in q.covers():
            covers.append((f"{a}{_PRODUCT_SEP}{lo}", f"{a}{_PRODUCT_SEP}{up}"))
    return FacePoset(faces, covers, p.dim_orbit + q.dim_orbit)


def cube_poset(n: int) -> FacePoset:
    if n < 1:
        raise ValueError("cube dimension must be >= 1")
    out = segment_poset()
    for _ in range(n - 1):
        out = product_poset(out, segment_poset())
    return out


def prism_poset() -> FacePoset:
    return product_poset(simplex_poset(2), segment_poset())


_ALL_ATTESTED = Attestations(
    sections_exist=True, faces_contractible=True, four_faces_matched=True
)


def cp_pair(n: int) -> CharacteristicPair:
    """The complex projective n-space pair over the n-simplex, k = n."""
    poset = simplex_poset(n)
    labels: dict[str, PrimitiveVector] = {}
    labels["F0"] = PrimitiveVector((1,) * n)
    for i in range(1, n + 1):
        labels[f"F{i}"] = PrimitiveVector(
            tuple(1 if j == i - 1 else 0 for j in range(n))
        )
    return CharacteristicPair(poset, n, labels, _ALL_ATTESTED)


def square_pair(labels: list[tuple[int, ...]], k: int = 2) -> CharacteristicPair:
    """Square pair with labels on E0..E3 in cyclic order."""
    return CharacteristicPair(
        square_poset(),
        k,
        {f"E{i}": PrimitiveVector(vec) for i, vec in enumerate(labels)},
        _ALL_ATTESTED,
    )


def hirzebruch_pair(a: int) -> CharacteristicPair:
    """Square pair with a shear parameter on one edge; all are valid."""
    return square_pair([(1, 0), (0, 1), (1, a), (0, 1)])


def half_plane_pair(k: int = 2) -> CharacteristicPair:
    label = PrimitiveVector(tuple(1 if j == 0 else 0 for j in range(k)))
    return CharacteristicPair(
        half_plane_poset(), k, {"E": label}, Attestations(sections_exist=True)
    )


def cube_pair(n: int) -> CharacteristicPair:
    """The n-cube with the standard axis labels on opposite facet pairs."""
    poset = cube_poset(n)
    labels = {}
    for f in poset.facets():
        parts = f.split("|") if n > 1 else [f]
        axis = next(i for i, part in enumerate(parts) if part != "T")
        labels[f] = PrimitiveVector(tuple(1 if j == axis else 0 for j in range(n)))
    return CharacteristicPair(poset, n, labels, _ALL_ATTESTED)


def prism_pair() -> CharacteristicPair:
    """Triangle-times-segment orbit space with k = 3."""
    poset = prism_poset()
    labels = {
        "F0|T": PrimitiveVector((1, 1, 0)),
        "F1|T": PrimitiveVector((1, 0, 0)),
        "F2|T": PrimitiveVector((0, 1, 0)),
        "T|F0": PrimitiveVector((0, 0, 1)),
        "T|F1": PrimitiveVector((0, 0, 1)),
    }
    return CharacteristicPair(poset, 3, labels, _ALL_ATTESTED)


def polygon_pair(sides: int) -> CharacteristicPair:
    """A valid k = 2 labeling of the m-gon: alternate the axes, with a shear
    patch on the last edge when the side count is odd."""
    labels = []
    for i in range(sides):
        labels.append((1, 0) if i % 2 == 0 else (0, 1))
    if sides % 2 == 1:
        labels[-1] = (1, 1)
    return CharacteristicPair(
        polygon_poset(sides),
        2,
        {f"E{i}": PrimitiveVector(v) for i, v in enumerate(labels)},
        _ALL_ATTESTED,
    )
