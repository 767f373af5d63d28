import itertools
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from lstorus.documents import parse_document
from lstorus.faceposet import FacePoset, PosetError, validate_poset
from lstorus.fixtures import (
    corner_poset,
    cube_poset,
    half_plane_poset,
    pentagon_poset,
    polygon_poset,
    prism_poset,
    product_poset,
    segment_poset,
    simplex_poset,
    square_poset,
    triangle_poset,
)

from oracles import poset_validity_reference, poset_violations_reference

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_square_is_valid():
    report = validate_poset(square_poset())
    assert report.valid
    assert report.violations == ()


def test_simplices_cubes_products_valid():
    for n in range(1, 5):
        assert validate_poset(simplex_poset(n)).valid, f"simplex {n}"
        assert validate_poset(cube_poset(n)).valid, f"cube {n}"
    assert validate_poset(product_poset(simplex_poset(2), simplex_poset(2))).valid
    assert validate_poset(prism_poset()).valid
    for n in range(1, 5):
        assert validate_poset(corner_poset(n)).valid, f"corner {n}"
    assert validate_poset(product_poset(square_poset(), segment_poset())).valid


def test_half_plane_valid_non_compact():
    p = half_plane_poset()
    assert validate_poset(p).valid
    assert p.faces_of_codim(2) == []


def test_vertex_under_three_facets_invalid():
    p = FacePoset(
        [("T", 0), ("A", 1), ("B", 1), ("C", 1), ("V", 2)],
        [("A", "T"), ("B", "T"), ("C", "T"), ("V", "A"), ("V", "B"), ("V", "C")],
        2,
    )
    report = validate_poset(p)
    assert not report.valid
    assert any(v.kind == "niceness" and v.faces == ("V",) for v in report.violations)


def test_two_top_faces_invalid():
    p = FacePoset([("T1", 0), ("T2", 0)], [], 1)
    report = validate_poset(p)
    assert not report.valid
    assert report.by_kind("top")


def test_grading_violation_reported():
    p = FacePoset([("T", 0), ("V", 2)], [("V", "T")], 2)
    report = validate_poset(p)
    assert not report.valid
    assert report.by_kind("grading")


def test_codim_bound_reported():
    p = FacePoset([("T", 0), ("E", 1)], [("E", "T")], 0)
    report = validate_poset(p)
    assert not report.valid
    assert report.by_kind("codim-bound")


def test_boolean_interval_violation():
    # A "vertex" below two facets but with a 3-element upper interval:
    # one of the two edges through it is missing.
    p = FacePoset(
        [("T", 0), ("A", 1), ("B", 1), ("V", 2)],
        [("A", "T"), ("B", "T"), ("V", "A")],
        2,
    )
    report = validate_poset(p)
    assert not report.valid


def test_construction_errors():
    with pytest.raises(PosetError):
        FacePoset([("T", 0), ("T", 1)], [], 1)
    with pytest.raises(PosetError):
        FacePoset([("T", 0)], [("T", "X")], 1)
    with pytest.raises(PosetError):
        FacePoset([("T", -1)], [], 1)
    with pytest.raises(PosetError):
        FacePoset([], [], 1)


@pytest.mark.parametrize(
    "faces, covers",
    [
        ([("a", 0), ("b", 1)], ["ab"]),
        ([("a", 0), ("b", 1)], [("a", "b", "c")]),
        ([("a", 0), ("b", 1)], [("a",)]),
        ([("a", 0), ("b", 1)], [3]),
        ([("a", 0, 1)], []),
        ([("a", 0), 3], []),
        (["a0"], []),
    ],
)
def test_malformed_pairs_raise_poset_error_naming_the_entry(faces, covers):
    bad = covers[0] if covers else faces[-1]
    with pytest.raises(PosetError, match=f"^(face|cover) {re.escape(repr(bad))} is not a pair$"):
        FacePoset(faces, covers, 1)


@pytest.mark.parametrize("bad", [["a"], {"a": 1}, {"a"}])
def test_unhashable_cover_endpoints_are_unknown_faces(bad):
    for cover in ((bad, "b"), ("b", bad)):
        with pytest.raises(PosetError, match=r"^cover \(.*\) references unknown face$"):
            FacePoset([("a", 1), ("b", 0)], [cover], 2)


def test_str_subclass_cover_endpoints_name_their_faces():
    class Name(str):
        pass

    p = FacePoset([("a", 1), ("b", 0)], [(Name("a"), Name("b"))], 2)
    assert p.covers() == {("a", "b")}


def test_accessors_on_square():
    p = square_poset()
    assert p.facets() == ["E0", "E1", "E2", "E3"]
    assert p.facets_containing("V0") == ["E0", "E1"]
    assert p.facets_containing("T") == []
    assert p.faces_of_codim(2) == ["V0", "V1", "V2", "V3"]
    with pytest.raises(PosetError):
        p.codim("nope")
    with pytest.raises(PosetError):
        p.facets_containing("nope")


def test_linear_extension_square():
    p = square_poset()
    ext = p.linear_extension()
    assert ext == ["T", "E0", "E1", "E2", "E3", "V0", "V1", "V2", "V3"]


def test_linear_extension_chain():
    p = FacePoset(
        [("T", 0), ("E", 1), ("V", 2)], [("V", "E"), ("E", "T")], 2
    )
    assert p.linear_extension() == ["T", "E", "V"]


@pytest.mark.parametrize(
    "poset",
    [
        triangle_poset(),
        square_poset(),
        pentagon_poset(),
        simplex_poset(3),
        cube_poset(3),
        cube_poset(4),
        prism_poset(),
        product_poset(square_poset(), square_poset()),
        half_plane_poset(),
    ],
    ids=lambda p: repr(p),
)
def test_linear_extension_respects_comparability(poset):
    ext = poset.linear_extension()
    assert sorted(ext) == poset.ids()
    index = {f: i for i, f in enumerate(ext)}
    for f in poset.ids():
        for g in poset.ids():
            if poset.leq(f, g):
                # g contains f, so g must come first.
                assert index[g] <= index[f]


def test_upper_sets_and_leq():
    p = triangle_poset()
    assert p.leq("V0", "E0")
    assert p.leq("V0", "T")
    assert not p.leq("E0", "V0")
    assert not p.leq("E0", "E1")
    assert p.upper_set("T") == frozenset({"T"})


def test_leq_raises_on_an_unknown_face_on_either_side():
    p = simplex_poset(2)
    for f, g in (("F0", "nope"), ("nope", "F0"), ("nope", "nope")):
        with pytest.raises(PosetError, match="^unknown face id 'nope'$"):
            p.leq(f, g)


def test_boolean_intervals_have_power_set_size():
    for poset in (simplex_poset(4), cube_poset(4)):
        assert validate_poset(poset).valid
        for f in poset.ids():
            n = poset.codim(f)
            assert len(poset.upper_set(f)) == 2 ** n
            star = poset.facets_containing(f)
            subsets = {
                frozenset(poset.facets_containing(g)) for g in poset.upper_set(f)
            }
            expected = {
                frozenset(c)
                for size in range(n + 1)
                for c in itertools.combinations(star, size)
            }
            assert subsets == expected


def test_polygon_poset_sizes():
    for m in (2, 3, 4, 5, 6):
        p = polygon_poset(m)
        assert len(p) == 2 * m + 1
        assert validate_poset(p).valid


def _without_cover(poset, *removed):
    faces = {f: poset.codim(f) for f in poset.ids()}
    return FacePoset(faces.items(), [c for c in poset.covers() if c not in removed], poset.dim_orbit)


def _corner4_order():
    # ABC lies below neither AB nor T, so it disagrees with two faces of the
    # interval of ABCD.
    return _without_cover(corner_poset(4), ("ABC", "AB"), ("A", "T"), ("B", "T"), ("C", "T"))


def test_interval_order_violations_in_sorted_order():
    order = [v.faces for v in _corner4_order().validate().violations if len(v.faces) == 3]
    assert order == sorted(order)
    assert [g for f, g1, g in order if (f, g1) == ("ABCD", "ABC")] == ["AB", "T"]


def _invalid_variants():
    return {
        "ungraded": FacePoset([("T", 0), ("V", 2)], [("V", "T")], 2),
        "two-tops": FacePoset([("T1", 0), ("T2", 0)], [], 1),
        "codim-bound": FacePoset([("T", 0), ("E", 1)], [("E", "T")], 0),
        "cycle": FacePoset(
            [("T", 0), ("A", 1), ("B", 1)], [("A", "T"), ("B", "A"), ("A", "B")], 2
        ),
        "non-nice": FacePoset(
            [("T", 0), ("A", 1), ("B", 1), ("C", 1), ("V", 2)],
            [("A", "T"), ("B", "T"), ("C", "T"), ("V", "A"), ("V", "B"), ("V", "C")],
            2,
        ),
        # V lies below three facets, but the edge for A and C is missing.
        "interval-size": FacePoset(
            [("T", 0), ("A", 1), ("B", 1), ("C", 1), ("E1", 2), ("E2", 2), ("V", 3)],
            [("A", "T"), ("B", "T"), ("C", "T"), ("E1", "A"), ("E1", "B"),
             ("E2", "B"), ("E2", "C"), ("V", "E1"), ("V", "E2")],
            3,
        ),
        # Two edges above V lie below the same pair of facets.
        "interval-subsets": FacePoset(
            [("T", 0), ("A", 1), ("B", 1), ("C", 1), ("E1", 2), ("E2", 2),
             ("E3", 2), ("V", 3)],
            [("A", "T"), ("B", "T"), ("C", "T"), ("E1", "A"), ("E1", "B"),
             ("E2", "A"), ("E2", "B"), ("E3", "C"), ("E3", "A"), ("V", "E1"),
             ("V", "E2"), ("V", "E3")],
            3,
        ),
        "square-missing-cover": _without_cover(square_poset(), ("V0", "E0")),
        "cube3-missing-cover": _without_cover(cube_poset(3), sorted(cube_poset(3).covers())[-1]),
        # The facet left without its cover of the top has a 1-face upper
        # interval; the faces below it get 3-face interval-order violations.
        "cube4-missing-cover": _without_cover(cube_poset(4), sorted(cube_poset(4).covers())[-1]),
        "corner4-order": _corner4_order(),
    }


def _fixture_posets():
    posets = {
        path.stem: parse_document(path.read_text(encoding="utf-8")).poset
        for path in sorted(FIXTURES.glob("*.json"))
    }
    posets.update(cube5=cube_poset(5), cube6=cube_poset(6))
    return posets


@pytest.mark.parametrize("name", ["ungraded", "cycle"])
def test_order_queries_raise_on_an_ungraded_poset(name):
    poset = _invalid_variants()[name]
    for f in poset.ids():
        with pytest.raises(PosetError, match="graded"):
            poset.upper_set(f)
        with pytest.raises(PosetError, match="graded"):
            poset.leq(f, f)
        with pytest.raises(PosetError, match="graded"):
            poset.facets_containing(f)
    # Grading is checked before any order query, so the report is unchanged.
    report = poset.validate()
    assert not report.valid and report.by_kind("grading")
    got = sorted((v.kind, v.faces, v.detail) for v in report.violations)
    assert got == poset_violations_reference(poset)


def test_order_tables_equal_a_breadth_first_closure():
    posets = dict(_fixture_posets(), corner4=corner_poset(4))
    for name, poset in _invalid_variants().items():
        if not poset.validate().by_kind("grading"):
            posets[name] = poset
    for name, poset in posets.items():
        above = {f: [] for f in poset.ids()}
        for lo, up in poset.covers():
            above[lo].append(up)
        for f in poset.ids():
            seen, queue = {f}, [f]
            for g in queue:
                for h in above[g]:
                    if h not in seen:
                        seen.add(h)
                        queue.append(h)
            assert poset.upper_set(f) == seen, (name, f)
            star = sorted(g for g in seen if poset.codim(g) == 1)
            assert poset.facets_containing(f) == star, (name, f)
            assert all(poset.leq(f, g) == (g in seen) for g in poset.ids()), (name, f)


def test_faces_per_codim_counts_the_codims():
    for name, poset in _fixture_posets().items():
        counts = poset.faces_per_codim()
        assert counts == Counter(poset.codim(f) for f in poset.ids()), name
        assert list(counts) == sorted(counts), name


@pytest.mark.parametrize("source", ["fixtures", "invalid"])
def test_cached_report_equals_fresh_computation(source):
    posets = _fixture_posets() if source == "fixtures" else _invalid_variants()
    kinds, interval_checks = set(), set()
    for name, poset in posets.items():
        report = poset.validate()
        assert poset.validate() is report, name
        assert report == poset._compute_validity(), name
        got = sorted((v.kind, v.faces, v.detail) for v in report.violations)
        assert got == poset_violations_reference(poset), name
        assert report.valid == (source == "fixtures"), name
        kinds |= {v.kind for v in report.violations}
        # The three Boolean-interval checks name 1, 2 and 3 faces.
        interval_checks |= {len(v.faces) for v in report.by_kind("boolean-interval")}
    if source == "invalid":
        assert kinds == {"top", "grading", "codim-bound", "niceness", "boolean-interval"}
        assert interval_checks == {1, 2, 3}


def _mutants(poset, rng):
    """One seeded mutant of the poset for each kind of change: a dropped,
    an added and a reversed cover, a changed codimension, an extra face."""
    codim = {f: poset.codim(f) for f in poset.ids()}
    covers = sorted(poset.covers())
    ids = sorted(codim)

    def make(codims, cover_list):
        return FacePoset(sorted(codims.items()), cover_list, poset.dim_orbit)

    out = {}
    if covers:
        drop = rng.choice(covers)
        out["drop"] = make(codim, [c for c in covers if c != drop])
        lo, up = rng.choice(covers)
        out["reverse"] = make(codim, [c for c in covers if c != (lo, up)] + [(up, lo)])
    # An added cover that keeps the grading, when there is one to add.
    graded = [(lo, up) for lo in ids for up in ids
              if codim[lo] == codim[up] + 1 and (lo, up) not in poset.covers()]
    if graded:
        out["add"] = make(codim, covers + [rng.choice(graded)])
    f = rng.choice(ids)
    out["codim"] = make({**codim, f: max(0, codim[f] + rng.choice((-1, 1)))}, covers)
    up = rng.choice(ids)
    below = [("X", up)] + [(g, "X") for g in ids if codim[g] == codim[up] + 2 and rng.random() < 0.5]
    out["extra-face"] = make({**codim, "X": codim[up] + 1}, covers + below)
    return out


def test_validate_equals_the_string_keyed_reference_on_fixtures_and_mutants():
    """Whole reports, kinds, faces, details and order, against the
    string-keyed computation the numbered tables replaced."""
    posets = dict(_fixture_posets(), **_invalid_variants())
    rng = random.Random(2024)
    for name, poset in list(posets.items()):
        for seed in range(3):
            for kind, mutant in _mutants(poset, rng).items():
                posets[f"{name}-{kind}-{seed}"] = mutant
    kinds, interval_checks = set(), set()
    for name, poset in posets.items():
        report = poset.validate()
        assert report == poset_validity_reference(poset), name
        kinds |= {v.kind for v in report.violations}
        interval_checks |= {len(v.faces) for v in report.by_kind("boolean-interval")}
    assert kinds == {"top", "grading", "codim-bound", "niceness", "boolean-interval"}
    assert interval_checks == {1, 2, 3}
