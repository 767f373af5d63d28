import itertools
import random
from pathlib import Path

import pytest

from lstorus.charpair import (
    Attestations,
    CharacteristicPair,
    CharPairError,
    relabel,
    rename_faces,
    validate_characteristic,
)
from lstorus.documents import parse_document
from lstorus.faceposet import FacePoset, ValidityReport, Violation
from lstorus.fixtures import (
    cp_pair,
    cube_pair,
    half_plane_pair,
    pentagon_poset,
    prism_pair,
    square_pair,
    square_poset,
    triangle_poset,
)
from lstorus.lattice import PrimitiveVector, random_unimodular, saturate

from oracles import label_violations_reference, minor_gcd_is_summand


def primitive_box_vectors(k, bound):
    out = []
    for t in itertools.product(range(-bound, bound + 1), repeat=k):
        try:
            v = PrimitiveVector(t)
        except Exception:
            continue
        if v.coords == t:
            out.append(v)
    return out


def test_cp2_pair_valid():
    cp = cp_pair(2)
    assert validate_characteristic(cp).valid


def test_square_pairs_validity_examples():
    assert validate_characteristic(
        square_pair([(1, 0), (0, 1), (1, 0), (0, 1)])
    ).valid
    assert validate_characteristic(
        square_pair([(1, 0), (0, 1), (1, 2), (0, 1)])
    ).valid
    report = validate_characteristic(square_pair([(1, 0), (0, 1), (2, 1), (0, 1)]))
    assert not report.valid
    bad_faces = {f for v in report.violations for f in v.faces}
    # The vertices between (0,1) and (2,1) fail the determinant condition.
    assert bad_faces == {"V1", "V2"}


def test_missing_label_rejected():
    with pytest.raises(CharPairError):
        CharacteristicPair(square_poset(), 2, {"E0": PrimitiveVector((1, 0))})


def test_label_on_non_facet_rejected():
    with pytest.raises(CharPairError):
        CharacteristicPair(
            square_poset(),
            2,
            {
                "T": PrimitiveVector((1, 0)),
                **{f"E{i}": PrimitiveVector((1, 0)) for i in range(4)},
            },
        )


def test_wrong_length_label_rejected():
    with pytest.raises(CharPairError):
        square_pair([(1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 1, 0)])


@pytest.fixture
def summand_calls(monkeypatch):
    """The rows of every is_direct_summand call validation makes."""
    import lstorus.charpair as charpair_mod

    seen = []
    real = charpair_mod.is_direct_summand
    monkeypatch.setattr(
        charpair_mod, "is_direct_summand", lambda rows: seen.append(rows) or real(rows)
    )
    return seen


@pytest.mark.parametrize("dim,calls", [(3, 1), (4, 1)])
def test_summand_test_runs_once_per_star_label_tuple(summand_calls, dim, calls):
    # Every face of a valid cube lies above a vertex that passed, so only
    # the vertices are tested, and they all share one sorted label tuple.
    assert validate_characteristic(cube_pair(dim)).valid
    assert len(summand_calls) == calls
    assert len({tuple(sorted(rows)) for rows in summand_calls}) == calls


def test_memoised_violations_keep_star_order(summand_calls):
    # V1 and V2 have the same labels in opposite star order: one summand
    # test serves both, and each detail lists its own star order.
    report = validate_characteristic(square_pair([(1, 0), (0, 1), (2, 1), (0, 1)]))
    assert [(v.faces, v.detail) for v in report.violations] == [
        (("V1",), "facet labels [(0, 1), (2, 1)] do not span a rank-2 direct summand"),
        (("V2",), "facet labels [(2, 1), (0, 1)] do not span a rank-2 direct summand"),
    ]
    assert ((2, 1), (0, 1)) not in summand_calls


def _relabeled(cp, labels, k=None):
    return CharacteristicPair(cp.poset, k or cp.k, dict(zip(cp.poset.facets(), labels)))


def _reference_cases():
    rng = random.Random(47)
    square = square_pair([(1, 0), (0, 1), (1, 0), (0, 1)])
    cases = {
        "square-valid": square,
        "square-sheared": square_pair([(1, 0), (0, 1), (1, 2), (0, 1)]),
        "square-bad-vertices": square_pair([(1, 0), (0, 1), (2, 1), (0, 1)]),
        "square-equal-labels": _relabeled(square, [(1, 0)] * 4),
        "square-codim-rank": _relabeled(square, [(1,)] * 4, k=1),
        "prism-valid": prism_pair(),
        "cube3-valid": cube_pair(3),
        "cube3-codim-rank": _relabeled(cube_pair(3), [(1, 0)] * 3 + [(0, 1)] * 3, k=2),
    }
    for name, cp in (("prism", prism_pair()), ("cube3", cube_pair(3))):
        vocab = primitive_box_vectors(cp.k, 1)
        for i in range(40):
            labels = [rng.choice(vocab).coords for _ in cp.poset.facets()]
            cases[f"{name}-random{i}"] = _relabeled(cp, labels)
        for i in range(10):
            cases[f"{name}-gl{i}"] = relabel(cp, random_unimodular(cp.k, rng))
    return cases


def test_violations_match_per_face_reference():
    cases = _reference_cases()
    kinds, valid = set(), 0
    for name, cp in cases.items():
        report = validate_characteristic(cp)
        got = [(v.kind, v.faces, v.detail) for v in report.violations]
        assert got == label_violations_reference(cp), name
        valid += report.valid
        kinds |= {v[0] for v in got}
    assert kinds == {"summand", "codim-rank"}
    assert 24 <= valid < len(cases)


def test_reports_equal_the_label_by_label_reference_on_mutated_labels():
    """Whole reports, details and order included, on the fixtures' labels
    with one label replaced, two swapped, or one copied onto another."""
    rng = random.Random(53)
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    pairs = [parse_document(p.read_text(encoding="utf-8")).pair
             for p in sorted(fixtures.glob("*.json"))]
    kinds, valid, count = set(), 0, 0
    for cp in filter(None, pairs):
        facets = cp.poset.facets()
        vocab = primitive_box_vectors(cp.k, 2)
        for _ in range(6):
            labels = [cp.label(f) for f in facets]
            i, j = rng.randrange(len(facets)), rng.randrange(len(facets))
            change = rng.choice(("replace", "swap", "copy"))
            if change == "replace":
                labels[i] = rng.choice(vocab)
            elif change == "swap":
                labels[i], labels[j] = labels[j], labels[i]
            else:
                labels[i] = labels[j]
            mutant = _relabeled(cp, labels)
            want = tuple(Violation(*v) for v in label_violations_reference(mutant))
            assert validate_characteristic(mutant) == ValidityReport(not want, want)
            kinds |= {v.kind for v in want}
            valid += not want
            count += 1
    assert kinds == {"summand"} and 0 < valid < count


def test_codim_above_rank_reported():
    # Square with k = 1: vertices have codimension 2 > 1.
    pair = CharacteristicPair(
        square_poset(), 1, {f"E{i}": PrimitiveVector((1,)) for i in range(4)}
    )
    report = validate_characteristic(pair)
    assert not report.valid
    assert {v.kind for v in report.violations} == {"codim-rank"}


def test_validate_requires_valid_poset():
    bad = FacePoset([("T", 0), ("T2", 0), ("E", 1)], [("E", "T")], 1)
    pair = CharacteristicPair(bad, 1, {"E": PrimitiveVector((1,))})
    with pytest.raises(CharPairError):
        validate_characteristic(pair)


def test_validity_matches_minor_gcd_oracle_exhaustive_k2():
    vocab = primitive_box_vectors(2, 1)
    for poset in (triangle_poset(),):
        facets = poset.facets()
        for labels in itertools.product(vocab, repeat=len(facets)):
            cp = CharacteristicPair(poset, 2, dict(zip(facets, labels)))
            expected = all(
                minor_gcd_is_summand(cp.star_matrix(f)) and poset.codim(f) <= 2
                for f in poset.ids()
            )
            assert validate_characteristic(cp).valid == expected


def test_validity_matches_minor_gcd_oracle_random_k3():
    rng = random.Random(41)
    poset = pentagon_poset()
    facets = poset.facets()
    vocab = primitive_box_vectors(3, 2)
    for _ in range(300):
        labels = [rng.choice(vocab) for _ in facets]
        cp = CharacteristicPair(poset, 3, dict(zip(facets, labels)))
        expected = all(
            minor_gcd_is_summand(cp.star_matrix(f)) for f in poset.ids()
        ) and all(poset.codim(f) <= 3 for f in poset.ids())
        assert validate_characteristic(cp).valid == expected


def test_validity_gl_invariant():
    rng = random.Random(43)
    cp = cp_pair(2)
    bad = square_pair([(1, 0), (0, 1), (2, 1), (0, 1)])
    for _ in range(100):
        a = random_unimodular(2, rng)
        assert validate_characteristic(relabel(cp, a)).valid
        assert not validate_characteristic(relabel(bad, a)).valid


def test_rename_faces_roundtrip():
    cp = cp_pair(2)
    ids = cp.poset.ids()
    mapping = {f: f"x{f}" for f in ids}
    renamed = rename_faces(cp, mapping)
    assert sorted(renamed.poset.ids()) == sorted(mapping.values())
    assert validate_characteristic(renamed).valid
    with pytest.raises(CharPairError):
        rename_faces(cp, {f: "same" for f in ids})


def test_half_plane_pair():
    cp = half_plane_pair()
    assert validate_characteristic(cp).valid
    assert len(saturate(cp.star_matrix("E"))) == 1


def test_attestations_parsing():
    a = Attestations.from_dict({"sections_exist": True})
    assert a.sections_exist and not a.faces_contractible
    with pytest.raises(CharPairError):
        Attestations.from_dict({"bogus": True})
    with pytest.raises(CharPairError):
        Attestations.from_dict({"sections_exist": "yes"})
