import os
import subprocess
import sys
from collections import Counter
from math import comb, factorial, prod
from pathlib import Path

import pytest

from lstorus import census
from lstorus.census import (
    BudgetExceededError,
    CensusClass,
    CensusError,
    CensusSpec,
    count_primitive_vectors_in_box,
    enumerate_census,
    enumerate_labelings,
    primitive_vectors_in_box,
)
from lstorus.classify import canonical_form
from lstorus.faceposet import FacePoset
from lstorus.fixtures import (
    cube_poset,
    pentagon_poset,
    polygon_poset,
    prism_poset,
    simplex_poset,
    square_poset,
    triangle_poset,
)

from oracles import (
    census_bruteforce,
    census_classes_pairwise,
    deduplicate_reference,
    enumerate_labelings_reference,
)


def brute_force_count(poset, k, bound):
    vocab = [v.coords for v in primitive_vectors_in_box(k, bound)]
    return census_bruteforce(poset, k, vocab)


def test_primitive_vectors_in_box():
    vs = primitive_vectors_in_box(2, 1)
    assert [v.coords for v in vs] == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(primitive_vectors_in_box(2, 2)) == 8
    with pytest.raises(CensusError):
        primitive_vectors_in_box(2, 0)


def test_count_primitive_vectors_in_box_matches_the_box():
    for k in range(1, 5):
        for bound in range(1, 9):
            got = count_primitive_vectors_in_box(k, bound)
            assert got == len(primitive_vectors_in_box(k, bound)), (k, bound)
    with pytest.raises(CensusError):
        count_primitive_vectors_in_box(2, 0)


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize(
    "poset", [triangle_poset(), square_poset()], ids=["triangle", "square"]
)
def test_census_matches_bruteforce(poset, bound):
    spec = CensusSpec(poset=poset, k=2, entry_bound=bound)
    result = enumerate_census(spec)
    expected = brute_force_count(poset, 2, bound)
    assert result.total_valid == len(expected)
    got_labelings = sorted(c.representative for c in result.classes)
    # Facet order inside labelings matches: facets sorted by id both ways.
    assert got_labelings == sorted(expected)


@pytest.mark.parametrize("bound", [1, 2])
def test_census_pentagon_matches_bruteforce(bound):
    spec = CensusSpec(poset=pentagon_poset(), k=2, entry_bound=bound)
    result = enumerate_census(spec)
    expected = brute_force_count(pentagon_poset(), 2, bound)
    assert result.total_valid == len(expected)


def test_census_rank3_matches_bruteforce():
    # Faces of the tetrahedron have up to three facets, so this puts
    # three-element keys through the memoised summand test.
    poset = simplex_poset(3)
    result = enumerate_census(CensusSpec(poset=poset, k=3, entry_bound=1))
    expected = brute_force_count(poset, 3, 1)
    assert result.total_valid == len(expected)
    assert {c.representative for c in result.classes} == set(expected)


@pytest.mark.parametrize(
    "poset,k,bound,total",
    [
        (prism_poset(), 3, 1, 10164),
        (simplex_poset(3), 3, 1, 1248),
        (pentagon_poset(), 2, 3, 1840),
        (polygon_poset(6), 2, 2, 2450),
        (square_poset(), 2, 4, 994),
        (cube_poset(3), 3, 1, 88926),
        (square_poset(), 3, 1, 13338),
        (triangle_poset(), 4, 1, 46920),
        (square_poset(), 1, 2, 0),
    ],
    ids=[
        "prism", "simplex3", "pentagon", "hexagon", "square", "cube3",
        "square-k3", "triangle-k4", "square-k1",
    ],
)
def test_census_known_counts(poset, k, bound, total):
    assert enumerate_census(CensusSpec(poset, k, bound)).total_valid == total


def _star_poset(n):
    facets = [f"F{i:04d}" for i in range(n)]
    return FacePoset([("T", 0)] + [(f, 1) for f in facets], [(f, "T") for f in facets], 1)


@pytest.mark.parametrize(
    "poset,k,bound",
    [
        # The (poset, k, B) settings of the benchmark's census workloads.
        (prism_poset(), 3, 1),
        (simplex_poset(3), 3, 1),
        (pentagon_poset(), 2, 3),
        (polygon_poset(6), 2, 2),
        (square_poset(), 2, 4),
        (square_poset(), 2, 3),
        (pentagon_poset(), 2, 2),
        (polygon_poset(6), 2, 1),
        (triangle_poset(), 3, 1),
        (_star_poset(6), 2, 1),
        # Every vertex has two facets, more than k: no labeling at all.
        (square_poset(), 1, 2),
        (FacePoset([("T", 0)], [], 3), 2, 1),
        (_star_poset(1500), 1, 1),
        # k above the orbit dimension: every face mask is taken over a
        # quotient of rank 2 or more.
        (square_poset(), 3, 1),
        (triangle_poset(), 4, 1),
    ],
    ids=[
        "prism", "simplex3", "pentagon-B3", "hexagon-B2", "square-B4", "square-B3",
        "pentagon-B2", "hexagon-B1", "triangle", "star6", "square-k1", "no-facets",
        "star1500", "square-k3", "triangle-k4",
    ],
)
def test_enumerate_labelings_matches_reference(poset, k, bound):
    spec = CensusSpec(poset, k, bound)
    assert enumerate_labelings(spec) == enumerate_labelings_reference(spec)


def _classes_by_canonical_form(spec, result, labelings):
    groups = {}
    for lab in labelings:
        key = canonical_form(result.pair_for(spec, lab), spec.dedup)
        groups.setdefault(key, []).append(lab)
    return sorted((min(members), len(members)) for members in groups.values())


_POSETS = {
    "square": square_poset,
    "triangle": triangle_poset,
    "simplex3": lambda: simplex_poset(3),
}


@pytest.mark.parametrize(
    "name,k,bound,dedup",
    [
        (name, 2, bound, dedup)
        for name in ("square", "triangle")
        for bound in (1, 2)
        for dedup in ("strong", "weak")
    ]
    + [("simplex3", 3, 1, "strong")],
)
def test_census_classes_match_references(name, k, bound, dedup):
    # Two references that share no code with the orbit dedup: pairwise
    # comparison by the exhaustive-bijection oracle, and grouping by
    # canonical_form.
    poset = _POSETS[name]()
    spec = CensusSpec(poset, k, bound, dedup=dedup)
    result = enumerate_census(spec)
    everything = enumerate_census(CensusSpec(poset, k, bound))
    labelings = [c.representative for c in everything.classes]
    got = [(c.representative, c.size) for c in result.classes]
    assert got == census_classes_pairwise(
        labelings, lambda lab: result.pair_for(spec, lab), dedup
    )
    assert got == _classes_by_canonical_form(spec, result, labelings)


def _automorphisms(poset):
    from lstorus.census import _facet_permutations

    facets = tuple(f for f in poset.linear_extension() if poset.codim(f) == 1)
    return list(_facet_permutations(poset, facets))


@pytest.mark.parametrize("dedup", ["strong", "weak"])
@pytest.mark.parametrize(
    "poset,k,bound",
    [
        # The weak settings of the benchmark's census-dedup workload.
        (square_poset(), 2, 3),
        (pentagon_poset(), 2, 2),
        (polygon_poset(6), 2, 1),
        (triangle_poset(), 3, 1),
        # Larger or other shapes: the square with k = 3 has 13,338 labelings.
        (polygon_poset(6), 2, 2),
        (square_poset(), 3, 1),
        (simplex_poset(3), 3, 1),
        (_star_poset(6), 2, 1),
        (_star_poset(5), 1, 3),
        (FacePoset([("T", 0)], [], 3), 2, 1),
    ],
    ids=[
        "square-B3", "pentagon-B2", "hexagon-B1", "triangle-k3", "hexagon-B2",
        "square-k3", "simplex3", "star6", "star5-k1", "no-facets",
    ],
)
def test_deduplicate_matches_reference(poset, k, bound, dedup):
    # Same classes, representatives, sizes and order as keying every member
    # of every strong orbit.
    from lstorus.census import _deduplicate

    labelings = enumerate_labelings(CensusSpec(poset, k, bound))
    group = _automorphisms(poset)
    got = _deduplicate(dedup, labelings, iter(group))
    assert got == deduplicate_reference(dedup, labelings, group)
    assert sum(c.size for c in got) == len(labelings)


def test_weak_dedup_on_labelings_not_closed_under_coordinate_permutations():
    # Automorphisms keep the label multiset, so the labelings that use (1, 1)
    # are a union of strong orbits; swapping the coordinates or negating one
    # moves some of them out of the set, and such an image joins nothing.
    from lstorus.census import _deduplicate

    spec = CensusSpec(square_poset(), 2, 2)
    labelings = [lab for lab in enumerate_labelings(spec) if (1, 1) in lab]
    group = _automorphisms(spec.poset)
    got = _deduplicate("weak", labelings, iter(group))
    assert got == deduplicate_reference("weak", labelings, group)
    assert len(got) > 1


def test_weak_census_keys_a_fraction_of_its_labelings(monkeypatch):
    # Strong orbits that a signed coordinate permutation joins share a weak
    # key, so the normal form runs on one orbit per joined component.
    calls = []
    normal_form = census.gl_sign_normal_form
    monkeypatch.setattr(
        census, "gl_sign_normal_form", lambda m: calls.append(m) or normal_form(m)
    )
    result = enumerate_census(CensusSpec(triangle_poset(), 3, 1, dedup="weak"))
    assert result.total_valid == 1170
    assert [c.size for c in result.classes] == [132, 870, 96, 72]
    assert 0 < len(calls) <= result.total_valid // 10


def test_weak_census_cube3_known_answer():
    result = enumerate_census(CensusSpec(cube_poset(3), 3, 1, dedup="weak"))
    assert result.total_valid == 88926
    assert len(result.classes) == 44
    assert Counter(c.size for c in result.classes) == {
        144: 2, 288: 6, 360: 1, 432: 2, 576: 1, 720: 2, 864: 5, 870: 1, 936: 1,
        1152: 1, 1440: 1, 1512: 2, 1728: 2, 1872: 2, 2304: 5, 2880: 1, 3744: 4,
        4608: 2, 5400: 1, 9216: 1, 11520: 1,
    }


def test_census_star_strong_classes_are_label_multisets():
    # Every facet permutation is an automorphism of the star and every
    # labeling is valid, so a strong class is a multiset of 6 labels from a
    # box of 4: C(9, 3) = 84 classes of 4^6 = 4096 labelings.
    result = enumerate_census(CensusSpec(_star_poset(6), 2, 1, dedup="strong"))
    assert result.total_valid == 4096
    assert len(result.classes) == comb(9, 3) == 84
    for c in result.classes:
        assert c.representative == tuple(sorted(c.representative))
        counts = Counter(c.representative).values()
        assert c.size == factorial(6) // prod(factorial(m) for m in counts)


def test_census_dedup_rejects_a_bogus_automorphism():
    # Swapping two adjacent edges of the square is no automorphism: some
    # labeling's image is not a valid labeling, which is an internal error
    # (an exception, not an assert, so it also fires under python -O).
    from lstorus.census import _deduplicate, _facet_permutations

    poset = square_poset()
    result = enumerate_census(CensusSpec(poset, 2, 1))
    labelings = [c.representative for c in result.classes]
    group = list(_facet_permutations(poset, result.facet_order))
    assert len(group) == 8
    bogus = (1, 0, 2, 3)
    assert bogus not in group
    with pytest.raises(RuntimeError, match="^internal: an automorphism moves"):
        _deduplicate("strong", labelings, iter(group + [bogus]))
    with pytest.raises(RuntimeError, match="^internal: a labeling is missing"):
        _deduplicate("strong", labelings, iter([]))


@pytest.mark.parametrize("dedup", ["strong", "weak"])
def test_census_dedup_stops_once_every_labeling_has_a_class(dedup):
    from lstorus.census import _deduplicate

    def identity_then_fail():
        yield (0, 1, 2)
        raise AssertionError("asked for a second automorphism")

    lab = ((1, 0),) * 3
    assert _deduplicate(dedup, [lab], identity_then_fail()) == (CensusClass(lab, 1),)


def test_census_facet_free_poset():
    poset = FacePoset([("T", 0)], [], 3)
    for dedup in ("none", "strong", "weak"):
        result = enumerate_census(CensusSpec(poset, 2, 1, dedup=dedup))
        assert result.total_valid == 1
        assert result.classes == (CensusClass((), 1),), dedup


def test_census_dedup_quotient_inequalities():
    poset = square_poset()
    total = enumerate_census(CensusSpec(poset, 2, 1, dedup="none"))
    strong = enumerate_census(CensusSpec(poset, 2, 1, dedup="strong"))
    weak = enumerate_census(CensusSpec(poset, 2, 1, dedup="weak"))
    assert total.total_valid == strong.total_valid == weak.total_valid
    n_weak = len(weak.classes)
    n_strong = len(strong.classes)
    assert n_weak <= n_strong <= total.total_valid
    assert sum(c.size for c in strong.classes) == total.total_valid
    assert sum(c.size for c in weak.classes) == total.total_valid
    assert all(c.size >= 1 for c in strong.classes)


def test_census_dedup_representatives_inequivalent():
    from lstorus.classify import strong_equivalence, weak_equivalence

    spec = CensusSpec(square_poset(), 2, 1, dedup="strong")
    result = enumerate_census(spec)
    pairs = [result.pair_for(spec, c.representative) for c in result.classes]
    for i, x in enumerate(pairs):
        for y in pairs[i + 1 :]:
            assert not strong_equivalence(x, y).equivalent
    wspec = CensusSpec(square_poset(), 2, 1, dedup="weak")
    wresult = enumerate_census(wspec)
    wpairs = [wresult.pair_for(wspec, c.representative) for c in wresult.classes]
    for i, x in enumerate(wpairs):
        for y in wpairs[i + 1 :]:
            assert not weak_equivalence(x, y).equivalent


def test_census_dedup_idempotent():
    spec = CensusSpec(triangle_poset(), 2, 1, dedup="strong")
    result = enumerate_census(spec)
    keys = [
        canonical_form(result.pair_for(spec, c.representative), "strong")
        for c in result.classes
    ]
    assert len(set(keys)) == len(keys)


def test_census_result_independent_of_hash_seed():
    # Fresh interpreters under two hash seeds: a census that leaned on set or
    # dict order of hashed strings would differ between them.  The hexagon's
    # edge ids iterate in different orders under these two seeds.  The
    # triangle with k = 3 joins strong orbits across coordinate permutations.
    code = (
        "from lstorus.census import CensusSpec, enumerate_census\n"
        "from lstorus.fixtures import polygon_poset, triangle_poset\n"
        "print(repr(enumerate_census(CensusSpec(polygon_poset(6), 2, 1, dedup='weak'))))\n"
        "print(repr(enumerate_census(CensusSpec(triangle_poset(), 3, 1, dedup='weak'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            check=True,
            env=dict(env, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    hexagon, triangle = outs[0].splitlines()
    assert hexagon.startswith(b"CensusResult(total_valid=298,")
    assert triangle.startswith(b"CensusResult(total_valid=1170,")


def test_census_budget_guard():
    spec = CensusSpec(square_poset(), 2, 2, budget=10)
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_census(spec)
    assert exc.value.estimate == 8 ** 4


def test_census_rejects_bad_spec():
    with pytest.raises(CensusError):
        CensusSpec(square_poset(), 0, 1)
    with pytest.raises(CensusError):
        CensusSpec(square_poset(), 2, 1, dedup="fancy")
    with pytest.raises(CensusError):
        CensusSpec(square_poset(), 2, 1, budget=0)


def test_census_requires_valid_poset():
    bad = FacePoset([("T", 0), ("T2", 0)], [], 1)
    with pytest.raises(CensusError):
        enumerate_census(CensusSpec(bad, 2, 1))
