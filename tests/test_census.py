import pytest

from lstorus.census import (
    BudgetExceededError,
    CensusError,
    CensusSpec,
    enumerate_census,
    orbit_count_invariants,
    primitive_vectors_in_box,
)
from lstorus.charpair import CharacteristicPair
from lstorus.faceposet import FacePoset
from lstorus.fixtures import (
    cp_pair,
    cube_poset,
    half_plane_pair,
    pentagon_poset,
    polygon_poset,
    prism_poset,
    simplex_poset,
    square_poset,
    triangle_poset,
)
from lstorus.lattice import PrimitiveVector

from oracles import census_bruteforce


def brute_force_count(poset, k, bound):
    vocab = [v.coords for v in primitive_vectors_in_box(k, bound)]
    return census_bruteforce(poset, k, vocab)


def test_primitive_vectors_in_box():
    vs = primitive_vectors_in_box(2, 1)
    assert [v.coords for v in vs] == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(primitive_vectors_in_box(2, 2)) == 8
    with pytest.raises(CensusError):
        primitive_vectors_in_box(2, 0)


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
    ],
    ids=["prism", "simplex3", "pentagon", "hexagon", "square", "cube3"],
)
def test_census_known_counts(poset, k, bound, total):
    assert enumerate_census(CensusSpec(poset, k, bound)).total_valid == total


def test_census_dedup_fallback_above_canonical_bound(monkeypatch):
    # Force the pairwise-decider path that normally only triggers for posets
    # beyond the canonical-form size limit, and compare with the normal path.
    import lstorus.census as census_mod

    spec_s = CensusSpec(square_poset(), 2, 1, dedup="strong")
    spec_w = CensusSpec(square_poset(), 2, 1, dedup="weak")
    via_canon_s = enumerate_census(spec_s)
    via_canon_w = enumerate_census(spec_w)
    monkeypatch.setattr(census_mod, "CANONICAL_FORM_MAX_FACES", 0)
    via_pairwise_s = enumerate_census(spec_s)
    via_pairwise_w = enumerate_census(spec_w)
    assert via_pairwise_s == via_canon_s
    assert via_pairwise_w == via_canon_w


def test_census_facet_free_poset():
    poset = FacePoset([("T", 0)], [], 3)
    result = enumerate_census(CensusSpec(poset=poset, k=2, entry_bound=1))
    assert result.total_valid == 1
    assert result.classes[0].representative == ()


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
    from lstorus.classify import canonical_form

    keys = [
        canonical_form(result.pair_for(spec, c.representative), "strong")
        for c in result.classes
    ]
    assert len(set(keys)) == len(keys)


def test_census_thread_determinism():
    spec = CensusSpec(square_poset(), 2, 2, dedup="strong")
    assert enumerate_census(spec) == enumerate_census(spec)


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


def test_orbit_count_invariants():
    sq = orbit_count_invariants(
        CharacteristicPair(
            square_poset(),
            2,
            {f"E{i}": PrimitiveVector(v) for i, v in enumerate([(1, 0), (0, 1), (1, 0), (0, 1)])},
        )
    )
    assert sq["faces_per_codim"] == {0: 1, 1: 4, 2: 4}
    assert sq["fixed_points"] == 4
    tri = orbit_count_invariants(cp_pair(2))
    assert tri["fixed_points"] == 3
    half = orbit_count_invariants(half_plane_pair())
    assert half["fixed_points"] == 0
    taller = orbit_count_invariants(half_plane_pair(3))
    assert taller["fixed_points"] is None
