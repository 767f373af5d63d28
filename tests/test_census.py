import os
import subprocess
import sys
from collections import Counter
from itertools import product
from math import comb, factorial, gcd, prod
from operator import itemgetter
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
from lstorus.classify import canonical_form, poset_automorphisms
from lstorus.faceposet import FacePoset
from lstorus.fixtures import (
    cube_poset,
    half_plane_poset,
    pentagon_poset,
    polygon_poset,
    prism_poset,
    product_poset,
    simplex_poset,
    square_poset,
    triangle_poset,
)

from oracles import (
    census_bruteforce,
    count_primitive_vectors_in_box_reference,
    census_classes_pairwise,
    deduplicate_reference,
    enumerate_labelings_reference,
)


def brute_force_count(poset, k, bound):
    vocab = primitive_vectors_in_box(k, bound)
    return census_bruteforce(poset, k, vocab)


def test_primitive_vectors_in_box():
    vs = primitive_vectors_in_box(2, 1)
    assert vs == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(primitive_vectors_in_box(2, 2)) == 8
    with pytest.raises(CensusError):
        primitive_vectors_in_box(2, 0)


def test_primitive_vectors_in_box_order_matches_a_sign_normalised_sieve():
    def normalised(t):
        first = next(x for x in t if x)
        return t if first > 0 else tuple(-x for x in t)

    for k in range(1, 5):
        for bound in range(1, 5):
            box = product(range(-bound, bound + 1), repeat=k)
            expected = sorted({normalised(t) for t in box if gcd(*t) == 1})
            got = primitive_vectors_in_box(k, bound)
            assert got == expected, (k, bound)
    assert primitive_vectors_in_box(1, 3) == [(1,)]


def test_count_primitive_vectors_in_box_matches_the_box():
    for k in range(1, 5):
        for bound in range(1, 9):
            got = count_primitive_vectors_in_box(k, bound)
            assert got == len(primitive_vectors_in_box(k, bound)), (k, bound)
    with pytest.raises(CensusError):
        count_primitive_vectors_in_box(2, 0)


def test_count_primitive_vectors_in_box_matches_the_full_sieve():
    # Both sides of the bound^(2/3) split of the Mertens function, and the
    # blocks of equal bound // d, against one sieve up to the bound.
    for k in (1, 2, 3, 5):
        for bound in [*range(1, 300), 1000, 4321]:
            expected = count_primitive_vectors_in_box_reference(k, bound)
            assert count_primitive_vectors_in_box(k, bound) == expected, (k, bound)
    for bound in (10 ** 5, 10 ** 6):
        for k in (1, 2, 3):
            expected = count_primitive_vectors_in_box_reference(k, bound)
            assert count_primitive_vectors_in_box(k, bound) == expected, (k, bound)


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
        # The 3-cube as a product: the other facets of different faces reach
        # the same label sets in different position orders.
        (product_poset(square_poset(), simplex_poset(1)), 3, 1),
    ],
    ids=[
        "prism", "simplex3", "pentagon-B3", "hexagon-B2", "square-B4", "square-B3",
        "pentagon-B2", "hexagon-B1", "triangle", "star6", "square-k1", "no-facets",
        "star1500", "square-k3", "triangle-k4", "cube3-product",
    ],
)
def test_enumerate_labelings_matches_reference(poset, k, bound):
    spec = CensusSpec(poset, k, bound)
    assert enumerate_labelings(spec) == enumerate_labelings_reference(spec)


@pytest.mark.parametrize(
    "poset,k,bound,reductions",
    [
        (prism_poset(), 3, 1, 82),
        (simplex_poset(3), 3, 1, 82),
        (pentagon_poset(), 2, 3, 16),
        (polygon_poset(6), 2, 2, 8),
        (product_poset(square_poset(), simplex_poset(1)), 3, 1, 82),
    ],
    ids=["prism", "simplex3", "pentagon-B3", "hexagon-B2", "cube3-product"],
)
def test_enumerate_labelings_reduces_each_label_multiset_once(
    monkeypatch, poset, k, bound, reductions
):
    # One Hermite reduction per distinct non-empty multiset of labels on a
    # face's other facets, whatever order the facets come in; a face whose
    # only facet is the current one needs none.
    calls = []
    extension_mask = census.summand_extension_mask
    monkeypatch.setattr(
        census,
        "summand_extension_mask",
        lambda rows, vectors: calls.append(rows) or extension_mask(rows, vectors),
    )
    enumerate_labelings(CensusSpec(poset, k, bound))
    assert all(calls)
    assert len({tuple(sorted(rows)) for rows in calls}) == len(calls) == reductions


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


@pytest.mark.parametrize(
    "poset,k,bound,classes,order,total",
    [
        (pentagon_poset(), 2, 3, 184, 10, 1840),
        (simplex_poset(3), 3, 1, 52, 24, 1248),
        (square_poset(), 2, 3, 146, 8, 578),
        (polygon_poset(6), 2, 2, 300, 12, 2450),
        (prism_poset(), 3, 1, 1064, 12, 10164),
        (cube_poset(3), 3, 1, 4000, 48, 88926),
    ],
    ids=["pentagon", "simplex3", "square", "hexagon", "prism", "cube3"],
)
def test_strong_class_count_matches_burnside(poset, k, bound, classes, order, total):
    # Burnside's lemma: the number of Aut(P)-orbits on the labelings is the
    # mean over the group of the number of labelings each element fixes.
    facets = tuple(poset.facets())
    pos = {f: i for i, f in enumerate(facets)}
    group = {tuple(pos[phi[f]] for f in facets) for phi in poset_automorphisms(poset)}
    labelings = enumerate_labelings(CensusSpec(poset, k, bound))
    fixed = sum(
        sum(map(tuple.__eq__, map(itemgetter(*perm), labelings), labelings))
        for perm in group
    )
    assert (len(group), len(labelings)) == (order, total)
    assert fixed % len(group) == 0
    assert fixed // len(group) == classes
    result = enumerate_census(CensusSpec(poset, k, bound, dedup="strong"))
    assert len(result.classes) == classes
    assert sum(size for _, size in result.classes) == result.total_valid == total


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


def test_census_budget_counts_the_box_walk():
    # One facet: the box's 48,928 labels pass the box^facets check, but
    # listing the box walks 401^2 points, more than the budget.
    spec = CensusSpec(half_plane_poset(), 2, 200, budget=10 ** 5)
    assert count_primitive_vectors_in_box(2, 200) <= spec.budget
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_census(spec)
    assert exc.value.estimate == 401 ** 2
    # The box^facets check comes first and keeps its estimate.
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_census(CensusSpec(half_plane_poset(), 2, 200, budget=10))
    assert exc.value.estimate == count_primitive_vectors_in_box(2, 200)
    # At k = 1 nothing walks the line, so the bound costs nothing.
    result = enumerate_census(CensusSpec(half_plane_poset(), 1, 10 ** 6, budget=10))
    assert result.total_valid == 1
    # Nor does a facet-free poset list the box.
    bare = FacePoset([("T", 0)], [], 3)
    result = enumerate_census(CensusSpec(bare, 2, 10 ** 6, budget=10))
    assert result.total_valid == 1


def test_census_rejects_bad_spec():
    with pytest.raises(CensusError):
        CensusSpec(square_poset(), 0, 1)
    with pytest.raises(CensusError):
        CensusSpec(square_poset(), 2, 1, dedup="fancy")
    with pytest.raises(CensusError):
        CensusSpec(square_poset(), 2, 1, budget=0)


def test_census_rejects_counts_that_are_not_ints():
    for bad in ({"k": 2.0}, {"k": "2"}, {"k": True}, {"entry_bound": 1.5},
                {"entry_bound": False}, {"budget": 10.5}, {"budget": None}):
        name, value = next(iter(bad.items()))
        kwargs = {"k": 2, "entry_bound": 1, **bad}
        with pytest.raises(CensusError, match=f"^{name} must be an int, got "):
            CensusSpec(square_poset(), **kwargs)
    # Int values keep their messages.
    with pytest.raises(CensusError, match="^torus rank must be >= 1$"):
        CensusSpec(square_poset(), 0, 1)


def test_census_requires_valid_poset():
    bad = FacePoset([("T", 0), ("T2", 0)], [], 1)
    with pytest.raises(CensusError):
        enumerate_census(CensusSpec(bad, 2, 1))
