import itertools
import random

import pytest

from lstorus.charpair import (
    CharacteristicPair,
    relabel,
    rename_faces,
    validate_characteristic,
)
from lstorus.classify import (
    CanonicalFormError,
    IsoWitness,
    canonical_form,
    has_four_dim_faces,
    strong_equivalence,
    verify_witness,
    weak_equivalence,
)
from lstorus.fixtures import (
    cp_pair,
    cube_pair,
    cube_poset,
    half_plane_pair,
    hirzebruch_pair,
    pentagon_poset,
    polygon_pair,
    prism_pair,
    prism_poset,
    product_poset,
    square_pair,
)
from lstorus.lattice import (
    PrimitiveVector,
    apply_auto,
    mat_mul,
    random_unimodular,
)

from oracles import exhaustive_pair_equivalent


SQUARE_STD = [(1, 0), (0, 1), (1, 0), (0, 1)]


def shuffled_copy(cp, rng):
    """Same pair with fresh ids, exercising id-independence of everything."""
    ids = cp.poset.ids()
    perm = ids[:]
    rng.shuffle(perm)
    return rename_faces(cp, {f: f"n{i}_{p}" for i, (f, p) in enumerate(zip(ids, perm))})


def test_pair_vs_itself_identity_witness():
    cp = cp_pair(2)
    verdict = strong_equivalence(cp, cp)
    assert verdict.equivalent
    assert verdict.witness.phi == {f: f for f in cp.poset.ids()}
    assert verify_witness(cp, cp, verdict.witness, "strong")


def test_square_cyclic_relabeling_equivalent():
    a = square_pair(SQUARE_STD)
    b = square_pair([(0, 1), (1, 0), (0, 1), (1, 0)])
    verdict = strong_equivalence(a, b)
    assert verdict.equivalent
    assert verify_witness(a, b, verdict.witness, "strong")
    assert exhaustive_pair_equivalent(a, b, "strong")


def test_square_distinct_multisets_not_equivalent():
    a = square_pair(SQUARE_STD)
    b = square_pair([(1, 0), (0, 1), (1, 0), (1, 1)])
    verdict = strong_equivalence(a, b)
    assert not verdict.equivalent
    assert not exhaustive_pair_equivalent(a, b, "strong")
    # Also weakly inequivalent: 2 distinct labels vs 3 is a GL-invariant.
    weak = weak_equivalence(a, b)
    assert not weak.equivalent
    assert "class size" in weak.reason


def test_weak_shear_equivalent():
    a = square_pair(SQUARE_STD)
    shear = ((1, 1), (0, 1))
    b = relabel(a, shear)
    verdict = weak_equivalence(a, b)
    assert verdict.equivalent
    assert verdict.witness.auto is not None
    assert verify_witness(a, b, verdict.witness, "weak")
    # Strong equivalence must fail: (1,1) is not among the original labels.
    assert not strong_equivalence(a, b).equivalent


def test_strong_implies_weak():
    a = square_pair(SQUARE_STD)
    b = square_pair([(0, 1), (1, 0), (0, 1), (1, 0)])
    assert strong_equivalence(a, b).equivalent
    assert weak_equivalence(a, b).equivalent


def test_mismatched_k_is_verdict_not_exception():
    a = half_plane_pair(k=2)
    b = half_plane_pair(k=3)
    verdict = strong_equivalence(a, b)
    assert not verdict.equivalent
    assert "k differs" in verdict.reason


def test_mismatched_dim_orbit():
    tri = cp_pair(2)
    half = CharacteristicPair(
        half_plane_pair(2).poset, 2, {"E": PrimitiveVector((1, 0))}
    )
    verdict = strong_equivalence(tri, half)
    assert not verdict.equivalent
    assert verdict.reason


def test_verify_witness_rejects_identity_between_distinct():
    a = square_pair(SQUARE_STD)
    b = square_pair([(1, 0), (0, 1), (1, 2), (0, 1)])
    ident = IsoWitness(phi={f: f for f in a.poset.ids()})
    assert not verify_witness(a, b, ident, "strong")


def test_verify_witness_rejects_wrong_auto():
    a = square_pair(SQUARE_STD)
    b = relabel(a, ((1, 1), (0, 1)))
    verdict = weak_equivalence(a, b)
    assert verdict.equivalent
    bad = IsoWitness(phi=verdict.witness.phi, auto=((1, 0), (0, 1)))
    assert not verify_witness(a, b, bad, "weak")


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_failed_reverification_raises(monkeypatch, mode):
    # The re-verification is an explicit check, so it also runs under -O.
    import lstorus.classify as classify

    monkeypatch.setattr(classify, "verify_witness", lambda *args: False)
    cp = hirzebruch_pair(1)
    decide = strong_equivalence if mode == "strong" else weak_equivalence
    with pytest.raises(RuntimeError, match="re-verification"):
        decide(cp, shuffled_copy(cp, random.Random(3)))


def test_verify_witness_rejects_malformed():
    a = square_pair(SQUARE_STD)
    assert not verify_witness(a, a, IsoWitness(phi={}), "strong")
    partial = {f: f for f in a.poset.ids()[:-1]}
    assert not verify_witness(a, a, IsoWitness(phi=partial), "strong")
    ident = {f: f for f in a.poset.ids()}
    assert not verify_witness(a, a, IsoWitness(phi=ident), "weak")  # no auto
    assert not verify_witness(
        a, a, IsoWitness(phi=ident, auto=((2, 0), (0, 1))), "weak"
    )
    assert not verify_witness(a, a, IsoWitness(phi=ident), "sideways")
    # Booleans are ints to isinstance, but no matrix entry.
    cube = cube_pair(2)
    phi = {f: f for f in cube.poset.ids()}
    assert verify_witness(cube, cube, IsoWitness(phi, ((1, 0), (0, 1))), "weak")
    assert not verify_witness(
        cube, cube, IsoWitness(phi, ((True, False), (False, True))), "weak"
    )
    # Rows that are not sequences are a flaw, not an exception.
    assert not verify_witness(cube, cube, IsoWitness(phi, (1, 2)), "weak")
    assert not verify_witness(cube, cube, IsoWitness(phi, ((1, 0), None)), "weak")


def test_decider_matches_oracle_randomized():
    rng = random.Random(101)
    fixtures = [
        cp_pair(2),
        square_pair(SQUARE_STD),
        square_pair([(1, 0), (0, 1), (1, 2), (0, 1)]),
        hirzebruch_pair(1),
        half_plane_pair(),
        CharacteristicPair(
            pentagon_poset(),
            2,
            {
                "E0": (1, 0),
                "E1": (0, 1),
                "E2": (1, 0),
                "E3": (0, 1),
                "E4": (1, 1),
            },
        ),
    ]
    for _ in range(40):
        base = rng.choice(fixtures)
        mode = rng.choice(["strong", "weak"])
        other = shuffled_copy(base, rng)
        if mode == "weak" and rng.random() < 0.7:
            other = relabel(other, random_unimodular(base.k, rng))
        if rng.random() < 0.5:
            # Mutate one facet label to a different primitive vector.
            labels = other.labels()
            facet = rng.choice(other.poset.facets())
            for candidate in [(1, 2), (2, 1), (1, 3), (1, 1), (0, 1), (1, 0)]:
                vec = PrimitiveVector(candidate)
                if vec != labels[facet]:
                    labels[facet] = vec
                    break
            other = CharacteristicPair(other.poset, other.k, labels, other.attestations)
        decide = strong_equivalence if mode == "strong" else weak_equivalence
        verdict = decide(base, other)
        assert verdict.equivalent == exhaustive_pair_equivalent(base, other, mode)
        if verdict.equivalent:
            assert verify_witness(base, other, verdict.witness, mode)


def test_verdict_symmetry_and_transitivity():
    rng = random.Random(103)
    for mode in ("strong", "weak"):
        for _ in range(10):
            a = hirzebruch_pair(rng.randrange(-2, 3))
            b = shuffled_copy(a, rng)
            c = shuffled_copy(b, rng)
            if mode == "weak":
                b = relabel(b, random_unimodular(2, rng))
                c = relabel(c, random_unimodular(2, rng))
            decide = strong_equivalence if mode == "strong" else weak_equivalence
            vab, vbc, vac = decide(a, b), decide(b, c), decide(a, c)
            vba = decide(b, a)
            assert vab.equivalent and vbc.equivalent and vac.equivalent
            assert vba.equivalent
            composed_phi = {f: vbc.witness.phi[v] for f, v in vab.witness.phi.items()}
            if mode == "strong":
                composed = IsoWitness(phi=composed_phi)
            else:
                composed = IsoWitness(
                    phi=composed_phi,
                    auto=mat_mul(vbc.witness.auto, vab.witness.auto),
                )
            assert verify_witness(a, c, composed, mode)


def test_gl_invariance_weak_always_equivalent():
    rng = random.Random(107)
    for cp in (cp_pair(2), square_pair(SQUARE_STD), hirzebruch_pair(2), half_plane_pair()):
        for _ in range(25):
            a = random_unimodular(cp.k, rng)
            assert weak_equivalence(cp, relabel(cp, a)).equivalent


def test_gl_strong_iff_subtorus_fixing_on_constant_pair():
    # With all facets sharing one label, strong equivalence with the
    # relabeled pair holds exactly when A fixes that label's subtorus.
    cp = square_pair([(1, 0), (1, 0), (1, 0), (1, 0)])
    rng = random.Random(109)
    hits = {True: 0, False: 0}
    for _ in range(120):
        a = random_unimodular(2, rng)
        fixes = apply_auto(a, PrimitiveVector((1, 0))) == PrimitiveVector((1, 0))
        verdict = strong_equivalence(cp, relabel(cp, a))
        assert verdict.equivalent == fixes
        hits[fixes] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_gl_strong_fixing_implies_equivalent():
    rng = random.Random(113)
    cp = cp_pair(2)
    for _ in range(60):
        a = random_unimodular(2, rng)
        labels = cp.labels()
        if all(apply_auto(a, v) == v for v in labels.values()):
            assert strong_equivalence(cp, relabel(cp, a)).equivalent
        else:
            verdict = strong_equivalence(cp, relabel(cp, a))
            assert verdict.equivalent == exhaustive_pair_equivalent(
                cp, relabel(cp, a), "strong"
            )


def test_hypotheses_and_conclusion():
    a = cp_pair(2)  # fully attested fixture
    verdict = strong_equivalence(a, a)
    assert verdict.hypotheses["faces_contractible"]
    assert "equivariantly diffeomorphic" in verdict.conclusion
    bare = CharacteristicPair(a.poset, a.k, a.labels())
    verdict = strong_equivalence(bare, bare)
    assert not verdict.hypotheses["faces_contractible"]
    assert "needs" in verdict.conclusion
    assert not has_four_dim_faces(a)
    assert verdict.hypotheses["four_faces_vacuous"]


def test_has_four_dim_faces_on_cubes():
    # The 4-cube is a four-dimensional face of itself; the 3-cube has none.
    assert has_four_dim_faces(cube_pair(4))
    assert not has_four_dim_faces(cube_pair(3))
    verdict = strong_equivalence(cube_pair(4), cube_pair(4))
    assert not verdict.hypotheses["four_faces_vacuous"]


def test_canonical_form_equal_iff_equivalent_strong():
    rng = random.Random(127)
    pairs = [
        square_pair(SQUARE_STD),
        square_pair([(0, 1), (1, 0), (0, 1), (1, 0)]),
        square_pair([(1, 0), (0, 1), (1, 2), (0, 1)]),
        square_pair([(1, 0), (0, 1), (1, 0), (1, 1)]),
        hirzebruch_pair(3),
    ]
    for x in pairs:
        for y in pairs:
            same = canonical_form(x, "strong") == canonical_form(y, "strong")
            assert same == strong_equivalence(x, y).equivalent, (x, y)
    for cp in pairs:
        assert canonical_form(shuffled_copy(cp, rng), "strong") == canonical_form(
            cp, "strong"
        )


def test_canonical_form_weak():
    rng = random.Random(131)
    base = square_pair(SQUARE_STD)
    twisted = relabel(shuffled_copy(base, rng), random_unimodular(2, rng))
    assert canonical_form(base, "weak") == canonical_form(twisted, "weak")
    other = square_pair([(1, 0), (0, 1), (1, 0), (1, 1)])
    assert canonical_form(base, "weak") != canonical_form(other, "weak")
    # Strong classes refine weak classes.
    assert canonical_form(base, "strong") != canonical_form(twisted, "strong")


def test_canonical_form_weak_matches_decider_randomized():
    rng = random.Random(139)
    bases = [
        square_pair(SQUARE_STD),
        square_pair([(1, 0), (0, 1), (1, 2), (0, 1)]),
        square_pair([(1, 0), (0, 1), (1, 3), (0, 1)]),
        square_pair([(1, 0), (0, 1), (1, 0), (1, 1)]),
        CharacteristicPair(
            pentagon_poset(),
            2,
            {"E0": (1, 0), "E1": (0, 1), "E2": (1, 0), "E3": (0, 1), "E4": (1, 1)},
        ),
        CharacteristicPair(
            pentagon_poset(),
            2,
            {"E0": (1, 0), "E1": (0, 1), "E2": (1, 1), "E3": (0, 1), "E4": (1, 1)},
        ),
        cp_pair(2),
    ]
    pool = []
    for cp in bases:
        pool.append(cp)
        pool.append(relabel(shuffled_copy(cp, rng), random_unimodular(2, rng)))
    forms = {id(cp): canonical_form(cp, "weak") for cp in pool}
    for x in pool:
        for y in pool:
            same_form = forms[id(x)] == forms[id(y)]
            assert same_form == weak_equivalence(x, y).equivalent, (
                x.labels(),
                y.labels(),
            )


def test_canonical_form_weak_rank_deficient():
    rng = random.Random(137)
    base = half_plane_pair(3)
    twisted = relabel(base, random_unimodular(3, rng))
    assert canonical_form(base, "weak") == canonical_form(twisted, "weak")


def test_rank_deficient_strip_cases():
    from lstorus.faceposet import FacePoset
    from oracles import exhaustive_pair_equivalent as oracle

    strip = FacePoset(
        [("T", 0), ("E0", 1), ("E1", 1)], [("E0", "T"), ("E1", "T")], 2
    )
    a = CharacteristicPair(strip, 2, {"E0": (1, 0), "E1": (1, 0)})
    b = CharacteristicPair(strip, 2, {"E0": (0, 1), "E1": (0, 1)})
    c = CharacteristicPair(strip, 2, {"E0": (1, 0), "E1": (0, 1)})
    verdict = weak_equivalence(a, b)
    assert verdict.equivalent
    assert verdict.witness_unique is False  # labels span rank 1 < k
    assert verify_witness(a, b, verdict.witness, "weak")
    assert oracle(a, b, "weak")
    assert not weak_equivalence(a, c).equivalent
    assert not oracle(a, c, "weak")
    assert not strong_equivalence(a, b).equivalent
    assert canonical_form(a, "weak") == canonical_form(b, "weak")
    assert canonical_form(a, "weak") != canonical_form(c, "weak")


def test_canonical_form_size_bound():
    poset = cube_poset(4)
    labels = {}
    for f in poset.facets():
        axis = next(i for i, part in enumerate(f.split("|")) if part != "T")
        labels[f] = PrimitiveVector(tuple(1 if j == axis else 0 for j in range(4)))
    cp = CharacteristicPair(poset, 4, labels)
    with pytest.raises(CanonicalFormError):
        canonical_form(cp, "strong")
    # The deciders stay usable above the canonical-form bound.
    assert strong_equivalence(cp, cp).equivalent


def product_pair(a, b):
    """Block-diagonal labels on the product of the two posets."""
    top_a, top_b = a.poset.top(), b.poset.top()
    labels = {f"{f}|{top_b}": v.coords + (0,) * b.k for f, v in a.labels().items()}
    labels.update({f"{top_a}|{f}": (0,) * a.k + v.coords for f, v in b.labels().items()})
    return CharacteristicPair(product_poset(a.poset, b.poset), a.k + b.k, labels)


# Symmetric posets: base pair, and one facet with a new label that keeps the
# pair valid.  The new label also keeps the label-class sizes where a single
# facet change can (every family but cube4), so the weak negative gets past
# the precheck and the search must rule out every poset isomorphism.
KNOWN_ANSWER = {
    "cube4": (lambda: cube_pair(4), "F0|T|T|T", (1, 1, 0, 0)),
    "prism": (prism_pair, "F0|T", (1, -1, 1)),
    "cp2xcp1": (lambda: product_pair(cp_pair(2), cp_pair(1)), "F0|T", (1, -1, -1)),
    "pentagonxcp1": (
        lambda: product_pair(polygon_pair(5), cp_pair(1)), "E4|T", (1, -1, 1)
    ),
    "cp2xcp2": (lambda: product_pair(cp_pair(2), cp_pair(2)), "F0|T", (1, -1, -1, 0)),
}
# The exhaustive-bijection oracle needs ~20 s on a cube4 negative; there the
# label-class sizes (a GL(k, Z) invariant) settle the weak answer instead.
ORACLE_TOO_SLOW = {"cube4"}


def _class_sizes(cp):
    counts = {}
    for v in cp.labels().values():
        counts[v.coords] = counts.get(v.coords, 0) + 1
    return sorted(counts.values())


@pytest.mark.parametrize("mode", ["strong", "weak"])
@pytest.mark.parametrize("family", sorted(KNOWN_ANSWER))
def test_known_answers_on_symmetric_posets(family, mode):
    build, facet, new_label = KNOWN_ANSWER[family]
    base = build()
    assert validate_characteristic(base).valid
    rng = random.Random(sum(map(ord, family + mode)))
    decide = strong_equivalence if mode == "strong" else weak_equivalence

    positive = shuffled_copy(base, rng)
    if mode == "weak":
        positive = relabel(positive, random_unimodular(base.k, rng))
    verdict = decide(base, positive)
    assert verdict.equivalent
    assert verify_witness(base, positive, verdict.witness, mode)
    assert exhaustive_pair_equivalent(base, positive, mode)

    labels = base.labels()
    labels[facet] = PrimitiveVector(new_label)
    perturbed = CharacteristicPair(base.poset, base.k, labels)
    assert validate_characteristic(perturbed).valid
    negative = shuffled_copy(perturbed, rng)
    if mode == "weak":
        negative = relabel(negative, random_unimodular(base.k, rng))
    assert not decide(base, negative).equivalent
    if family in ORACLE_TOO_SLOW:
        assert _class_sizes(base) != _class_sizes(negative)
    else:
        assert _class_sizes(base) == _class_sizes(negative)
        assert not exhaustive_pair_equivalent(base, negative, mode)


def _with_label(cp, facet, label):
    labels = cp.labels()
    labels[facet] = PrimitiveVector(label)
    return CharacteristicPair(cp.poset, cp.k, labels)


def _strip_pairs():
    from lstorus.faceposet import FacePoset

    strip = FacePoset(
        [("T", 0), ("E0", 1), ("E1", 1)], [("E0", "T"), ("E1", "T")], 2
    )
    return [
        CharacteristicPair(strip, 2, {"E0": (1, 0), "E1": (1, 0)}),
        CharacteristicPair(strip, 2, {"E0": (1, 0), "E1": (0, 1)}),
        CharacteristicPair(strip, 2, {"E0": (1, 1), "E1": (1, -1)}),
    ]


CUBE3_FACETS = ("F0|T|T", "F1|T|T", "T|F0|T", "T|F1|T", "T|T|F0", "T|T|F1")
# Two valid cube3 labelings with six distinct labels each, so the weak
# colouring sees the bare cube; they are not weakly equivalent.
CUBE3_DISTINCT = [
    ((0, 0, 1), (0, 1, -1), (0, 1, 0), (1, -1, 1), (1, 0, -1), (1, 0, 1)),
    ((0, 0, 1), (0, 1, -1), (0, 1, 0), (1, 0, -1), (1, -1, -1), (1, 1, -1)),
]
# Pairs of one family: a base and valid single-facet variants that are weak
# negatives (the same label-class sizes where a single change can keep them).
WEAK_CANON_FAMILIES = {
    "cube3": lambda: [
        cube_pair(3),
        _with_label(cube_pair(3), "F0|T|T", (1, 1, 0)),
        _with_label(cube_pair(3), "F0|T|T", (1, 1, 1)),
    ],
    "prism": lambda: [prism_pair(), _with_label(prism_pair(), "F0|T", (1, -1, 1))],
    "cp2xcp1": lambda: [
        product_pair(cp_pair(2), cp_pair(1)),
        _with_label(product_pair(cp_pair(2), cp_pair(1)), "F0|T", (1, -1, -1)),
    ],
    "pentagonxcp1": lambda: [
        product_pair(polygon_pair(5), cp_pair(1)),
        _with_label(product_pair(polygon_pair(5), cp_pair(1)), "E4|T", (1, -1, 1)),
    ],
    "hirzebruch1xcp1": lambda: [
        product_pair(hirzebruch_pair(1), cp_pair(1)),
        _with_label(
            product_pair(hirzebruch_pair(1), cp_pair(1)), "E0|T", (1, -1, 0)
        ),
    ],
    "strip": _strip_pairs,
    "cube3-distinct": lambda: [
        CharacteristicPair(cube_poset(3), 3, dict(zip(CUBE3_FACETS, labels)))
        for labels in CUBE3_DISTINCT
    ],
}


@pytest.mark.parametrize("family", sorted(WEAK_CANON_FAMILIES))
def test_weak_canonical_form_agrees_with_decider(family):
    bases = WEAK_CANON_FAMILIES[family]()
    rng = random.Random(sum(map(ord, family)))
    pool = []
    for cp in bases:
        assert validate_characteristic(cp).valid
        pool.append(cp)
        pool.append(relabel(shuffled_copy(cp, rng), random_unimodular(cp.k, rng)))
    forms = [canonical_form(cp, "weak") for cp in pool]
    # Each base is weakly equivalent to its own copy and to no other base.
    assert len(set(forms)) == len(bases)
    for i, j in itertools.combinations(range(len(pool)), 2):
        same = forms[i] == forms[j]
        assert same == (i // 2 == j // 2)
        assert same == weak_equivalence(pool[i], pool[j]).equivalent, (family, i, j)


def test_weak_canonical_form_partition_matches_census_on_prism():
    """Weak classes from canonical forms equal the census weak classes on the
    prism, k=3, B=1.  Strong classes refine weak ones and the weak form is a
    strong invariant, so the forms are taken per strong class."""
    from lstorus.census import CensusSpec, enumerate_census

    strong_spec = CensusSpec(prism_poset(), 3, 1, dedup="strong")
    strong = enumerate_census(strong_spec)
    weak = enumerate_census(CensusSpec(prism_poset(), 3, 1, dedup="weak"))
    by_form = {}
    for cls in strong.classes:
        form = canonical_form(strong.pair_for(strong_spec, cls.representative), "weak")
        rep, size = by_form.get(form, (cls.representative, 0))
        by_form[form] = (min(rep, cls.representative), size + cls.size)
    assert sorted(by_form.values()) == [
        (c.representative, c.size) for c in weak.classes
    ]
    assert sum(size for _, size in by_form.values()) == weak.total_valid == 10164


def _greedy_order_by_definition(sa, col, hist):
    """The search order straight from its definition, in O(n^2) scans: the
    neighbours of a node are the nodes covering it and covered by it, label
    nodes included."""
    order, placed = [], set()
    while len(order) < len(col):
        def key(u):
            near = set(sa.up[u]) | set(sa.down[u])
            return (-sum(w in placed for w in near), hist[col[u]], col[u], u)

        u = min((u for u in range(len(col)) if u not in placed), key=key)
        order.append(u)
        placed.add(u)
    return order


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_search_order_matches_its_definition(mode):
    from lstorus.classify import _SearchPoset, _histogram, _joint_refine, _search_order

    pairs = [
        cube_pair(3),
        prism_pair(),
        hirzebruch_pair(1),
        square_pair([(1, 0), (1, 0), (1, 0), (1, 0)]),
        product_pair(cp_pair(2), cp_pair(2)),
        product_pair(polygon_pair(5), cp_pair(1)),
    ]
    for cp in pairs:
        copy = shuffled_copy(cp, random.Random(7))
        sa = _SearchPoset(copy.poset, copy.coords, mode)
        (col,) = _joint_refine([sa], [sa.init_key])
        hist = _histogram(col)
        assert _search_order(sa, col, hist) == _greedy_order_by_definition(sa, col, hist)


def _isomorphisms_by_brute_force(a, b, mode):
    """Every codimension- and cover-preserving bijection that keeps labels
    (strong) or maps label classes onto label classes (weak)."""
    pa, pb = a.poset, b.poset
    la = {f: v.coords for f, v in a.labels().items()}
    lb = {f: v.coords for f, v in b.labels().items()}
    levels = sorted({pa.codim(f) for f in pa.ids()})
    perms = [list(itertools.permutations(pb.faces_of_codim(c))) for c in levels]
    out = set()
    for images in itertools.product(*perms):
        phi = {}
        for c, image in zip(levels, images):
            phi.update(zip(pa.faces_of_codim(c), image))
        if {(phi[lo], phi[up]) for lo, up in pa.covers()} != set(pb.covers()):
            continue
        if mode == "strong":
            ok = all(la[f] == lb[phi[f]] for f in la)
        else:
            ok = all((la[f] == la[g]) == (lb[phi[f]] == lb[phi[g]]) for f in la for g in la)
        if ok:
            out.add(frozenset(phi.items()))
    return out


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_iso_candidates_are_exactly_the_isomorphisms(mode):
    from lstorus.classify import _SearchPoset, _iso_candidates

    rng = random.Random(11)
    pairs = [
        square_pair([(1, 0), (0, 1), (1, 0), (0, 1)]),
        square_pair([(1, 0), (1, 0), (1, 0), (1, 0)]),
        square_pair([(1, 0), (0, 1), (1, 0), (1, 1)]),
        # Not a valid pair, but a rotation keeps every color and breaks the
        # label classes, so only the label nodes rule it out.
        square_pair([(1, 0), (1, 0), (0, 1), (0, 1)]),
        cp_pair(2),
        polygon_pair(5),
    ]
    for cp in pairs:
        other = shuffled_copy(cp, rng)
        found = [
            frozenset(phi.items())
            for phi in _iso_candidates(
                _SearchPoset(cp.poset, cp.coords, mode),
                _SearchPoset(other.poset, other.coords, mode),
            )
        ]
        assert len(found) == len(set(found))
        assert set(found) == _isomorphisms_by_brute_force(cp, other, mode)


def test_poset_automorphisms_refine_once_and_match_a_two_copy_search(monkeypatch):
    import lstorus.classify as classify

    refined = []
    real_refine = classify._joint_refine

    def counting(structs, init_keys):
        refined.append(len(structs))
        return real_refine(structs, init_keys)

    monkeypatch.setattr(classify, "_joint_refine", counting)
    for poset in (cube_poset(3), prism_poset(), pentagon_poset()):
        refined.clear()
        autos = list(classify.poset_automorphisms(poset))
        assert refined == [1]
        # Same colour ids as a joint refinement of two copies, so the same
        # automorphisms come out in the same order.
        two_copies = list(classify._iso_candidates(
            classify._SearchPoset(poset, (), "strong"),
            classify._SearchPoset(poset, (), "strong"),
        ))
        assert refined == [1, 2]
        assert autos == two_copies
    assert len(autos) == 10  # the pentagon's dihedral group


def test_canonical_form_mode_validation():
    with pytest.raises(ValueError):
        canonical_form(cp_pair(2), "loose")
