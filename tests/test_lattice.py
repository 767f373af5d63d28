import itertools
import random
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstorus import lattice
from lstorus.lattice import (
    LatticeError,
    _greedy_independent,
    _hnf_rows,
    _solve_full_rank,
    PrimitiveVector,
    Subtorus,
    apply_auto,
    as_matrix,
    canonical_sign,
    coords_in_basis,
    det_int,
    extend_saturated,
    gl_sign_normal_form,
    hnf,
    hnf_basis,
    identity,
    is_direct_summand,
    mat_inverse_unimodular,
    mat_mul,
    random_unimodular,
    right_kernel_basis,
    saturate,
    snf_diagonal,
    solve_unimodular,
    summand_extension_mask,
    transpose,
)

from oracles import (
    gl_orbit_match,
    gl_sign_normal_form_reference,
    hnf_rows_reference,
    minor_gcd_is_summand,
    rational_rank,
    saturation_members_bruteforce,
    solve_full_rank_reference,
    spans_equal_bruteforce,
)


@st.composite
def integer_matrices(draw, max_rows=5, max_cols=5):
    """Small integer matrices; repeated and combined rows make rank
    deficiency and zero rows common."""
    n = draw(st.integers(1, max_rows))
    k = draw(st.integers(1, max_cols))
    bound = draw(st.sampled_from((1, 3, 9)))
    entry = st.integers(-bound, bound)
    rows = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.integers(-2, 2))
        rows.insert(draw(st.integers(0, len(rows))), [c * x + y for x, y in zip(a, b)])
    return tuple(tuple(row) for row in rows)


def test_hnf_permuted_identity():
    assert hnf(((0, 1), (1, 0))) == ((1, 0), (0, 1))


def test_hnf_identity_fixed():
    for k in (1, 2, 3, 4):
        assert hnf(identity(k)) == identity(k)


def test_hnf_2x2_canonical_value():
    # Frozen from the brute-force span oracle below: the reduced Hermite form
    # of the lattice spanned by (2,4),(1,3).
    h = hnf(((2, 4), (1, 3)))
    assert h == ((1, 1), (0, 2))
    assert spans_equal_bruteforce(((2, 4), (1, 3)), h)


def test_hnf_preserves_span_random():
    rng = random.Random(11)
    for _ in range(50):
        rows = tuple(
            tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(2)
        )
        if not any(any(r) for r in rows):
            continue
        assert spans_equal_bruteforce(rows, [r for r in hnf(rows) if any(r)] or [(0, 0)])


def test_hnf_snf_unimodular_invariance():
    # 500 random cases: left multiplication by a unimodular matrix changes
    # neither the Hermite form nor the Smith diagonal.
    rng = random.Random(7)
    done = 0
    while done < 500:
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 5)
        m = tuple(tuple(rng.randrange(-5, 6) for _ in range(k)) for _ in range(n))
        u = random_unimodular(n, rng)
        if max(abs(x) for row in u for x in row) > 5:
            continue
        um = mat_mul(u, m)
        assert hnf(um) == hnf(m)
        assert snf_diagonal(um) == snf_diagonal(m)
        done += 1


def test_snf_examples():
    assert snf_diagonal(((1, 0), (0, 1))) == [1, 1]
    assert snf_diagonal(((2, 0), (0, 1))) == [1, 2]
    assert snf_diagonal(((1, 1, 0), (0, 1, 1))) == [1, 1]
    assert snf_diagonal(((0, 0), (0, 0))) == [0, 0]


def test_snf_right_invariance():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        m = tuple(tuple(rng.randrange(-4, 5) for _ in range(k)) for _ in range(n))
        u = random_unimodular(k, rng)
        mu = mat_mul(m, u)
        assert snf_diagonal(mu) == snf_diagonal(m)


def test_snf_divisibility_chain():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        m = tuple(tuple(rng.randrange(-9, 10) for _ in range(k)) for _ in range(n))
        d = snf_diagonal(m)
        for a, b in zip(d, d[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


def test_as_matrix_returns_a_frozen_matrix_as_it_is():
    frozen = ((1, -2, 0), (3, 4, 5))
    assert as_matrix(frozen) is frozen
    assert as_matrix([[1, -2, 0], (3, 4, 5)]) == frozen
    assert as_matrix(((1, -2, 0), [3, 4, 5])) == frozen


@pytest.mark.parametrize(
    "rows, message",
    [
        ((), "at least one row"),
        ([], "at least one row"),
        (((),), "at least one column"),
        (((), ()), "at least one column"),
        (((1, 2), (3,)), "ragged rows"),
        (((1,), (2, 3)), "ragged rows"),
        (((1, True),), "non-integer entry True"),
        (((1, 0), (False, 1)), "non-integer entry False"),
        (((1, 2.0),), "non-integer entry 2.0"),
        ([[1.5, 2]], "non-integer entry 1.5"),
        ([["a"]], "non-integer entry 'a'"),
        ([[None]], "non-integer entry None"),
        ([[float("nan")]], "non-integer entry nan"),
        ([[float("inf")]], "non-integer entry inf"),
        ([1, 2], "row 0 is not a sequence: 1"),
        ([(1, 2), 3], "row 1 is not a sequence: 3"),
        (["12"], "row 0 is not a sequence: '12'"),
        (None, "not a sequence of rows"),
        ("12", "not a sequence of rows"),
        ({(1, 2)}, "not a sequence of rows"),
    ],
)
def test_as_matrix_rejections(rows, message):
    with pytest.raises(LatticeError, match=message):
        as_matrix(rows)


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
def test_hnf_rows_and_carry_match_reference(m):
    carry = [list(row) for row in identity(len(m))]
    expected_carry = [list(row) for row in identity(len(m))]
    assert _hnf_rows(m, carry) == hnf_rows_reference(m, expected_carry)
    assert carry == expected_carry
    assert _hnf_rows(m) == hnf_rows_reference(m)


def test_det_int_of_the_empty_matrix_is_one():
    assert det_int(()) == 1
    assert det_int(((5,),)) == 5
    with pytest.raises(LatticeError, match="square"):
        det_int(((1, 2),))


def test_is_direct_summand_examples():
    assert is_direct_summand(((1, 0), (0, 1)))
    assert not is_direct_summand(((2, 0),))
    assert not is_direct_summand(((1, 0), (1, 2)))


def test_is_direct_summand_rejects_wide():
    with pytest.raises(LatticeError):
        is_direct_summand(((1, 0), (0, 1), (1, 1)))


def test_is_direct_summand_matches_minor_gcd_exhaustive():
    # Exhaustive over the small shapes; the oracle works from n x n minors.
    for n, k, lo_hi in ((1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 3, 1)):
        vals = range(-lo_hi, lo_hi + 1)
        for flat in itertools.product(vals, repeat=n * k):
            rows = tuple(tuple(flat[i * k : (i + 1) * k]) for i in range(n))
            assert is_direct_summand(rows) == minor_gcd_is_summand(rows), rows


def test_is_direct_summand_matches_minor_gcd_random():
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.randrange(1, 4)
        k = rng.randrange(n, 5)
        rows = tuple(tuple(rng.randrange(-3, 4) for _ in range(k)) for _ in range(n))
        assert is_direct_summand(rows) == minor_gcd_is_summand(rows), rows


@st.composite
def extension_cases(draw):
    """(rows, vectors) in Z^k with 0 to k - 1 rows, which may repeat, be
    zero, or span a sublattice that is not saturated."""
    k = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=k, max_size=k).map(tuple)
    rows = draw(st.lists(vec, max_size=k - 1))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = tuple(draw(st.sampled_from((2, -3))) * x for x in rows[i])
    if 0 < len(rows) < k - 1 and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    vectors = draw(st.lists(vec, min_size=1, max_size=12))
    if rows and draw(st.booleans()):
        vectors.append(draw(st.sampled_from(rows)))
    return tuple(rows), vectors


def _mask_expected(rows, vectors):
    return sum(
        1 << j for j, v in enumerate(vectors) if minor_gcd_is_summand(list(rows) + [v])
    )


@settings(max_examples=400, deadline=None)
@given(extension_cases())
def test_summand_extension_mask_matches_minor_gcd(case):
    rows, vectors = case
    assert summand_extension_mask(rows, vectors) == _mask_expected(rows, vectors)


def test_summand_extension_mask_exhaustive_small():
    # Every rank, duplicate, zero and non-saturated row set over small boxes:
    # k = 2 over [-2, 2] and k = 3 over [-1, 1], against the whole box.
    seen = {"deficient": 0, "saturated": 0, "not saturated": 0}
    for k, b in ((2, 2), (3, 1)):
        box = list(itertools.product(range(-b, b + 1), repeat=k))
        for r in range(k):
            for rows in itertools.product(box, repeat=r):
                assert summand_extension_mask(rows, box) == _mask_expected(rows, box), rows
                if r:
                    rank = rational_rank(rows)
                    key = "deficient" if rank < r else (
                        "saturated" if minor_gcd_is_summand(rows) else "not saturated"
                    )
                    seen[key] += 1
    assert min(seen.values()) >= 50, seen


def test_summand_extension_mask_edges():
    e = ((1, 0), (0, 1))
    assert summand_extension_mask((), []) == 0
    assert summand_extension_mask(e, [(1, 1)]) == 0  # k rows leave no room
    assert summand_extension_mask((), [(2, 0), (1, 2), (0, 0)]) == 0b10
    with pytest.raises(LatticeError, match="differ in length"):
        summand_extension_mask(((1, 0, 0),), [(0, 1)])


def test_saturate_examples():
    s = saturate(((2, 0),))
    assert s.rank == 1 and s.basis == ((1, 0),)
    s = saturate(((1, 0), (0, 1)))
    assert s.rank == 2 and s.basis == identity(2)
    s = saturate(((2, 2), (0, 4)))
    assert s.basis == identity(2)


def test_saturate_rejects_zero():
    with pytest.raises(LatticeError):
        saturate(((0, 0), (0, 0)))


def test_saturate_matches_bruteforce_box():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(1, 3)
        rows = tuple(tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(n))
        if not any(any(r) for r in rows):
            continue
        sat = saturate(rows)
        expected = saturation_members_bruteforce(rows, box=3)
        got = {
            v
            for v in itertools.product(range(-3, 4), repeat=2)
            if sat.contains_vector(v)
        }
        assert got == expected, rows


def test_saturate_idempotent_and_summand():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(1, 4)
        k = rng.randrange(max(1, n), 5)
        rows = tuple(tuple(rng.randrange(-4, 5) for _ in range(k)) for _ in range(n))
        if not any(any(r) for r in rows):
            continue
        sat = saturate(rows)
        assert sat.rank == 0 or is_direct_summand(sat.basis)
        if sat.rank:
            again = saturate(sat.basis)
            assert again == sat


def test_subtorus_equality_and_containment():
    a = saturate(((2, 4),))
    b = saturate(((1, 2),))
    assert a == b
    full = Subtorus.full(2)
    assert all(full.contains_vector(row) for row in a.basis)
    assert not all(a.contains_vector(row) for row in full.basis)
    assert Subtorus.trivial(2).rank == 0


@pytest.mark.parametrize(
    "basis, message",
    [
        (((-1, -1),), "not a Hermite basis"),  # pivot negative
        (((0, 0),), "not a Hermite basis"),  # zero row
        (((1, 0), (0, 0)), "not a Hermite basis"),
        (((0, 1), (1, 0)), "not a Hermite basis"),  # pivots out of order
        (((1, 0), (1, 0)), "not a Hermite basis"),
        (((1, 1), (0, 1)), "not a Hermite basis"),  # entry above a pivot
        (((1, -1), (0, 2)), "not a Hermite basis"),
        (((2, 0),), "not saturated"),
        (((1, 1), (0, 2)), "not saturated"),
        (((1, 0, 0),), "width differs"),
        (((1.0, 0),), "non-integer entry"),
        (None, "not a sequence"),
    ],
)
def test_subtorus_rejects_a_basis_off_its_invariant(basis, message):
    with pytest.raises(LatticeError, match=message):
        Subtorus(2, basis)


def test_subtorus_canonical_basis_is_its_identity():
    assert Subtorus(2, ((1, 1),)) == saturate(((1, 1),)) == saturate(((-1, -1),))
    assert Subtorus(2, [[1, 0], [0, 1]]) == Subtorus.full(2)
    assert Subtorus(2, []) == Subtorus.trivial(2) and Subtorus(2, []).basis == ()
    assert not Subtorus.trivial(2).contains_vector((1, 0))
    assert Subtorus.trivial(2).contains_vector((0, 0))
    with pytest.raises(LatticeError, match="positive"):
        Subtorus(0, ())


def test_primitive_vector_canonicalization():
    assert PrimitiveVector((-1, 2)).coords == (1, -2)
    assert PrimitiveVector((0, -3, 1)).coords == (0, 3, -1)
    with pytest.raises(LatticeError):
        PrimitiveVector((2, 0))
    with pytest.raises(LatticeError):
        PrimitiveVector((0, 0))


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5).filter(
        lambda v: any(v)
    )
)
def test_canonical_sign_involution(v):
    c = canonical_sign(v)
    assert canonical_sign(c) == c
    assert canonical_sign([-x for x in v]) == c
    assert next(x for x in c if x) > 0


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_random_unimodular_det(k, seed):
    m = random_unimodular(k, random.Random(seed))
    assert abs(det_int(m)) == 1


def test_solve_unimodular_swap():
    e1 = PrimitiveVector((1, 0))
    e2 = PrimitiveVector((0, 1))
    sol = solve_unimodular([e1, e2], [e2, e1], 2)
    assert sol is not None and sol.unique
    assert sol.matrix == ((0, 1), (1, 0))


def test_solve_unimodular_shear():
    e1 = PrimitiveVector((1, 0))
    e2 = PrimitiveVector((0, 1))
    d2 = PrimitiveVector((1, 1))
    sol = solve_unimodular([e1, e2], [e1, d2], 2)
    assert sol is not None
    # Column convention: A @ e1 == e1 and A @ e2 == (1, 1).
    assert apply_auto(sol.matrix, e1) == e1
    assert apply_auto(sol.matrix, e2) == d2


def test_solve_unimodular_rejects_mismatch():
    with pytest.raises(LatticeError):
        solve_unimodular([PrimitiveVector((1, 0))], [], 2)
    with pytest.raises(LatticeError):
        solve_unimodular([PrimitiveVector((1, 0))], [PrimitiveVector((1, 0, 0))], 2)


def test_solve_unimodular_no_solution():
    # (1,0),(0,1) cannot go to (1,0),(1,2): the image lattice has index 2.
    sol = solve_unimodular(
        [PrimitiveVector((1, 0)), PrimitiveVector((0, 1))],
        [PrimitiveVector((1, 0)), PrimitiveVector((1, 2))],
        2,
    )
    assert sol is None


def test_solve_unimodular_rank_deficient():
    sol = solve_unimodular([PrimitiveVector((1, 0, 0))], [PrimitiveVector((0, 1, 1))], 3)
    assert sol is not None and not sol.unique
    assert abs(det_int(sol.matrix)) == 1
    assert apply_auto(sol.matrix, PrimitiveVector((1, 0, 0))) == PrimitiveVector((0, 1, 1))


def test_solve_unimodular_randomized_roundtrip():
    rng = random.Random(29)
    for _ in range(200):
        k = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = random_unimodular(k, rng)
        src = []
        while len(src) < n:
            v = tuple(rng.randrange(-3, 4) for _ in range(k))
            try:
                src.append(PrimitiveVector(v))
            except LatticeError:
                continue
        dst = [apply_auto(a, v) for v in src]
        sol = solve_unimodular(src, dst, k)
        assert sol is not None
        assert abs(det_int(sol.matrix)) == 1
        for s, d in zip(src, dst):
            assert apply_auto(sol.matrix, s) == d


def test_solve_unimodular_source_basis_of_index_two():
    # The greedy basis (1,1),(1,-1) spans an index-2 sublattice, so the
    # back-substitution is integral only when d1 and d2 agree mod 2, and the
    # sign choice is then fixed by where (1,0) goes.
    rng = random.Random(43)
    src = [PrimitiveVector(v) for v in ((1, 1), (1, -1), (1, 0))]
    found = missing = 0
    for _ in range(150):
        a = random_unimodular(2, rng)
        variant = rng.randrange(3)
        if variant == 0:
            dst = [apply_auto(a, v) for v in src]
        elif variant == 1:  # the third image is off the orbit
            third = rng.choice(((1, 2), (2, 1), (1, -2), (0, 1)))
            dst = [apply_auto(a, v) for v in src[:2] + [PrimitiveVector(third)]]
        else:  # the first two images span all of Z^2
            dst = [apply_auto(a, PrimitiveVector(v)) for v in ((1, 0), (0, 1), (1, 1))]
        sol = solve_unimodular(src, dst, 2)
        expected = gl_orbit_match([v.coords for v in src], [v.coords for v in dst], 2)
        assert (sol is not None) == expected, dst
        if sol is None:
            missing += 1
            continue
        found += 1
        assert sol.unique and abs(det_int(sol.matrix)) == 1
        for s_, d in zip(src, dst):
            assert apply_auto(sol.matrix, s_) == d
    assert found and missing


@st.composite
def solver_cases(draw):
    """(src, dst, k): images of the sources under a random A, the same with
    one image replaced, or unrelated vectors; sources of any rank."""
    k = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(
        lambda v: gcd(*v) == 1
    )
    n = draw(st.integers(1, 5))
    src = [PrimitiveVector(draw(vec)) for _ in range(n)]
    kind = draw(st.sampled_from(("image", "replaced", "unrelated")))
    if kind == "unrelated":
        dst = [PrimitiveVector(draw(vec)) for _ in range(n)]
    else:
        a = random_unimodular(k, random.Random(draw(st.integers(0, 2**32))))
        dst = [apply_auto(a, v) for v in src]
        if kind == "replaced":
            dst[draw(st.integers(0, n - 1))] = PrimitiveVector(draw(vec))
    return src, dst, k


def _solve_both(src, dst, k):
    """(solve_unimodular, the same with the reference full-rank solver)."""
    got = solve_unimodular(src, dst, k)
    with mock.patch.object(lattice, "_solve_full_rank", solve_full_rank_reference):
        expected = solve_unimodular(src, dst, k)
    return got, expected


@settings(max_examples=300, deadline=None)
@given(solver_cases())
def test_solver_matches_reference(case):
    src, dst, k = case
    s_rows = tuple(v.coords for v in src)
    d_rows = tuple(v.coords for v in dst)
    j = _greedy_independent(s_rows)
    if len(j) == k:
        assert _solve_full_rank(s_rows, d_rows, j, k) == solve_full_rank_reference(
            s_rows, d_rows, j, k
        )
    got, expected = _solve_both(src, dst, k)
    assert got == expected


def test_solver_matches_reference_on_found_none_and_non_unique():
    # The same comparison on seeded cases, counting each kind of result.
    rng = random.Random(53)
    kinds = {"unique": 0, "not unique": 0, "none": 0}
    for _ in range(1500):
        k = rng.randint(1, 4)
        src = []
        while len(src) < rng.randint(1, 5):
            v = [rng.randint(-3, 3) for _ in range(k)]
            if gcd(*v) == 1:
                src.append(PrimitiveVector(v))
        a = random_unimodular(k, rng)
        dst = [apply_auto(a, v) for v in src]
        if rng.random() < 0.4:
            dst[rng.randrange(len(dst))] = rng.choice(src)
        got, expected = _solve_both(src, dst, k)
        assert got == expected, (src, dst)
        kinds["none" if got is None else "unique" if got.unique else "not unique"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_extend_saturated():
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randrange(1, 5)
        n = rng.randrange(1, k + 1)
        rows = tuple(tuple(rng.randrange(-3, 4) for _ in range(k)) for _ in range(n))
        if not any(any(r) for r in rows):
            continue
        sat = saturate(rows)
        if sat.rank == 0:
            continue
        p = extend_saturated(sat.basis)
        assert p[: sat.rank] == sat.basis
        assert abs(det_int(p)) == 1


def test_right_kernel():
    ker = right_kernel_basis(((1, 1),))
    assert len(ker) == 1
    assert all(sum(r) == 0 for r in ker)
    assert right_kernel_basis(identity(3)) == ()


def test_coords_in_basis_roundtrip():
    basis = hnf_basis(((1, 2, 0), (0, 0, 3)))
    v = tuple(2 * basis[0][j] - basis[1][j] for j in range(3))
    assert coords_in_basis(basis, v) == (2, -1)
    assert coords_in_basis(basis, (0, 1, 0)) is None


def test_mat_inverse_unimodular():
    rng = random.Random(37)
    for _ in range(50):
        k = rng.randrange(1, 5)
        m = random_unimodular(k, rng)
        inv = mat_inverse_unimodular(m)
        assert mat_mul(m, inv) == identity(k)
    with pytest.raises(LatticeError):
        mat_inverse_unimodular(((2, 0), (0, 1)))
    with pytest.raises(LatticeError, match="singular"):
        mat_inverse_unimodular(((1, 2), (2, 4)))
    with pytest.raises(LatticeError, match="square"):
        mat_inverse_unimodular(((1, 0, 0), (0, 1, 0)))


def test_rank_and_greedy_independent_match_rational_rank():
    # 500 random matrices; dependent rows are built in and zero rows occur.
    rng = random.Random(41)
    for _ in range(500):
        k = rng.randrange(1, 5)
        rows = [tuple(rng.randrange(-3, 4) for _ in range(k)) for _ in range(rng.randrange(1, 6))]
        for _ in range(rng.randrange(3)):
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rng.randrange(-2, 3), rng.randrange(-2, 3)
            rows.insert(rng.randrange(len(rows) + 1), tuple(c * x + d * y for x, y in zip(a, b)))
        rows = tuple(rows)
        chosen = _greedy_independent(rows)
        assert len(chosen) == rational_rank(rows), rows
        # Greedy in order: a row is chosen exactly when it raises the rank
        # of the rows before it.
        expected = [
            i for i in range(len(rows))
            if rational_rank(rows[: i + 1]) > rational_rank(rows[:i])
        ]
        assert chosen == expected, rows


def _random_configuration(rng, k):
    """k x n matrix of nonzero columns; its rank is often below k."""
    r = rng.randint(1, k)
    basis = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)]
    basis[0][rng.randrange(k)] = rng.choice((1, -1, 2))
    n = rng.randint(1, 6)
    cols = []
    while len(cols) < n:
        col = [
            sum(c * b[i] for c, b in zip((rng.randint(-2, 2) for _ in range(r)), basis))
            for i in range(k)
        ]
        if any(col):
            cols.append(tuple(col))
    return transpose(tuple(cols))


def _move(m, rng):
    """A @ m @ D for a random A in GL(k, Z) and random column signs D."""
    a = random_unimodular(len(m), rng)
    signs = [rng.choice((1, -1)) for _ in m[0]]
    return tuple(tuple(x * e for x, e in zip(row, signs)) for row in mat_mul(a, m))


def test_gl_sign_normal_form_invariant():
    rng = random.Random(41)
    for _ in range(300):
        m = _random_configuration(rng, rng.randint(1, 3))
        form = gl_sign_normal_form(m)
        assert gl_sign_normal_form(_move(m, rng)) == form
        assert gl_sign_normal_form(form) == form
        assert len(form) == len(m) and len(form[0]) == len(m[0])


def test_gl_sign_normal_form_matches_gl_orbit_match():
    rng = random.Random(43)
    outcomes = {True: 0, False: 0}
    deficient = 0
    for case in range(400):
        k = rng.randint(1, 3)
        m = _random_configuration(rng, k)
        if case % 3 == 0:
            other = _random_configuration(rng, k)
        else:
            other = [list(row) for row in _move(m, rng)]
            if case % 3 == 1:
                j = rng.randrange(len(other[0]))
                for row in other:
                    row[j] += rng.randint(-1, 1)
            other = tuple(tuple(row) for row in other)
        src, dst = transpose(m), transpose(other)
        if len(src) != len(dst) or not all(any(v) for v in dst):
            continue
        same = gl_sign_normal_form(m) == gl_sign_normal_form(other)
        assert same == gl_orbit_match(src, dst, k), (m, other)
        outcomes[same] += 1
        deficient += rational_rank(m) < k
    assert min(outcomes.values()) >= 50 and deficient >= 50, (outcomes, deficient)


def test_gl_sign_normal_form_matches_reference():
    # The one-HNF sweep against a fresh reduction per flip, exactly.
    rng = random.Random(47)
    shapes = {"zero": 0, "deficient": 0, "row": 0, "column": 0}
    for case in range(2400):
        k, n = rng.randint(1, 4), rng.randint(1, 8)
        if case % 10 == 0:
            k = 1
        elif case % 10 == 1:
            n = 1
        elif case % 10 in (3, 4):
            k = rng.randint(2, 4)
            n = rng.randint(k, 8)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if case % 10 == 2:
            m = [[0] * n for _ in range(k)]
        elif case % 10 in (3, 4):
            # The last row is a combination of the others: rank below k.
            c = rng.randint(-2, 2)
            m[-1] = [c * x + y for x, y in zip(m[0], m[k - 2])]
        m = tuple(tuple(row) for row in m)
        assert gl_sign_normal_form(m) == gl_sign_normal_form_reference(m), m
        shapes["zero"] += not any(map(any, m))
        shapes["deficient"] += 0 < rational_rank(m) < min(k, n)
        shapes["row"] += k == 1
        shapes["column"] += n == 1
    assert min(shapes.values()) >= 200, shapes


@settings(max_examples=400, deadline=None)
@given(integer_matrices(max_rows=4, max_cols=8))
def test_gl_sign_normal_form_matches_reference_hypothesis(m):
    assert gl_sign_normal_form(m) == gl_sign_normal_form_reference(m)


def test_transpose_involution():
    m = ((1, 2, 3), (4, 5, 6))
    assert transpose(transpose(m)) == m
