"""Exact integer linear algebra over Z.

Vectors are rows; a sublattice of Z^k is the row span of an integer matrix.
All arithmetic uses Python's arbitrary-precision integers, so intermediate
entry growth is harmless at the matrix sizes this package deals with.

Every rank, independence, summand, inverse and solve query goes through one
Hermite routine (``_hnf_rows``); nothing here uses rational arithmetic.
``snf_diagonal`` is kept as public API only, and ``det_int`` (Bareiss) is
the independent check behind witness re-verification.

Conventions fixed here and asserted throughout the package:

* ``hnf`` is the row-style Hermite normal form: row echelon, pivots
  positive, every entry above a pivot reduced into ``[0, pivot)``.  It is a
  complete invariant of the row span, so two matrices have equal HNF exactly
  when they span the same sublattice.
* A primitive vector is sign-canonical when its first nonzero entry is
  positive (``v`` and ``-v`` generate the same circle subgroup).
* Torus automorphisms act on column vectors: ``A`` sends ``v`` to ``A @ v``,
  i.e. row vectors transform as ``v @ A^T``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

Row = tuple[int, ...]
Matrix = tuple[Row, ...]


class LatticeError(ValueError):
    """Raised for malformed or out-of-contract lattice inputs."""


def _is_frozen(rows) -> bool:
    """rows is a non-empty tuple of equal-length, non-empty tuples of ints."""
    if type(rows) is not tuple or not rows or type(rows[0]) is not tuple:
        return False
    width = len(rows[0])
    if not width:
        return False
    for row in rows:
        if type(row) is not tuple or len(row) != width:
            return False
        for x in row:
            if type(x) is not int:
                return False
    return True


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    """Validate and freeze a rectangular integer matrix with positive dims.

    A matrix that is frozen already is returned as it is."""
    if _is_frozen(rows):
        return rows
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if not m:
        raise LatticeError("matrix needs at least one row")
    width = len(m[0])
    if width == 0:
        raise LatticeError("matrix needs at least one column")
    if any(len(row) != width for row in m):
        raise LatticeError("ragged rows")
    for row, orig in zip(m, rows):
        for x, y in zip(row, orig):
            if not isinstance(y, int) or isinstance(y, bool):
                raise LatticeError(f"non-integer entry {y!r}")
    return m


def identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def det_int(m: Matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise LatticeError("determinant needs a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for c in range(i + 1, n):
                a[j][c] = (a[j][c] * a[i][i] - a[j][i] * a[i][c]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def _hnf_rows(m: Matrix, carry: Optional[list[list[int]]] = None) -> list[list[int]]:
    """Row-reduce to Hermite form in place semantics, mirroring ops on carry."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        # Euclidean descent in column c on rows r..end.
        while True:
            live = [i for i in range(r, nrows) if rows[i][c] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: (abs(rows[i][c]), i))
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                if carry is not None:
                    carry[r], carry[piv] = carry[piv], carry[r]
            if all(rows[i][c] == 0 for i in range(r + 1, nrows)):
                break
            for i in range(r + 1, nrows):
                if rows[i][c]:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if carry is not None:
                        carry[i] = [x - q * y for x, y in zip(carry[i], carry[r])]
        if r < nrows and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
                if carry is not None:
                    carry[r] = [-x for x in carry[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if carry is not None:
                        carry[i] = [x - q * y for x, y in zip(carry[i], carry[r])]
            r += 1
            if r == nrows:
                break
    return rows


def hnf(m: Matrix) -> Matrix:
    """Row-style Hermite normal form, same shape and row span as the input."""
    m = as_matrix(m)
    return tuple(tuple(r) for r in _hnf_rows(m))


def hnf_with_transform(m: Matrix) -> tuple[Matrix, Matrix]:
    """Return (H, U) with U unimodular, U @ m == H, H the Hermite form."""
    m = as_matrix(m)
    carry = [list(r) for r in identity(len(m))]
    rows = _hnf_rows(m, carry)
    return tuple(tuple(r) for r in rows), tuple(tuple(r) for r in carry)


def hnf_basis(m: Matrix) -> Matrix:
    """Nonzero rows of the Hermite form: the canonical basis of the row span."""
    return tuple(row for row in hnf(m) if any(row))


def rank_int(m: Matrix) -> int:
    return len(hnf_basis(m))


def gl_sign_normal_form(m: Matrix) -> Matrix:
    """Canonical member of {A @ m @ D : A in GL(k, Z), D diagonal +-1}.

    Two matrices get the same form exactly when one is A @ other @ D.  The
    row HNF settles A.  Flipping a non-pivot column keeps the HNF an HNF, so
    each non-pivot column is sign-canonicalised; a pivot column flip changes
    the HNF, so the form is the minimum over those flips.  Flipping every
    column is the row operation -I, so the first pivot column stays as it is
    and 2^(rank-1) flips suffice.

    The HNF is computed once.  A flip of pivot columns keeps it in echelon
    form with the same pivots, so the HNF of the flipped matrix comes from
    one sweep, pivots left to right: negate the row if its pivot became
    negative, then reduce the entries above the pivot into [0, pivot).  The
    HNF is unique, so this is what a fresh reduction would give.
    """
    h = _hnf_rows(as_matrix(m))
    pivots = [next(j for j, x in enumerate(row) if x) for row in h if any(row)]
    free = [j for j in range(len(h[0])) if j not in pivots]
    best = None
    for signs in itertools.product((1, -1), repeat=max(len(pivots) - 1, 0)):
        rows = [list(row) for row in h]
        for c, sign in zip(pivots[1:], signs):
            if sign < 0:
                for row in rows:
                    row[c] = -row[c]
        for r, c in enumerate(pivots):
            pivot_row = rows[r]
            if pivot_row[c] < 0:
                pivot_row = rows[r] = [-x for x in pivot_row]
            p = pivot_row[c]
            for i in range(r):
                q = rows[i][c] // p
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], pivot_row)]
        for j in free:
            lead = next((row[j] for row in rows if row[j]), 0)
            if lead < 0:
                for row in rows:
                    row[j] = -row[j]
        form = tuple(tuple(row) for row in rows)
        if best is None or form < best:
            best = form
    return best


def snf_diagonal(m: Matrix) -> list[int]:
    """Diagonal of the Smith normal form, nonnegative, each dividing the next.

    Invariant under multiplication by unimodular matrices on either side.
    """
    m = as_matrix(m)
    a = [list(r) for r in m]
    nrows, ncols = len(a), len(a[0])
    size = min(nrows, ncols)

    def reduce_at(t: int) -> None:
        while True:
            # Move a minimal nonzero entry of the trailing block to (t, t).
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        dirty = True
            if not dirty:
                return

    for t in range(size):
        reduce_at(t)
    diag = [abs(a[t][t]) for t in range(size)]
    # Enforce the divisibility chain; diag(a, b) and diag(gcd, lcm) present
    # the same quotient group, and zeros sort to the end.
    changed = True
    while changed:
        changed = False
        for i in range(size):
            for j in range(i + 1, size):
                di, dj = diag[i], diag[j]
                if di == 0 and dj != 0:
                    diag[i], diag[j] = dj, 0
                    changed = True
                elif di != 0 and dj % di != 0:
                    g = gcd(di, dj)
                    diag[i], diag[j] = g, di * dj // g
                    changed = True
    return diag


def _is_unit_block(h: Sequence[Sequence[int]]) -> bool:
    """True when h is an identity block above zero rows, [I_r; 0].

    For h = HNF(transpose(B)) with B of r rows, this says the rows of B
    extend to a basis of Z^k, i.e. they span a rank-r direct summand.
    """
    return all(
        x == (1 if i == j else 0) for i, row in enumerate(h) for j, x in enumerate(row)
    )


def is_direct_summand(m: Matrix) -> bool:
    """True when the rows are independent and span a direct summand of Z^k."""
    m = as_matrix(m)
    if len(m) > len(m[0]):
        raise LatticeError("more rows than ambient rank")
    return _is_unit_block(_hnf_rows(transpose(m)))


def right_kernel_basis(m: Matrix) -> Matrix:
    """Basis rows of {x in Z^k : m @ x == 0}; always a saturated sublattice."""
    m = as_matrix(m)
    h, u = hnf_with_transform(transpose(m))
    return tuple(urow for hrow, urow in zip(h, u) if not any(hrow))


@dataclass(frozen=True)
class Subtorus:
    """A primitive (saturated) sublattice of Z^k in canonical Hermite basis.

    Encodes a subtorus of the k-torus; equality of canonical bases is
    equality of subtori.  ``rank == 0`` encodes the trivial subtorus.
    """

    k: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.k < 1:
            raise LatticeError("ambient rank must be positive")
        for row in self.basis:
            if len(row) != self.k:
                raise LatticeError("basis width differs from ambient rank")

    @classmethod
    def trivial(cls, k: int) -> "Subtorus":
        return cls(k=k, basis=())

    @classmethod
    def full(cls, k: int) -> "Subtorus":
        return cls(k=k, basis=identity(k))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains_vector(self, v: Sequence[int]) -> bool:
        return span_contains_vector(self.basis, tuple(v))


def span_contains_vector(echelon_basis: Matrix, v: Row) -> bool:
    """Membership of v in the row span of an HNF (row echelon) basis."""
    w = list(v)
    for row in echelon_basis:
        pc = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(w[pc], row[pc])
        if rem:
            return False
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    return not any(w)


def coords_in_basis(echelon_basis: Matrix, v: Row) -> Optional[Row]:
    """Integer coordinates of v over an HNF basis, or None when outside."""
    w = list(v)
    coeffs = []
    for row in echelon_basis:
        pc = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(w[pc], row[pc])
        if rem:
            return None
        coeffs.append(q)
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    if any(w):
        return None
    return tuple(coeffs)


def saturate(m: Matrix) -> Subtorus:
    """Primitive closure of the row span, as a canonical Subtorus.

    Computed as the integer kernel of the integer kernel, which lands on the
    saturation directly; idempotent by construction.
    """
    m = as_matrix(m)
    if not any(any(row) for row in m):
        raise LatticeError("cannot saturate the zero lattice")
    k = len(m[0])
    ker = right_kernel_basis(m)
    if not ker:
        return Subtorus.full(k)
    sat = right_kernel_basis(ker)
    basis = hnf_basis(sat)
    if not is_direct_summand(basis):
        raise RuntimeError("internal: saturation is not a direct summand")
    return Subtorus(k=k, basis=basis)


def canonical_sign(v: Sequence[int]) -> Row:
    """Flip the sign so the first nonzero entry is positive."""
    t = tuple(int(x) for x in v)
    for x in t:
        if x > 0:
            return t
        if x < 0:
            return tuple(-y for y in t)
    return t


@dataclass(frozen=True)
class PrimitiveVector:
    """A primitive integer vector, stored with canonical sign."""

    coords: Row

    def __init__(self, coords: Sequence[int]):
        t = tuple(int(x) for x in coords)
        if not t or not any(t):
            raise LatticeError("primitive vector must be nonzero")
        g = 0
        for x in t:
            g = gcd(g, x)
        if g != 1:
            raise LatticeError(f"vector {t} is not primitive (gcd {g})")
        object.__setattr__(self, "coords", canonical_sign(t))

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def k(self) -> int:
        return len(self.coords)

    def subtorus(self) -> Subtorus:
        return saturate((self.coords,))


def apply_auto(a: Matrix, v: PrimitiveVector) -> PrimitiveVector:
    """Image of a primitive vector under A in GL(k, Z), column convention."""
    if len(a) != v.k or any(len(row) != v.k for row in a):
        raise LatticeError("automorphism size differs from vector length")
    image = tuple(sum(row[j] * v.coords[j] for j in range(v.k)) for row in a)
    return PrimitiveVector(image)


def mat_inverse_unimodular(m: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix: U with U @ m == I."""
    h, u = hnf_with_transform(m)
    if len(h) != len(h[0]):
        raise LatticeError("inverse needs a square matrix")
    if not _is_unit_block(h):
        singular = not any(h[-1])
        raise LatticeError("matrix is singular" if singular else "matrix is not unimodular")
    return u


def extend_saturated(basis: Matrix) -> Matrix:
    """Complete a saturated basis (r x k rows) to a unimodular k x k matrix.

    The first r rows of the result equal the input rows.
    """
    basis = as_matrix(basis)
    h, u = hnf_with_transform(transpose(basis))
    r = len(basis)
    if not _is_unit_block(h):
        raise LatticeError("rows are not a basis of a saturated sublattice")
    p = transpose(mat_inverse_unimodular(u))
    if p[:r] != basis:
        raise RuntimeError("internal: extension does not start with the basis")
    if abs(det_int(p)) != 1:
        raise RuntimeError("internal: extension is not unimodular")
    return p


def _greedy_independent(rows: Sequence[Row]) -> list[int]:
    """Indices of a maximal independent subset, chosen greedily in order.

    These are the pivot columns of the Hermite form of the rows as columns.
    """
    h = _hnf_rows(transpose(rows))
    return [next(j for j, x in enumerate(row) if x) for row in h if any(row)]


@dataclass(frozen=True)
class UnimodularSolution:
    """A in GL(k, Z) with A @ src_i == +-dst_i; unique is False when the
    sources span a proper subspace, so other representatives exist."""

    matrix: Matrix
    unique: bool


def solve_unimodular(
    src: Sequence[PrimitiveVector], dst: Sequence[PrimitiveVector], k: int
) -> Optional[UnimodularSolution]:
    """Find A in GL(k, Z) with A @ src_i == +-dst_i for every i, or None.

    Signs are free per pair because primitive vectors are sign-canonical.
    When the sources span rank r < k the restriction of A to the saturation
    is solved exactly and extended arbitrarily; the returned representative
    is flagged non-unique.
    """
    if len(src) != len(dst):
        raise LatticeError("source and destination lists differ in length")
    if any(v.k != k for v in src) or any(v.k != k for v in dst):
        raise LatticeError("vector length differs from ambient rank")
    if not src:
        return UnimodularSolution(identity(k), unique=False)

    s_rows = tuple(v.coords for v in src)
    d_rows = tuple(v.coords for v in dst)
    j = _greedy_independent(s_rows)
    r = len(j)

    if r == k:
        m_row = _solve_full_rank(s_rows, d_rows, j, k)
        if m_row is None:
            return None
        return UnimodularSolution(transpose(m_row), unique=True)

    sat_s = saturate(s_rows)
    sat_d = saturate(d_rows)
    if sat_d.rank != r:
        return None
    cs = [coords_in_basis(sat_s.basis, v) for v in s_rows]
    cd = [coords_in_basis(sat_d.basis, v) for v in d_rows]
    if any(c is None for c in cs + cd):
        raise RuntimeError("internal: a label lies outside its saturation")
    sub = solve_unimodular(
        [PrimitiveVector(c) for c in cs], [PrimitiveVector(c) for c in cd], r
    )
    if sub is None:
        return None
    g_row = transpose(sub.matrix)
    p = extend_saturated(sat_s.basis)
    q = extend_saturated(sat_d.basis)
    block = tuple(
        tuple(
            (g_row[i][jj] if i < r and jj < r else (1 if i == jj else 0))
            for jj in range(k)
        )
        for i in range(k)
    )
    m_row = mat_mul(mat_mul(mat_inverse_unimodular(p), block), q)
    if not _maps_all(s_rows, d_rows, m_row):
        return None
    if abs(det_int(m_row)) != 1:
        raise RuntimeError("internal: solution is not unimodular")
    return UnimodularSolution(transpose(m_row), unique=False)


def _solve_full_rank(
    s_rows: Sequence[Row], d_rows: Sequence[Row], j: list[int], k: int
) -> Optional[Matrix]:
    """Row-action matrix M with s_i @ M == +-d_i, via sign enumeration on a
    rational basis S among the sources.

    With U @ S == H upper triangular, S @ M == D becomes H @ M == U @ D,
    solved by integer back-substitution; a remainder means no integral M.
    """
    h, u = hnf_with_transform(tuple(s_rows[i] for i in j))
    for signs in itertools.product((1, -1), repeat=k):
        d_basis = tuple(
            tuple(e * x for x in d_rows[i]) for e, i in zip(signs, j)
        )
        rhs = mat_mul(u, d_basis)
        m_row: list[Row] = [()] * k
        for i in reversed(range(k)):
            row = [
                x - sum(h[i][t] * m_row[t][c] for t in range(i + 1, k))
                for c, x in enumerate(rhs[i])
            ]
            if any(x % h[i][i] for x in row):
                break
            m_row[i] = tuple(x // h[i][i] for x in row)
        else:
            m = tuple(m_row)
            if abs(det_int(m)) == 1 and _maps_all(s_rows, d_rows, m):
                return m
    return None


def _maps_all(s_rows: Sequence[Row], d_rows: Sequence[Row], m_row: Matrix) -> bool:
    for s, d in zip(s_rows, d_rows):
        image = tuple(
            sum(s[i] * m_row[i][c] for i in range(len(s))) for c in range(len(d))
        )
        if canonical_sign(image) != d:
            return False
    return True


def random_unimodular(
    k: int, rng: random.Random, steps: int = 8, coeff: int = 2
) -> Matrix:
    """Random element of GL(k, Z) as a short product of elementary matrices."""
    m = [list(row) for row in identity(k)]
    for _ in range(rng.randrange(2, steps + 1)):
        op = rng.randrange(3)
        i = rng.randrange(k)
        if op == 0 and k > 1:
            jj = rng.choice([x for x in range(k) if x != i])
            c = rng.choice([c for c in range(-coeff, coeff + 1) if c])
            m[i] = [x + c * y for x, y in zip(m[i], m[jj])]
        elif op == 1 and k > 1:
            jj = rng.choice([x for x in range(k) if x != i])
            m[i], m[jj] = m[jj], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)
