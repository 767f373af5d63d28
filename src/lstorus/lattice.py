"""Exact integer linear algebra over Z.

Vectors are rows; a sublattice of Z^k is the row span of an integer matrix.
All arithmetic uses Python's arbitrary-precision integers, so intermediate
entry growth is harmless at the matrix sizes this package deals with.

Every rank, independence, summand, inverse and solve query goes through one
Hermite routine (``_hnf_rows``); nothing here uses rational arithmetic.
Every question about A @ m @ D, with A in GL(k, Z) and D a diagonal +-1
matrix, goes through one normal form (``gl_sign_normal_form``): the census
weak key, the weak canonical form, and ``solve_unimodular``, which finds
the weak decider's torus automorphism.
``snf_diagonal`` alternates row and column passes of the same Hermite
routine, and ``saturate`` returns the Hermite basis of a primitive closure,
which is how a subtorus of the k-torus is written here.  ``det_int``
(Bareiss) is the independent check behind witness re-verification.

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
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

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

    A matrix that is frozen already is returned as it is.  Every malformed
    input raises ``LatticeError``: rows or a row that is not a sequence, no
    rows or no columns, ragged rows, and any entry that is not an ``int``
    (``bool`` included)."""
    if _is_frozen(rows):
        return rows
    if not isinstance(rows, Sequence) or isinstance(rows, str):
        raise LatticeError(f"matrix is not a sequence of rows: {rows!r}")
    if not rows:
        raise LatticeError("matrix needs at least one row")
    for i, row in enumerate(rows):
        if not isinstance(row, Sequence) or isinstance(row, str):
            raise LatticeError(f"row {i} is not a sequence: {row!r}")
    width = len(rows[0])
    if width == 0:
        raise LatticeError("matrix needs at least one column")
    if any(len(row) != width for row in rows):
        raise LatticeError("ragged rows")
    for row in rows:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise LatticeError(f"non-integer entry {x!r}")
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def det_int(m: Matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss).

    The 0 x 0 matrix ``()`` has determinant 1, the empty product."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise LatticeError("determinant needs a square matrix")
    if not n:
        return 1
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
    """Row-reduce to Hermite form in place semantics, mirroring ops on carry.

    In each column, Euclidean descent on the rows from r down: the pivot is
    the row of least nonzero |entry| (the lowest index on ties), and every
    row below with a nonzero entry there is reduced by it, until the pivot
    is the only one left.  The pivot is then made positive and the entries
    above it reduced into [0, pivot).
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        while True:
            piv = -1
            least = 0
            for i in range(r, nrows):
                e = rows[i][c]
                if e:
                    if e < 0:
                        e = -e
                    if piv < 0 or e < least:
                        piv, least = i, e
            if piv < 0:
                break
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                if carry is not None:
                    carry[r], carry[piv] = carry[piv], carry[r]
            pivot_row = rows[r]
            p = pivot_row[c]
            remainders = False
            for i in range(r + 1, nrows):
                e = rows[i][c]
                if e:
                    q = e // p
                    rows[i] = row = [x - q * y for x, y in zip(rows[i], pivot_row)]
                    if carry is not None:
                        carry[i] = [x - q * y for x, y in zip(carry[i], carry[r])]
                    if row[c]:
                        remainders = True
            if not remainders:
                break
        if r < nrows and rows[r][c]:
            pivot_row = rows[r]
            if pivot_row[c] < 0:
                rows[r] = pivot_row = [-x for x in pivot_row]
                if carry is not None:
                    carry[r] = [-x for x in carry[r]]
            p = pivot_row[c]
            for i in range(r):
                q = rows[i][c] // p
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], pivot_row)]
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


def gl_sign_normal_form(m: Matrix) -> Matrix:
    """Canonical member of {A @ m @ D : A in GL(k, Z), D diagonal +-1}.

    Two matrices get the same form exactly when one is A @ other @ D.  The
    row HNF settles A.  Flipping a non-pivot column keeps the HNF an HNF, so
    each non-pivot column is sign-canonicalised; a pivot column flip changes
    the HNF, so the form is the minimum over those flips.  Flipping every
    column is the row operation -I, so the first pivot column stays as it is
    and 2^(rank-1) flips suffice.

    The HNF is computed once, and is the all-plus pattern as it stands.  A
    flip of pivot columns keeps it in echelon form with the same pivots, so
    the HNF of the flipped matrix comes from one sweep, pivots left to
    right: negate the row if its pivot became negative, then reduce the
    entries above the pivot into [0, pivot).  The HNF is unique, so this is
    what a fresh reduction would give.
    """
    return _gl_sign_form(m)[0]


def _gl_sign_form(m: Matrix) -> tuple[Matrix, Row]:
    """``gl_sign_normal_form(m)`` and column signs D with form == hnf(m @ D).

    Of the pivot flips that reach the form, D holds the first in product
    order; the non-pivot signs are the ones that canonicalise the columns.
    """
    h = _hnf_rows(as_matrix(m))
    pivots = [next(j for j, x in enumerate(row) if x) for row in h if any(row)]
    free = [j for j in range(len(h[0])) if j not in pivots]
    best = best_flips = None
    for signs in itertools.product((1, -1), repeat=max(len(pivots) - 1, 0)):
        rows = [list(row) for row in h]
        flips = [c for c, sign in zip(pivots[1:], signs) if sign < 0]
        if flips:
            for c in flips:
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
            lead = 0
            for row in rows:
                lead = row[j]
                if lead:
                    break
            if lead < 0:
                flips.append(j)
                for row in rows:
                    row[j] = -row[j]
        form = tuple(map(tuple, rows))
        if best is None or form < best:
            best, best_flips = form, flips
    return best, tuple(-1 if j in best_flips else 1 for j in range(len(h[0])))


def snf_diagonal(m: Matrix) -> list[int]:
    """Diagonal of the Smith normal form, nonnegative, each dividing the next.

    Invariant under multiplication by unimodular matrices on either side.
    Row Hermite passes alternate with column ones (a row pass on the
    transpose) until no entry is left off the diagonal (Kannan and Bachem,
    SIAM J. Comput. 1979).  One pairwise pass then puts the diagonal in a
    divisibility chain: diag(a, b) and diag(gcd, lcm) present the same
    quotient group, and zeros move to the end.
    """
    a = _hnf_rows(as_matrix(m))
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = _hnf_rows(transpose(a))
    diag = [a[t][t] for t in range(min(len(a), len(a[0])))]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
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


def summand_extension_mask(rows: Sequence[Row], vectors: Sequence[Row]) -> int:
    """Bitmask of the vectors v for which rows + [v] span a direct summand.

    Rows and vectors lie in Z^k.  Bit j is set exactly when
    ``is_direct_summand(rows + [vectors[j]])`` holds; k or more rows leave
    room for no v.  One Hermite reduction serves every v: with
    U @ transpose(rows) == [I_r; 0] the rows span a rank-r summand, the last
    k - r rows of U are coordinates on the quotient Z^k / span, and the rows
    and v span a summand exactly when v's quotient coordinates have gcd 1.
    When the rows span no summand, no v completes them.
    """
    if not vectors:
        return 0
    k = len(vectors[0])
    r = len(rows)
    if r >= k:
        return 0
    if r:
        m = as_matrix(rows)
        if len(m[0]) != k:
            raise LatticeError("rows and vectors differ in length")
        h, u = hnf_with_transform(transpose(m))
        if not _is_unit_block(h):
            return 0
        quotient = u[r:]
    else:
        quotient = identity(k)
    mask = 0
    for j, v in enumerate(vectors):
        if gcd(*[sum(a * b for a, b in zip(row, v)) for row in quotient]) == 1:
            mask |= 1 << j
    return mask


def right_kernel_basis(m: Matrix) -> Matrix:
    """Basis rows of {x in Z^k : m @ x == 0}; always a saturated sublattice."""
    m = as_matrix(m)
    h, u = hnf_with_transform(transpose(m))
    return tuple(urow for hrow, urow in zip(h, u) if not any(hrow))


def saturate(m: Matrix) -> Matrix:
    """Primitive closure of the row span, as its canonical Hermite basis.

    Computed as the integer kernel of the integer kernel, which lands on the
    saturation directly; idempotent by construction.  Two row sets have the
    same saturation exactly when they get the same basis.
    """
    m = as_matrix(m)
    if not any(any(row) for row in m):
        raise LatticeError("cannot saturate the zero lattice")
    ker = right_kernel_basis(m)
    if not ker:
        return identity(len(m[0]))
    return hnf_basis(right_kernel_basis(ker))


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
        t = tuple(coords)
        for x in t:
            if not isinstance(x, int) or isinstance(x, bool):
                raise LatticeError(f"non-integer entry {x!r}")
        t = tuple(int(x) for x in t)
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
    With S and T the k x n matrices whose columns are the sources and the
    destinations, A exists exactly when S and T have the same
    ``gl_sign_normal_form`` F.  With U_S @ S @ D_S == F == U_T @ T @ D_T
    (``hnf_with_transform`` of the sign-flipped matrices), A is
    U_T^-1 @ U_S.  ``unique`` is True exactly when F has k nonzero rows;
    when the sources span rank r < k, A is free on a complement and the
    returned representative is flagged non-unique.
    """
    if len(src) != len(dst):
        raise LatticeError("source and destination lists differ in length")
    if any(v.k != k for v in src) or any(v.k != k for v in dst):
        raise LatticeError("vector length differs from ambient rank")
    if not src:
        return UnimodularSolution(identity(k), unique=False)

    s = transpose(tuple(v.coords for v in src))
    t = transpose(tuple(v.coords for v in dst))
    form, s_signs = _gl_sign_form(s)
    t_form, t_signs = _gl_sign_form(t)
    if form != t_form:
        return None
    _, u_s = hnf_with_transform(tuple(
        tuple(x * e for x, e in zip(row, s_signs)) for row in s))
    _, u_t = hnf_with_transform(tuple(
        tuple(x * e for x, e in zip(row, t_signs)) for row in t))
    a = mat_mul(mat_inverse_unimodular(u_t), u_s)
    if abs(det_int(a)) != 1:
        raise RuntimeError("internal: solution is not unimodular")
    image = transpose(mat_mul(a, s))
    if any(canonical_sign(v) != d.coords for v, d in zip(image, dst)):
        raise RuntimeError("internal: solution does not map a source to its destination")
    return UnimodularSolution(a, unique=any(form[-1]))


_RANDOM_STEPS = 8  # at most this many elementary factors
_RANDOM_COEFF = 2  # the largest |c| of a row addition


def random_unimodular(k: int, rng: random.Random) -> Matrix:
    """Random element of GL(k, Z) as a short product of elementary matrices."""
    m = [list(row) for row in identity(k)]
    for _ in range(rng.randrange(2, _RANDOM_STEPS + 1)):
        op = rng.randrange(3)
        i = rng.randrange(k)
        if op == 0 and k > 1:
            jj = rng.choice([x for x in range(k) if x != i])
            c = rng.choice([c for c in range(-_RANDOM_COEFF, _RANDOM_COEFF + 1) if c])
            m[i] = [x + c * y for x, y in zip(m[i], m[jj])]
        elif op == 1 and k > 1:
            jj = rng.choice([x for x in range(k) if x != i])
            m[i], m[jj] = m[jj], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)
