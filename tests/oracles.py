"""Independent reference computations used to cross-check the library.

Everything here is deliberately written against different machinery than the
package under test: permutation-expansion determinants, brute-force span
membership, sympy's normal forms, and a term-by-term evaluator of the chart
formulas.  Keep it that way; these functions are
the other side of every dual-route check in the test suite.

Six are the plain forms of faster kernels, which must match them exactly:
``enumerate_labelings_reference`` tests every candidate label against every
face it completes, ``gl_sign_normal_form_reference`` runs a fresh Hermite
reduction for every pivot-column flip, ``deduplicate_reference`` computes
the weak key on every member of every strong orbit,
``canonical_json_reference`` is the ``json.dumps`` call that
``documents.canonical_json`` replaces, and ``hnf_rows_reference`` and
``solve_full_rank_reference`` are the earlier Hermite reduction and
full-rank solver, kept as they were: a pivot search through ``min`` with a
key per Euclidean step, and all 2^k sign patterns.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import hermite_normal_form

from lstorus.census import CensusClass, primitive_vectors_in_box
from lstorus.lattice import (
    _maps_all,
    det_int,
    gl_sign_normal_form,
    hnf,
    identity,
    is_direct_summand,
    mat_mul,
)
from lstorus.localmodel import LocalModelError, ModelPoint, XScaleLayer, YShearLayer


def canonical_json_reference(obj) -> str:
    """The canonical report text as the standard library writes it."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def det_permutation(m: Sequence[Sequence[int]]) -> int:
    """Determinant by summing over permutations; only for tiny matrices."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def minor_gcd_is_summand(rows: Sequence[Sequence[int]]) -> bool:
    """Rows span a rank-n direct summand iff the gcd of all n x n minors is 1."""
    n = len(rows)
    if n == 0:
        return True
    k = len(rows[0])
    if n > k:
        return False
    g = 0
    for cols in itertools.combinations(range(k), n):
        sub = [[rows[i][c] for c in cols] for i in range(n)]
        g = gcd(g, det_permutation(sub))
        if g == 1:
            return True
    return g == 1


def spans_equal_bruteforce(
    a: Sequence[Sequence[int]],
    b: Sequence[Sequence[int]],
    box: int = 4,
    coeff_bound: int = 30,
) -> bool:
    """Compare row spans on every vector of a bounded box.

    Each side's combinations with coefficients in [-coeff_bound, coeff_bound]
    are built once; a box vector counts as in a span when it is in that set.
    """
    width = len(a[0])
    reach_a = _combinations_in_box(a, coeff_bound)
    reach_b = _combinations_in_box(b, coeff_bound)
    for v in itertools.product(range(-box, box + 1), repeat=width):
        if (v in reach_a) != (v in reach_b):
            return False
    return True


def _combinations_in_box(
    rows: Sequence[Sequence[int]], coeff_bound: int
) -> set[tuple[int, ...]]:
    width = len(rows[0])
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(width))
        for coeffs in itertools.product(
            range(-coeff_bound, coeff_bound + 1), repeat=len(rows)
        )
    }


def saturation_members_bruteforce(
    rows: Sequence[Sequence[int]], box: int
) -> set[tuple[int, ...]]:
    """All box vectors in the saturation: c*v lies in the row span for some
    c >= 1 exactly when v is in the rational span."""
    width = len(rows[0])
    out = set()
    for v in itertools.product(range(-box, box + 1), repeat=width):
        if rational_coords(rows, v) is not None:
            out.add(tuple(v))
    return out


def column_hnf_key(rows: Sequence[Sequence[int]]) -> tuple:
    """Canonical key of the right-GL(k, Z) orbit of a row-stacked matrix.

    Two n x k integer matrices M, M' satisfy M @ U == M' for some
    U in GL(k, Z) exactly when their column-style Hermite forms agree.
    """
    if not rows:
        return ()
    m = SymMatrix([list(r) for r in rows])
    if all(x == 0 for x in m):
        return ("zero", m.shape)
    h = hermite_normal_form(m)
    return tuple(tuple(int(x) for x in h.row(i)) for i in range(h.rows))


def rational_coords(
    basis: Sequence[Sequence[int]], v: Sequence[int]
) -> Optional[tuple[Fraction, ...]]:
    """Coordinates of v over independent basis rows, solved over Q."""
    rows = [[Fraction(x) for x in r] for r in basis]
    target = [Fraction(x) for x in v]
    n = len(rows)
    width = len(target)
    # Gaussian elimination on the transposed system sum_i c_i rows[i] = v.
    aug = [[rows[i][j] for i in range(n)] + [target[j]] for j in range(width)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, width) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(width):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    coeffs = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        coeffs[c] = aug[row_idx][-1]
    # Verify (also catches inconsistent systems).
    for j in range(width):
        if sum(coeffs[i] * rows[i][j] for i in range(n)) != target[j]:
            return None
    return tuple(coeffs)


def gl_orbit_match(
    src: Sequence[Sequence[int]], dst: Sequence[Sequence[int]], k: int
) -> bool:
    """Does some A in GL(k, Z) send each src row to +-(same-index dst row)?

    Signs are pinned down by rational transport over an independent subset,
    then membership in the same right-GL orbit is decided by comparing
    column Hermite forms.
    """
    if len(src) != len(dst):
        return False
    if not src:
        return True
    chosen: list[int] = []
    for idx in range(len(src)):
        trial = [src[i] for i in chosen] + [src[idx]]
        if rational_rank(trial) == len(trial):
            chosen.append(idx)
    basis = [src[i] for i in chosen]
    coords = [rational_coords(basis, v) for v in src]
    if any(c is None for c in coords):
        return False
    for signs in itertools.product((1, -1), repeat=len(chosen)):
        eps: list[Optional[int]] = [None] * len(src)
        ok = True
        for pos, idx in enumerate(chosen):
            eps[idx] = signs[pos]
        for i, c in enumerate(coords):
            if eps[i] is not None:
                continue
            image = [
                sum(c[pos] * signs[pos] * Fraction(dst[chosen[pos]][j]) for pos in range(len(chosen)))
                for j in range(k)
            ]
            if image == [Fraction(x) for x in dst[i]]:
                eps[i] = 1
            elif image == [Fraction(-x) for x in dst[i]]:
                eps[i] = -1
            else:
                ok = False
                break
        if not ok:
            continue
        signed_dst = [[e * x for x in row] for e, row in zip(eps, dst)]
        if column_hnf_key(src) == column_hnf_key(signed_dst):
            return True
    return False


def gl_sign_normal_form_reference(m: Sequence[Sequence[int]]) -> tuple:
    """Least form over the pivot-column flips, each flip reduced afresh.

    The row HNF settles GL(k, Z); every non-pivot column is then
    sign-canonicalised (its first nonzero entry positive), and the first
    pivot column is never flipped, since flipping every column is -I.
    """
    h = hnf(m)
    pivots = [next(j for j, x in enumerate(row) if x) for row in h if any(row)]
    best = None
    for signs in itertools.product((1, -1), repeat=max(len(pivots) - 1, 0)):
        flip = dict(zip(pivots[1:], signs))
        flipped = tuple(tuple(x * flip.get(j, 1) for j, x in enumerate(row)) for row in h)
        rows = [list(row) for row in hnf(flipped)]
        for j in range(len(rows[0])):
            if j in pivots:
                continue
            lead = next((row[j] for row in rows if row[j]), 0)
            if lead < 0:
                for row in rows:
                    row[j] = -row[j]
        form = tuple(tuple(row) for row in rows)
        if best is None or form < best:
            best = form
    return best


def hnf_rows_reference(m, carry: Optional[list[list[int]]] = None) -> list[list[int]]:
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


def solve_full_rank_reference(s_rows, d_rows, j: list[int], k: int):
    """Row-action matrix M with s_i @ M == +-d_i, via sign enumeration on a
    rational basis S among the sources.

    With U @ S == H upper triangular, S @ M == D becomes H @ M == U @ D,
    solved by integer back-substitution; a remainder means no integral M.
    The Hermite form with its transform comes from ``hnf_rows_reference``.
    """
    carry = [list(r) for r in identity(len(j))]
    h = tuple(map(tuple, hnf_rows_reference(tuple(s_rows[i] for i in j), carry)))
    u = tuple(map(tuple, carry))
    for signs in itertools.product((1, -1), repeat=k):
        d_basis = tuple(
            tuple(e * x for x in d_rows[i]) for e, i in zip(signs, j)
        )
        rhs = mat_mul(u, d_basis)
        m_row: list = [()] * k
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


def census_bruteforce(poset, k: int, vocab: Sequence[tuple[int, ...]]) -> list[tuple]:
    """Unpruned census: full product enumeration over the label vocabulary,
    validity decided by the minor-gcd oracle at every face."""
    facets = poset.facets()
    star = {f: poset.facets_containing(f) for f in poset.ids()}
    valid = []
    for labels in itertools.product(vocab, repeat=len(facets)):
        assignment = dict(zip(facets, labels))
        ok = True
        for f in poset.ids():
            rows = [assignment[x] for x in star[f]]
            if len(rows) > k or not minor_gcd_is_summand(rows):
                ok = False
                break
        if ok:
            valid.append(labels)
    return valid


def enumerate_labelings_reference(spec) -> list[tuple]:
    """Valid labelings of a CensusSpec in lexicographic vocabulary order.

    Depth-first over the facets in linear-extension order, trying every
    vocabulary index in turn; a face is checked when its last facet gets a
    label, with its summand test memoised on the sorted index tuple.
    """
    poset = spec.poset
    facets = [f for f in poset.linear_extension() if poset.codim(f) == 1]
    if not facets:
        return [()]
    vocab = [v.coords for v in primitive_vectors_in_box(spec.k, spec.entry_bound)]
    pos = {f: i for i, f in enumerate(facets)}
    check_at: list[list[list[int]]] = [[] for _ in facets]
    for f in poset.ids():
        positions = [pos[x] for x in poset.facets_containing(f)]
        if positions:
            check_at[max(positions)].append(positions)
    summand: dict[tuple[int, ...], bool] = {}
    chosen = [-1] * len(facets)

    def passes(i: int) -> bool:
        for positions in check_at[i]:
            if len(positions) > spec.k:
                return False
            key = tuple(sorted(chosen[p] for p in positions))
            if key not in summand:
                summand[key] = is_direct_summand(tuple(vocab[j] for j in key))
            if not summand[key]:
                return False
        return True

    out = []
    i = 0
    while i >= 0:
        chosen[i] += 1
        if chosen[i] == len(vocab):
            chosen[i] = -1
            i -= 1
        elif passes(i):
            if i == len(facets) - 1:
                out.append(tuple(vocab[j] for j in chosen))
            else:
                i += 1
    return out


def deduplicate_reference(dedup: str, labelings, automorphisms) -> tuple:
    """``census._deduplicate`` with the weak key taken over every member.

    The strong class of a labeling is the set of its images under every
    facet permutation in ``automorphisms``.  A weak class joins the strong
    classes whose members' least ``gl_sign_normal_form`` agree; the form of
    every member of every orbit is computed.  Classes come sorted by their
    least member.
    """
    if dedup == "none":
        return tuple(CensusClass(lab, 1) for lab in labelings)
    group = list(automorphisms)
    seen: set = set()
    classes: dict = {}  # key -> [least member, size]
    for lab in labelings:
        if lab in seen:
            continue
        orbit = {tuple(lab[p] for p in perm) for perm in group}
        seen |= orbit
        if dedup == "strong":
            key = min(orbit)
        elif lab:
            key = min(gl_sign_normal_form(tuple(zip(*m))) for m in orbit)
        else:
            key = ()
        entry = classes.setdefault(key, [min(orbit), 0])
        entry[0] = min(entry[0], min(orbit))
        entry[1] += len(orbit)
    return tuple(
        sorted((CensusClass(rep, size) for rep, size in classes.values()),
               key=lambda c: c.representative)
    )


def exhaustive_pair_equivalent(a, b, mode: str) -> bool:
    """Ground-truth equivalence by plain depth-first search over all face
    bijections that respect codimension and covers, with the label condition
    checked at every complete bijection.

    No refinement, no label pruning: this is the slow independent mirror of
    the production deciders.
    """
    if a.k != b.k or a.dim_orbit != b.dim_orbit:
        return False
    ids_a = sorted(a.poset.ids(), key=lambda f: (a.poset.codim(f), f))
    ids_b = b.poset.ids()
    if len(ids_a) != len(ids_b):
        return False
    covers_a = set(a.poset.covers())
    covers_b = set(b.poset.covers())
    labels_a = {f: v.coords for f, v in a.labels().items()}
    labels_b = {f: v.coords for f, v in b.labels().items()}
    facets_a = a.poset.facets()
    phi: dict[str, str] = {}
    used: set[str] = set()

    def leaf_ok() -> bool:
        if mode == "strong":
            return all(labels_a[f] == labels_b[phi[f]] for f in facets_a)
        src = [labels_a[f] for f in facets_a]
        dst = [labels_b[phi[f]] for f in facets_a]
        return gl_orbit_match(src, dst, a.k)

    def rec(i: int) -> bool:
        if i == len(ids_a):
            return leaf_ok()
        u = ids_a[i]
        for v in ids_b:
            if v in used or a.poset.codim(u) != b.poset.codim(v):
                continue
            ok = True
            for w, wv in phi.items():
                if ((w, u) in covers_a) != ((wv, v) in covers_b):
                    ok = False
                    break
                if ((u, w) in covers_a) != ((v, wv) in covers_b):
                    ok = False
                    break
            if not ok:
                continue
            phi[u] = v
            used.add(v)
            if rec(i + 1):
                del phi[u]
                used.discard(v)
                return True
            del phi[u]
            used.discard(v)
        return False

    return rec(0)


def census_classes_pairwise(labelings, pair_of, mode: str) -> list[tuple]:
    """Reference census dedup: each labeling joins the first class whose
    first member ``exhaustive_pair_equivalent`` matches to it.

    Only classes with the same label multiset (strong) or the same multiset
    of label-class sizes (weak) are compared, since equivalence keeps both.
    Returns sorted (least member, size) pairs.
    """
    groups: dict[tuple, list[tuple]] = {}
    for lab in labelings:
        counts: dict[tuple, int] = {}
        for v in lab:
            counts[v] = counts.get(v, 0) + 1
        key = tuple(sorted(lab)) if mode == "strong" else tuple(sorted(counts.values()))
        cp = pair_of(lab)
        buckets = groups.setdefault(key, [])
        for first, members in buckets:
            if exhaustive_pair_equivalent(first, cp, mode):
                members.append(lab)
                break
        else:
            buckets.append((cp, [lab]))
    return sorted(
        (min(members), len(members))
        for buckets in groups.values()
        for _, members in buckets
    )


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def poset_violations_reference(poset) -> list[tuple]:
    """The niceness checks of ``FacePoset.validate``, recomputed from the raw
    faces and covers with a breadth-first up-closure.

    Returns sorted (kind, faces, detail) triples, so it is compared with the
    library's report as a multiset; detail strings are built the same way.
    """
    codim = {f: poset.codim(f) for f in poset.ids()}
    covers = sorted(poset.covers())
    up: dict[str, list[str]] = {f: [] for f in codim}
    for lo, hi in covers:
        up[lo].append(hi)
    out = []
    tops = sorted(f for f, c in codim.items() if c == 0)
    if len(tops) != 1:
        out.append(("top", tuple(tops),
                    f"expected exactly one codimension-0 face, found {len(tops)}"))
    for lo, hi in covers:
        if codim[lo] != codim[hi] + 1:
            out.append(("grading", (lo, hi),
                        f"cover {lo!r} (codim {codim[lo]}) over {hi!r} "
                        f"(codim {codim[hi]}) must drop codimension by 1"))
    for f in sorted(codim):
        if codim[f] > poset.dim_orbit:
            out.append(("codim-bound", (f,),
                        f"codimension {codim[f]} exceeds orbit dimension "
                        f"{poset.dim_orbit}"))
    if out:
        return sorted(out)

    def above(f: str) -> set[str]:
        seen, queue = {f}, [f]
        while queue:
            for g in up[queue.pop()]:
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
        return seen

    uppers = {f: above(f) for f in codim}
    stars = {f: frozenset(g for g in uppers[f] if codim[g] == 1) for f in codim}
    for f in sorted(codim):
        n = codim[f]
        if len(stars[f]) != n:
            star = sorted(stars[f])
            out.append(("niceness", (f,),
                        f"face of codimension {n} lies below {len(star)} facets "
                        f"({star}); niceness requires exactly {n}"))
            continue
        interval = uppers[f]
        if len(interval) != 2 ** n:
            out.append(("boolean-interval", (f,),
                        f"upper interval has {len(interval)} faces, expected {2 ** n}"))
            continue
        seen: set[frozenset[str]] = set()
        clash = None
        for g in sorted(interval):
            if not stars[g] <= stars[f] or stars[g] in seen:
                clash = g
                break
            seen.add(stars[g])
        if clash is not None:
            out.append(("boolean-interval", (f, clash),
                        "faces above do not match distinct facet subsets"))
            continue
        for g1 in interval:
            for g2 in interval:
                if (g2 in uppers[g1]) != (stars[g2] <= stars[g1]):
                    out.append(("boolean-interval", (f, g1, g2),
                                "interval order disagrees with facet-subset order"))
    return sorted(out)


def label_violations_reference(cp) -> list[tuple]:
    """The checks of ``validate_characteristic``, one face at a time in id
    order, with the minor-gcd summand test and stars read off the upper
    sets.  Returns (kind, faces, detail) triples in report order."""
    poset = cp.poset
    out = []
    for f in poset.ids():
        n = poset.codim(f)
        if n == 0:
            continue
        if n > cp.k:
            out.append(("codim-rank", (f,), f"codimension {n} exceeds torus rank {cp.k}"))
            continue
        star = sorted(g for g in poset.upper_set(f) if poset.codim(g) == 1)
        rows = [cp.label(g).coords for g in star]
        if not minor_gcd_is_summand(rows):
            out.append(("summand", (f,),
                        f"facet labels {rows} do not span a rank-{n} direct summand"))
    return out


# ---------------------------------------------------------------------------
# Chart formulas, evaluated term by term with the same float operations in
# the same order as ``lstorus.localmodel``, so results must agree exactly.


def polynomial_value(poly, values: Sequence[float]) -> float:
    """Sum over the terms of coeff * v_i ** e_i over the nonzero exponents,
    in variable order."""
    if len(values) != poly.nvars:
        raise ValueError("wrong number of variables")
    total = 0.0
    for exps, coeff in poly.terms:
        prod = coeff
        for v, e in zip(values, exps):
            if e:
                prod *= v ** e
        total += prod
    return total


def layers_with_logs_reference(layers, n: int, x, y) -> tuple:
    """(x', y', logs): the image of (x, y) under the layers, one layer at a
    time, and the accumulated log-multiplier of each x_i."""
    state = list(x) + list(y)
    logs = [0.0] * n
    for layer in layers:
        if isinstance(layer, XScaleLayer):
            val = polynomial_value(layer.q, state)
            logs[layer.index] += val
            state[layer.index] *= math.exp(val)
        elif isinstance(layer, YShearLayer):
            state[n + layer.index] += polynomial_value(layer.p, state)
        else:
            state[n + layer.index] *= layer.factor
    return tuple(state[:n]), tuple(state[n:]), tuple(logs)


def torus_angles_reference(f, x, y) -> tuple[float, ...]:
    """TorusMap angles from the definition: every term runs its own prefix."""
    total = [0.0] * f.k
    for prefix, polys, sign in f.terms:
        xs, ys, _ = layers_with_logs_reference(prefix, f.n, x, y)
        state = list(xs) + list(ys)
        for i, poly in enumerate(polys):
            total[i] += sign * polynomial_value(poly, state)
    return tuple(total)


def model_point_reference(z, t, y):
    """A ModelPoint filled in field by field: every entry converted, angles
    reduced into [0, 2*pi), finiteness checked."""
    def reduce(a: float) -> float:
        r = math.fmod(a, 2.0 * math.pi)
        return r + 2.0 * math.pi if r < 0 else r

    zt = tuple(complex(v) for v in z)
    tt = tuple(reduce(float(v)) for v in t)
    yt = tuple(float(v) for v in y)
    for v in zt:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise LocalModelError(f"non-finite z entry {v!r}")
    if any(not math.isfinite(v) for v in tt + yt):
        raise LocalModelError("non-finite coordinate")
    p = object.__new__(ModelPoint)
    object.__setattr__(p, "z", zt)
    object.__setattr__(p, "t", tt)
    object.__setattr__(p, "y", yt)
    return p


def lift_diffeo_reference(spec, p):
    """The lifted diffeomorphism at p: z_i scaled by exp(logs_i / 2) and
    rotated, t translated, by the angle difference of the two torus maps."""
    x = tuple(v.real * v.real + v.imag * v.imag for v in p.z)
    x2, y2, logs = layers_with_logs_reference(spec.phi.layers, spec.n, x, p.y)
    for xi, xi2 in zip(x, x2):
        if (xi == 0.0) != (xi2 == 0.0):
            raise LocalModelError("face preservation violated at runtime")
    a1 = torus_angles_reference(spec.f1, x, p.y)
    a2 = torus_angles_reference(spec.f2, x2, y2)
    theta = tuple(b - a for a, b in zip(a1, a2))
    z = tuple(
        v * math.exp(0.5 * lg) * cmath.exp(1j * th)
        for v, lg, th in zip(p.z, logs, theta[: spec.n])
    )
    t = tuple(tv + th for tv, th in zip(p.t, theta[spec.n :]))
    return model_point_reference(z, t, y2)
