"""Numeric model of the standard chart C^n x T^{k-n} x R^m.

The orbit map sends (z, t, y) to (|z_1|^2, ..., |z_n|^2, y).  A face-
preserving diffeomorphism of the orbit space is represented as a sequence
of primitive layers, each scaling one x-coordinate by exp(q) with q a
polynomial in the other variables, or shearing/scaling one y-coordinate.
The layer family is closed under composition (concatenation) and has exact
closed-form inverses, and it tracks the logarithm of every multiplier, so
the quotient Phi_i(x, y) / x_i is evaluated without ever dividing: its
value exp(L_i) is defined on the boundary x_i = 0 as well.

Lifted equivariant diffeomorphisms multiply each z_i by the square root of
that quotient and by a torus factor built from two angle-valued maps on the
orbit space; removable singularities at z_i = 0 are exact zeros.

Checks run where they belong.  On construction: a Polynomial's exponents
and coefficients; a FaceDiffeo's layers (index ranges, no layer polynomial
in its own coordinate, all in n + m variables, nonzero finite y-scales);
a TorusMap's terms (k polynomials in n + m variables each, every prefix a
valid FaceDiffeo).  Evaluation then trusts that data and runs on columns,
one list of values per variable for a batch of points: every polynomial
runs from its plan through one evaluator, `_eval_plan`, which walks each
term once per batch, with no arity check.  A public function of one point
evaluates a batch of one and builds the point it returns.  The checks of
run_local_checks keep each batch of up to _BATCH points as columns from
the draw to the distance, and build no point per sample; a smoothness
probe lifts the distinct points of its slice in one batch.  On each point:
the point's dimensions against the map, face preservation (x_i = 0
exactly when Phi_i = 0), and the checks of the ModelPoint or OrbitPoint
constructor (angles reduced mod 2*pi into [0, 2*pi), all coordinates
finite, x >= 0).  A batch passes those in one sweep over its columns; if
some entry fails, its points are built one by one, so the first failing
point raises the constructor's own error.  Each point goes through the
same float operations in one fixed order in any batch, so the same inputs
give bit-identical points and reports.

Derivative checks use one-sided finite differences extrapolated over a
geometric step ladder.  Such numbers are evidence for or against
smoothness, never proof; reports say so explicitly.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

TWO_PI = 2.0 * math.pi


class LocalModelError(ValueError):
    pass


class CornerHypothesisError(LocalModelError):
    """The sampled function violates the corner-quotient hypotheses."""


class StepUnderflowError(LocalModelError):
    pass


# ---------------------------------------------------------------------------
# Points.
#
# A batch of chart points is held as columns (z, t, y): lists of n, k - n
# and m columns, each the batch's values of one coordinate.  A batch of
# orbit points is the list of its n + m columns x + y.  The batch functions
# are private and unannotated: that keeps this module under 8,192 tokens,
# past which CPython 3.11's parser doubles its token array (about 0.45 MiB
# more at the peak of every compile; see ROADMAP item 16).


def _reduce_angle(a: float) -> float:
    """a mod 2*pi, in [0, 2*pi): the outer % maps to 0.0 a tiny negative
    remainder, whose sum with 2*pi rounds up to 2*pi."""
    r = math.fmod(a, TWO_PI)
    return (r + TWO_PI) % TWO_PI if r < 0 else r


def _col(values):
    """The columns of a batch of one point with these coordinates."""
    return [[v] for v in values]


def _row(cols):
    """The coordinates of the first point of a batch of columns."""
    return tuple(c[0] for c in cols)


def _rows(cols: Sequence[Sequence], count: int) -> list[tuple]:
    """The count rows of columns (list(zip(*rows)) makes columns)."""
    return list(zip(*cols)) if cols else [()] * count


@dataclass(frozen=True)
class ModelPoint:
    """A point (z, t, y) of the chart; angles stored reduced mod 2*pi."""

    z: tuple[complex, ...]
    t: tuple[float, ...]
    y: tuple[float, ...]

    def __init__(self, z: Sequence[complex], t: Sequence[float], y: Sequence[float]):
        z, t, y = tuple(map(complex, z)), tuple(map(float, t)), tuple(map(float, y))
        for v in z:
            if not cmath.isfinite(v):
                raise LocalModelError(f"non-finite z entry {v!r}")
        # Before the reduction: math.fmod raises on an infinite angle.
        for v in t + y:
            if not math.isfinite(v):
                raise LocalModelError("non-finite coordinate")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", tuple(map(_reduce_angle, t)))
        object.__setattr__(self, "y", y)

    def _columns(self):
        return _col(self.z), _col(self.t), _col(self.y)


@dataclass(frozen=True)
class OrbitPoint:
    """A point of the orbit space R^n_{>=0} x R^m."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __init__(self, x: Sequence[float], y: Sequence[float]):
        x, y = tuple(map(float, x)), tuple(map(float, y))
        for v in x:
            if v < 0:
                raise LocalModelError(f"negative x coordinate in {x}")
        for v in x + y:
            if not math.isfinite(v):
                raise LocalModelError("non-finite coordinate")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _check(kind, parts, count, x=()):
    """The checks of kind, ModelPoint or OrbitPoint, on a batch of count
    points, parts holding the columns of each of its arguments: every entry
    finite, and the columns x >= 0.  On a failure the points are built one
    by one, so the first failing point raises its own error."""
    if (min(itertools.chain(*x), default=0.0) < 0
            or not all(map(cmath.isfinite, itertools.chain(*itertools.chain(*parts))))):
        for row in zip(*[_rows(part, count) for part in parts]):
            kind(*row)


def _transposed(rows):
    """The columns of each part of rows, a list of tuples of coordinate
    lists: the parts of a batch."""
    return [list(zip(*part)) for part in zip(*rows)]


def _model_batch(z, t, y, count):
    """The batch (z, t, y) of count points, checked as by ModelPoint, with
    its angles reduced."""
    _check(ModelPoint, (z, t, y), count)
    return z, [list(map(_reduce_angle, c)) for c in t], y


def _orbit_batch(cols, n, count):
    """The batch x + y of count points, checked as by OrbitPoint."""
    _check(OrbitPoint, (cols[:n], cols[n:]), count, cols[:n])
    return cols


def _orbit_columns(x, y, n, m):
    """The columns x + y of a batch of one orbit point, of n + m values."""
    if len(x) != n or len(y) != m:
        raise LocalModelError("point does not match the chart dimensions")
    return _col((*x, *y))


def orbit_map(p: ModelPoint) -> OrbitPoint:
    n, cols = len(p.z), _orbit(p._columns())
    return OrbitPoint(_row(cols[:n]), _row(cols[n:]))


def _orbit(batch):
    """The columns x + y of orbit_map on a batch, before OrbitPoint's checks."""
    z, _, y = batch
    return [[v.real * v.real + v.imag * v.imag for v in c] for c in z] + y


def standard_section(q: OrbitPoint, torus_dim: int) -> ModelPoint:
    """The square-root section: x maps to (sqrt(x), identity, y)."""
    if torus_dim < 0:
        raise LocalModelError("torus dimension must be nonnegative")
    return ModelPoint(
        [complex(math.sqrt(v), 0.0) for v in q.x],
        (0.0,) * torus_dim,
        q.y,
    )


def torus_act(angles: Sequence[float], p: ModelPoint, n: int) -> ModelPoint:
    """Standard action of a k-torus element given by angles: the first n
    rotate the z coordinates, the rest translate the t coordinates."""
    if len(angles) != n + len(p.t) or len(p.z) != n:
        raise LocalModelError("angle count does not match the chart")
    return ModelPoint(*map(_row, _act(_col(angles), p._columns(), 1)))


def _act(angles, batch, count):
    """torus_act on a batch (z, t, y) of count points; angles holds the k
    columns of their torus elements."""
    z, t, y = batch
    return _model_batch(
        [[v * cmath.exp(1j * a) for v, a in zip(*cols)] for cols in zip(z, angles)],
        [[v + a for v, a in zip(*cols)] for cols in zip(t, angles[len(z):])],
        y,
        count,
    )


# ---------------------------------------------------------------------------
# Polynomials and primitive layers.

# A plan is a polynomial ready for evaluation: one (coefficient, powers)
# pair per term, powers being the nonzero (variable, exponent) pairs in
# variable order.
Plan = tuple[tuple[float, tuple[tuple[int, int], ...]], ...]


def _eval_plan(plan: Plan, cols: Sequence[Sequence[float]], count: int) -> list[float]:
    """The polynomial's value at each of a batch of count points, given as
    columns: cols[i] holds variable i at every point.  Each term is walked
    once per batch.  Columns are replaced, never changed in place."""
    total = [0.0] * count
    for coeff, powers in plan:
        prod = [coeff] * count
        for i, e in powers:
            prod = [a * v ** e for a, v in zip(prod, cols[i])]
        total = [a + b for a, b in zip(total, prod)]
    return total


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: tuples of exponents over nvars variables.

    Evaluation follows its plan (see `_eval_plan`).
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __init__(self, nvars: int, terms):
        items = []
        for exps, coeff in dict(terms).items():
            e = tuple(int(v) for v in exps)
            if len(e) != nvars or any(v < 0 for v in e):
                raise LocalModelError(f"bad exponent tuple {exps!r}")
            c = float(coeff)
            if not math.isfinite(c):
                raise LocalModelError("non-finite coefficient")
            if c != 0.0:
                items.append((e, c))
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "terms", tuple(sorted(items)))
        object.__setattr__(self, "_plan", tuple(
            (c, tuple((i, v) for i, v in enumerate(e) if v)) for e, c in self.terms
        ))

    def __call__(self, values: Sequence[float]) -> float:
        if len(values) != self.nvars:
            raise LocalModelError("wrong number of variables")
        return _eval_plan(self._plan, list(zip(values)), 1)[0]

    def negate(self) -> "Polynomial":
        return Polynomial(self.nvars, [(e, -c) for e, c in self.terms])

    def depends_on(self, var: int) -> bool:
        return any(e[var] for e, _ in self.terms)

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, [])


@dataclass(frozen=True)
class XScaleLayer:
    """x_i gets multiplied by exp(q(x, y)); q must not involve x_i itself,
    which makes the layer a diffeomorphism with an exact inverse."""

    index: int
    q: Polynomial

    def inverted(self) -> "XScaleLayer":
        return XScaleLayer(self.index, self.q.negate())


@dataclass(frozen=True)
class YShearLayer:
    """y_j gets p(x, y) added; p must not involve y_j itself."""

    index: int
    p: Polynomial

    def inverted(self) -> "YShearLayer":
        return YShearLayer(self.index, self.p.negate())


@dataclass(frozen=True)
class YScaleLayer:
    index: int
    factor: float

    def inverted(self) -> "YScaleLayer":
        return YScaleLayer(self.index, 1.0 / self.factor)


Layer = XScaleLayer | YShearLayer | YScaleLayer


def _run_layers(layers: Sequence[Layer], n: int, cols: list, count: int) -> list:
    """Run the layers on the columns of x + y, replacing columns of cols,
    and return the column of the log-multiplier of each x_i.  The layers
    must have passed FaceDiffeo's checks for this n and n + m columns."""
    logs = [[0.0] * count] * n
    for layer in layers:
        kind = type(layer)
        if kind is XScaleLayer:
            i = layer.index
            vals = _eval_plan(layer.q._plan, cols, count)
            logs[i] = [a + v for a, v in zip(logs[i], vals)]
            try:
                cols[i] = [x * math.exp(v) for x, v in zip(cols[i], vals)]
            except OverflowError as exc:
                raise LocalModelError("x-scale multiplier overflows") from exc
        elif kind is YShearLayer:
            j = n + layer.index
            cols[j] = [a + v for a, v in zip(cols[j], _eval_plan(layer.p._plan, cols, count))]
        else:
            j, factor = n + layer.index, layer.factor
            cols[j] = [a * factor for a in cols[j]]
    return logs


@dataclass(frozen=True)
class FaceDiffeo:
    """A face-preserving diffeomorphism of R^n_{>=0} x R^m as layers."""

    n: int
    m: int
    layers: tuple[Layer, ...]

    def __init__(self, n: int, m: int, layers: Sequence[Layer] = ()):
        if n < 0 or m < 0:
            raise LocalModelError("dimensions must be nonnegative")
        nv = n + m
        for layer in layers:
            if type(layer) is XScaleLayer:
                if not 0 <= layer.index < n:
                    raise LocalModelError(f"x index {layer.index} out of range")
                if layer.q.nvars != nv or layer.q.depends_on(layer.index):
                    raise LocalModelError(
                        "x-scale exponent must be a polynomial in the other "
                        "variables only"
                    )
            elif type(layer) is YShearLayer:
                if not 0 <= layer.index < m:
                    raise LocalModelError(f"y index {layer.index} out of range")
                if layer.p.nvars != nv or layer.p.depends_on(n + layer.index):
                    raise LocalModelError(
                        "y-shear must be a polynomial in the other variables only"
                    )
            elif type(layer) is YScaleLayer:
                if not 0 <= layer.index < m:
                    raise LocalModelError(f"y index {layer.index} out of range")
                if layer.factor == 0.0 or not math.isfinite(layer.factor):
                    raise LocalModelError("y-scale factor must be nonzero finite")
            else:
                raise LocalModelError(f"unknown layer {layer!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "layers", tuple(layers))

    def apply_with_logs(
        self, x: Sequence[float], y: Sequence[float]
    ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """Image of (x, y) plus the accumulated log-multiplier of each x_i,
        so Phi_i(x, y) == x_i * exp(logs[i]) holds exactly."""
        cols = _orbit_columns(x, y, self.n, self.m)
        logs = _run_layers(self.layers, self.n, cols, 1)
        return _row(cols[: self.n]), _row(cols[self.n :]), _row(logs)

    def apply(self, q: OrbitPoint) -> OrbitPoint:
        return OrbitPoint(*self.apply_with_logs(q.x, q.y)[:2])

    def _apply(self, cols, count):
        """apply on the batch x + y of count orbit points, left unchanged."""
        cols = cols.copy()
        _run_layers(self.layers, self.n, cols, count)
        return _orbit_batch(cols, self.n, count)

    def inverse(self) -> "FaceDiffeo":
        return FaceDiffeo(
            self.n, self.m, tuple(l.inverted() for l in reversed(self.layers))
        )

    def after(self, other: "FaceDiffeo") -> "FaceDiffeo":
        """self composed after other (other runs first)."""
        if (self.n, self.m) != (other.n, other.m):
            raise LocalModelError("chart dimensions differ")
        return FaceDiffeo(self.n, self.m, other.layers + self.layers)

    @classmethod
    def identity(cls, n: int, m: int) -> "FaceDiffeo":
        return cls(n, m, ())


@dataclass(frozen=True)
class TorusMap:
    """An angle-valued map on the orbit space, T^k-valued pointwise.

    Stored as a sum of terms, each a k-tuple of polynomials in the n + m
    orbit-space variables, evaluated after an optional prefix of layers;
    that closure makes composition of lifted diffeomorphisms exact.  Terms
    and prefixes are validated once, on construction.  Each distinct
    prefix runs once per evaluation, and terms without a prefix share the
    unmoved point.
    """

    k: int
    n: int
    m: int
    terms: tuple[tuple[tuple[Layer, ...], tuple[Polynomial, ...], int], ...] = ()

    def __post_init__(self) -> None:
        nv = self.n + self.m
        slot_of: dict[tuple[Layer, ...], int] = {}
        plan = []
        for prefix, polys, sign in self.terms:
            if len(polys) != self.k:
                raise LocalModelError("need one angle polynomial per torus factor")
            for poly in polys:
                if not isinstance(poly, Polynomial) or poly.nvars != nv:
                    raise LocalModelError(
                        "angle polynomials must live on the orbit space"
                    )
            slot = -1
            if prefix:
                if prefix not in slot_of:
                    FaceDiffeo(self.n, self.m, prefix)
                    slot_of[prefix] = len(slot_of)
                slot = slot_of[prefix]
            plan.append((prefix, slot, tuple(poly._plan for poly in polys), sign))
        object.__setattr__(self, "_plan", tuple(plan))
        object.__setattr__(self, "_slot_count", len(slot_of))

    def angles(self, x: Sequence[float], y: Sequence[float]) -> tuple[float, ...]:
        return _row(self._angles(_orbit_columns(x, y, self.n, self.m), 1))

    def _angles(self, base: list, count: int) -> list:
        """The column of each angle at the count points of the columns
        base = x + y, which are left unchanged."""
        total = [[0.0] * count] * self.k
        states: list[Optional[list]] = [None] * self._slot_count
        for prefix, slot, plans, sign in self._plan:
            if slot < 0:
                state = base
            else:
                state = states[slot]
                if state is None:
                    state = states[slot] = base.copy()
                    _run_layers(prefix, self.n, state, count)
            for i in range(len(plans)):
                vals = _eval_plan(plans[i], state, count)
                total[i] = [a + sign * v for a, v in zip(total[i], vals)]
        return total

    def plus(self, other: "TorusMap") -> "TorusMap":
        self._check(other)
        return TorusMap(self.k, self.n, self.m, self.terms + other.terms)

    def minus(self, other: "TorusMap") -> "TorusMap":
        self._check(other)
        negated = tuple((p, polys, -s) for p, polys, s in other.terms)
        return TorusMap(self.k, self.n, self.m, self.terms + negated)

    def precomposed(self, phi: FaceDiffeo) -> "TorusMap":
        terms = tuple(
            (phi.layers + prefix, polys, sign) for prefix, polys, sign in self.terms
        )
        return TorusMap(self.k, self.n, self.m, terms)

    def _check(self, other: "TorusMap") -> None:
        if (self.k, self.n, self.m) != (other.k, other.n, other.m):
            raise LocalModelError("torus map shapes differ")

    @classmethod
    def from_polys(cls, k: int, n: int, m: int, polys: Sequence[Polynomial]) -> "TorusMap":
        return cls(k, n, m, (((), tuple(polys), 1),))

    @classmethod
    def identity(cls, k: int, n: int, m: int) -> "TorusMap":
        return cls(k, n, m, ())


@dataclass(frozen=True)
class SmoothMapSpec:
    """The data of an equivariant chart diffeomorphism: a face-preserving
    orbit-space map and two torus-valued maps (the section twists)."""

    n: int
    k: int
    m: int
    phi: FaceDiffeo
    f1: TorusMap
    f2: TorusMap

    def __post_init__(self) -> None:
        if not (0 <= self.n <= self.k):
            raise LocalModelError("need 0 <= n <= k")
        if (self.phi.n, self.phi.m) != (self.n, self.m):
            raise LocalModelError("orbit map dimensions disagree")
        for f in (self.f1, self.f2):
            if (f.k, f.n, f.m) != (self.k, self.n, self.m):
                raise LocalModelError("torus map dimensions disagree")

    @classmethod
    def identity(cls, n: int, k: int, m: int) -> "SmoothMapSpec":
        return cls(
            n,
            k,
            m,
            FaceDiffeo.identity(n, m),
            TorusMap.identity(k, n, m),
            TorusMap.identity(k, n, m),
        )

    def compose_after(self, first: "SmoothMapSpec") -> "SmoothMapSpec":
        """Data of the composition: self applied after first."""
        if (self.n, self.k, self.m) != (first.n, first.k, first.m):
            raise LocalModelError("chart dimensions differ")
        phi = self.phi.after(first.phi)
        f1 = first.f1.plus(self.f1.minus(first.f2).precomposed(first.phi))
        return SmoothMapSpec(self.n, self.k, self.m, phi, f1, self.f2)

    def inverse(self) -> "SmoothMapSpec":
        return SmoothMapSpec(
            self.n, self.k, self.m, self.phi.inverse(), self.f2, self.f1
        )


def lift_diffeo(spec: SmoothMapSpec, p: ModelPoint) -> ModelPoint:
    """Evaluate the lifted equivariant diffeomorphism at a chart point.

    Each z_i is scaled by sqrt(Phi_i / x_i) through the exact log-multiplier
    (never by division, so z_i = 0 stays exactly 0) and rotated by the
    angle difference of the two torus maps; t is translated; y follows the
    orbit-space map.
    """
    return ModelPoint(*map(_row, _lift(spec, p._columns(), 1)))


def _lift(spec, batch, count):
    """lift_diffeo on a batch (z, t, y) of count points.  When several
    points fail, the error is from the first stage at which one of them
    fails."""
    (z, t, y), n = batch, spec.n
    if len(z) != n or len(t) != spec.k - n or len(y) != spec.m:
        raise LocalModelError("point does not match the spec dimensions")
    before = _orbit(batch)
    after = before.copy()
    logs = _run_layers(spec.phi.layers, n, after, count)
    if any((b == 0.0) != (a == 0.0) for i in range(n) for b, a in zip(before[i], after[i])):
        raise LocalModelError("face preservation violated at runtime")
    a1 = spec.f1._angles(before, count)
    a2 = spec.f2._angles(after, count)
    try:
        zs = [
            [v * math.exp(0.5 * lg) * cmath.exp(1j * (b - a)) for v, lg, a, b in zip(*cols)]
            for cols in zip(z, logs, a1, a2)
        ]
    except OverflowError as exc:
        raise LocalModelError("z multiplier overflows") from exc
    ts = [[v + (b - a) for v, a, b in zip(*cols)] for cols in zip(t, a1[n:], a2[n:])]
    return _model_batch(zs, ts, after[n:], count)


def section_point(spec: SmoothMapSpec, which: int, q: OrbitPoint) -> ModelPoint:
    """The twisted section s_i(q) = f_i(q) . s_0(q) for i in {1, 2}."""
    f = spec.f1 if which == 1 else spec.f2
    return ModelPoint(*map(_row, _section(spec, f, _orbit_columns(q.x, q.y, spec.n, spec.m), 1)))


def _section(spec, f, cols, count):
    """The section of section_point with f its torus map, f1 or f2, on the
    batch x + y of count orbit points: the square-root section of
    standard_section, then the torus action."""
    n = spec.n
    z = [[complex(math.sqrt(v), 0.0) for v in c] for c in cols[:n]]
    t = [[0.0] * count] * (spec.k - n)
    return _act(f._angles(cols, count), (z, t, cols[n:]), count)


# ---------------------------------------------------------------------------
# Distances.


def angle_distance(a: float, b: float) -> float:
    d = abs(_reduce_angle(a) - _reduce_angle(b))
    return min(d, TWO_PI - d)


def model_point_distance(p: ModelPoint, q: ModelPoint) -> float:
    return _distance(p._columns(), q._columns())


def orbit_point_distance(p: OrbitPoint, q: OrbitPoint) -> float:
    return _distance((_col(p.x), [], _col(p.y)), (_col(q.x), [], _col(q.y)))


def _distance(p, q):
    """The largest model_point_distance over the pairs of points of two
    batches, 0.0 if they have no entries; orbit points are measured as the
    batches (x, [], y).  The entries are finite, so the order of the
    comparisons does not change the largest."""
    if list(map(len, p)) != list(map(len, q)):
        raise LocalModelError("points live in different charts")
    (pz, pt, py), (qz, qt, qy) = p, q
    gaps = [map(abs, map(operator.sub, a, b)) for a, b in zip(pz + py, qz + qy)]
    gaps += [map(angle_distance, a, b) for a, b in zip(pt, qt)]
    return max(itertools.chain(*gaps), default=0.0)


# ---------------------------------------------------------------------------
# Corner quotient and even substitution.


def _richardson_ladder(samples: list[float]) -> list[float]:
    """Neville extrapolation diagonal for values at steps h0 / 2^j, assuming
    an error expansion in integer powers of h."""
    rows = [samples[0:1]]
    for j in range(1, len(samples)):
        prev = rows[-1]
        row = [samples[j]]
        for mth in range(1, j + 1):
            factor = 2.0 ** mth
            row.append(row[mth - 1] + (row[mth - 1] - prev[mth - 1]) / (factor - 1.0))
        rows.append(row)
    return [row[-1] for row in rows]


_BOUNDARY_STEP = 1e-2
_BOUNDARY_LEVELS = 8


def _boundary_derivative(
    f: Callable[[float, tuple[float, ...]], float], y: tuple[float, ...]
) -> float:
    """d f / d x at (0, y) for f with f(0, y) = 0, via the ratio f(h)/h.

    The ratio equals the central second difference of the even substitution
    F(u) = f(u^2, y) divided by two, and has a plain power-series error in
    h, so Richardson over a geometric ladder converges fast.
    """
    samples = []
    h = _BOUNDARY_STEP
    for _ in range(_BOUNDARY_LEVELS):
        if h == 0.0:
            raise StepUnderflowError("step ladder underflowed")
        samples.append(f(h, y) / h)
        h /= 2.0
    return _richardson_ladder(samples)[-1]


def corner_quotient(
    f: Callable[[float, tuple[float, ...]], float],
    x: float,
    y: Sequence[float] = (),
    exact_derivative: Optional[Callable[[tuple[float, ...]], float]] = None,
    check: bool = True,
) -> float:
    """The smooth extension g of f(x, y)/x across the boundary x = 0.

    Requires f(0, .) = 0, a positive x-derivative on the boundary, and
    positivity off it; violations found by sampling raise
    CornerHypothesisError.  The boundary value is the exact derivative when
    supplied, else an extrapolated one-sided ratio.
    """
    y = tuple(float(v) for v in y)
    if x < 0:
        raise LocalModelError("corner quotient needs x >= 0")
    if check:
        f0 = f(0.0, y)
        if abs(f0) > 1e-12:
            raise CornerHypothesisError(
                f"f(0, y) = {f0!r}, expected 0 on the boundary"
            )
        d0 = (
            exact_derivative(y)
            if exact_derivative is not None
            else _boundary_derivative(f, y)
        )
        if not d0 > 0.0:
            raise CornerHypothesisError(
                f"boundary derivative {d0!r} is not positive"
            )
        for probe in (1e-3, 0.1, 0.5, 1.0):
            val = f(probe, y)
            if not val > 0.0:
                raise CornerHypothesisError(
                    f"f({probe}, y) = {val!r} is not positive off the boundary"
                )
    if x > 0:
        return f(x, y) / x
    if exact_derivative is not None:
        return exact_derivative(y)
    return _boundary_derivative(f, y)


def even_substitution(
    f: Callable[[Sequence[float], Sequence[float]], float],
) -> Callable[[Sequence[float], Sequence[float]], float]:
    """F(x, y) = f(x^2, y): even in every x variable by construction."""

    def substituted(x: Sequence[float], y: Sequence[float]) -> float:
        return f(tuple(v * v for v in x), tuple(y))

    return substituted


# ---------------------------------------------------------------------------
# Smoothness probe.


@dataclass(frozen=True)
class DerivativeEstimate:
    order: int
    right: float
    left: Optional[float]
    spread: float


@dataclass(frozen=True)
class SmoothnessReport:
    at: float
    max_order: int
    estimates: tuple[DerivativeEstimate, ...]
    flags: tuple[str, ...]
    stable: bool
    note: str = (
        "finite-difference evidence for the stated orders; not a proof of "
        "smoothness"
    )

    def estimate(self, order: int) -> DerivativeEstimate:
        return self.estimates[order - 1]


_ORDER_BASE_STEP = {1: 1e-2, 2: 2e-2, 3: 5e-2, 4: 8e-2}
_LEVELS = 6
_MISMATCH_REL_TOL = 1e-3
_SPREAD_REL_TOL = 1e-3
_DIVERGENCE_FACTOR = 10.0


def _ladder(at, order, direction):
    """Each step h0/2^j of a one-sided ladder, with the arguments at which
    its divided difference evaluates the function."""
    h = _ORDER_BASE_STEP[order]
    for _ in range(_LEVELS):
        if at + direction * h == at:
            raise StepUnderflowError("step ladder underflowed")
        yield h, [at + direction * i * h for i in range(order + 1)]
        h /= 2.0


def _one_sided_quotients(
    func: Callable[[float], float], at: float, order: int, direction: int
) -> Optional[list[float]]:
    """Divided-difference quotients at steps h0/2^j, or None if the side is
    not evaluable (domain errors or non-finite values)."""
    binom = [math.comb(order, i) for i in range(order + 1)]
    out = []
    for h, args in _ladder(at, order, direction):
        total = 0.0
        try:
            for i, s in enumerate(args):
                val = func(s)
                if not math.isfinite(val):
                    return None
                total += (-1.0) ** (order - i) * binom[i] * val
        except (ValueError, ArithmeticError, LocalModelError):
            return None
        out.append(total / (direction * h) ** order)
    return out


def smoothness_probe(
    func: Callable[[float], float], at: float, max_order: int
) -> SmoothnessReport:
    """Estimate one-sided derivatives of func at a boundary point.

    For each order up to max_order (at most 4: beyond that double precision
    drowns the differences), the right-hand derivative is extrapolated over
    a step ladder; when the left side is evaluable it is compared against
    the right.  Divergence across the ladder or a left/right mismatch is
    flagged as evidence against smoothness.
    """
    if not 1 <= max_order <= 4:
        raise LocalModelError("probe order must be between 1 and 4")
    estimates = []
    flags: list[str] = []
    for order in range(1, max_order + 1):
        right_raw = _one_sided_quotients(func, at, order, +1)
        if right_raw is None:
            flags.append(f"order-{order}: right side not evaluable")
            estimates.append(DerivativeEstimate(order, math.nan, None, math.inf))
            continue
        diag = _richardson_ladder(right_raw)
        right = diag[-1]
        scale = max(1.0, abs(right))
        spread = abs(diag[-1] - diag[-2]) / scale if len(diag) > 1 else 0.0
        magnitudes = [abs(v) for v in right_raw]
        if (
            magnitudes[-1] > _DIVERGENCE_FACTOR * max(1.0, magnitudes[0])
            and all(b >= a for a, b in zip(magnitudes, magnitudes[1:]))
        ):
            flags.append(
                f"order-{order}: one-sided differences diverge "
                f"({magnitudes[0]:.3g} -> {magnitudes[-1]:.3g})"
            )
        elif spread > _SPREAD_REL_TOL:
            flags.append(
                f"order-{order}: extrapolation unstable (spread {spread:.3g})"
            )
        left_raw = _one_sided_quotients(func, at, order, -1)
        left: Optional[float] = None
        if left_raw is not None:
            left = _richardson_ladder(left_raw)[-1]
            mism_scale = max(1.0, abs(right), abs(left))
            if abs(right - left) > _MISMATCH_REL_TOL * mism_scale:
                flags.append(
                    f"order-{order}: one-sided derivative mismatch "
                    f"(right {right:.6g}, left {left:.6g})"
                )
        estimates.append(DerivativeEstimate(order, right, left, spread))
    return SmoothnessReport(
        at=at,
        max_order=max_order,
        estimates=tuple(estimates),
        flags=tuple(flags),
        stable=not flags,
    )


def _batch_probe(batch, at, max_order):
    """smoothness_probe(func, at, max_order) for the func whose values at a
    list of arguments batch returns.  batch runs once, on the distinct
    arguments of all the probe's ladders (a probe of order 2 asks for 17
    distinct points 60 times); if that raises, once per argument the probe
    asks for (memoised), so a side is not evaluable exactly when it is so
    one argument at a time.  Float keys suffice: the probe never asks for
    -0.0, as at + direction * 0 * h is +0.0 even at at = -0.0."""
    args = dict.fromkeys(
        s
        for order in range(1, max_order + 1)
        for direction in (1, -1)
        for _, ladder in _ladder(at, order, direction)
        for s in ladder
    )
    try:
        func = dict(zip(args, batch(list(args)))).__getitem__
    except (ValueError, ArithmeticError):
        func = functools.cache(lambda s: batch([s])[0])
    return smoothness_probe(func, at, max_order)


# ---------------------------------------------------------------------------
# Random generation for the verification battery.


_MAX_TERMS = 2
_MAX_DEGREE = 2


def random_polynomial(
    rng: random.Random, nvars: int, exclude: int = -1, scale: float = 0.3
) -> Polynomial:
    terms = {}
    for _ in range(rng.randrange(1, _MAX_TERMS + 1)):
        exps = [0] * nvars
        if nvars > 0:
            for _ in range(rng.randrange(0, _MAX_DEGREE + 1)):
                var = rng.randrange(nvars)
                if var == exclude:
                    continue
                exps[var] += 1
        coeff = rng.uniform(-scale, scale)
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + coeff
    return Polynomial(nvars, terms)


def random_spec(rng: random.Random, n: int, k: int, m: int) -> SmoothMapSpec:
    nv = n + m
    layers: list[Layer] = []
    for i in range(n):
        layers.append(XScaleLayer(i, random_polynomial(rng, nv, exclude=i)))
    for j in range(m):
        if rng.random() < 0.7:
            layers.append(YShearLayer(j, random_polynomial(rng, nv, exclude=n + j)))
        else:
            layers.append(YScaleLayer(j, rng.choice([0.5, 2.0, -1.0, 1.5])))
    rng.shuffle(layers)
    phi = FaceDiffeo(n, m, layers)
    f1 = TorusMap.from_polys(
        k, n, m, [random_polynomial(rng, nv, scale=0.5) for _ in range(k)]
    )
    f2 = TorusMap.from_polys(
        k, n, m, [random_polynomial(rng, nv, scale=0.5) for _ in range(k)]
    )
    return SmoothMapSpec(n, k, m, phi, f1, f2)


def random_model_point(
    rng: random.Random, n: int, k: int, m: int, boundary_prob: float = 0.3
) -> ModelPoint:
    return ModelPoint(*_draw_point(rng, n, k, m, boundary_prob))


def _draw_point(rng, n, k, m, boundary_prob=0.3):
    """The coordinates (z, t, y) of random_model_point."""
    z = [
        0j if rng.random() < boundary_prob
        # The modulus is drawn before the argument.
        else cmath.rect(rng.uniform(0.2, 1.2), rng.uniform(0.0, TWO_PI))
        for _ in range(n)
    ]
    t = [rng.uniform(0.0, TWO_PI) for _ in range(k - n)]
    y = [rng.uniform(-1.0, 1.0) for _ in range(m)]
    return z, t, y


def random_orbit_point(
    rng: random.Random, n: int, m: int, boundary_prob: float = 0.3
) -> OrbitPoint:
    return OrbitPoint(*_draw_orbit_point(rng, n, m, boundary_prob))


def _draw_orbit_point(rng, n, m, boundary_prob=0.3):
    """The coordinates (x, y) of random_orbit_point."""
    x = [
        0.0 if rng.random() < boundary_prob else rng.uniform(0.05, 1.5)
        for _ in range(n)
    ]
    y = [rng.uniform(-1.0, 1.0) for _ in range(m)]
    return x, y


# ---------------------------------------------------------------------------
# Verification battery (shared by tests and the command line).

# The checks draw and lift their sample points in batches of this many.
_BATCH = 64


def _batch_sizes(samples: int) -> list[int]:
    return [min(_BATCH, samples - start) for start in range(0, samples, _BATCH)]


# Each check of run_local_checks and its tolerance on the max discrepancy.
TOLERANCES = {
    "trivial_spec": 0.0,
    "equivariance": 1e-9,
    "covering": 1e-9,
    "boundary_zeros": 0.0,
    "section_compat": 1e-9,
    "composition": 1e-8,
    "inverse": 1e-7,
}


def section_compat_check(spec: SmoothMapSpec, samples: int, seed: int = 0) -> dict:
    """Max discrepancy of (lift o s1) against (s2 o Phi) over random orbit
    points, boundary points included."""
    rng = random.Random(seed)
    worst = 0.0
    for count in _batch_sizes(samples):
        x, y = _transposed([_draw_orbit_point(rng, spec.n, spec.m) for _ in range(count)])
        cols = _orbit_batch(x + y, spec.n, count)
        lhs = _lift(spec, _section(spec, spec.f1, cols, count), count)
        rhs = _section(spec, spec.f2, spec.phi._apply(cols, count), count)
        worst = max(worst, _distance(lhs, rhs))
    return {
        "max_discrepancy": worst,
        "samples": samples,
        "tolerance": TOLERANCES["section_compat"],
    }


def run_local_checks(
    n: int, k: int, m: int, samples: int, seed: int, spec_count: int = 5
) -> dict:
    """Evaluate the whole contract battery on random specs and points.

    Returns a report dict with one entry per check: the observed maximum
    discrepancy, the documented tolerance, and a pass flag.
    """
    if not (0 <= n <= k) or m < 0:
        raise LocalModelError("need 0 <= n <= k and m >= 0")
    if samples < 1 or spec_count < 1:
        raise LocalModelError("need positive sample and spec counts")
    rng = random.Random(seed)

    worst = dict.fromkeys(TOLERANCES, 0.0)
    probe_orders = []

    def note(name: str, distance: float) -> None:
        worst[name] = max(worst[name], distance)

    ident = SmoothMapSpec.identity(n, k, m)
    batches = _batch_sizes(samples)
    for count in batches:
        ps = _model_batch(*_transposed([_draw_point(rng, n, k, m) for _ in range(count)]), count)
        note("trivial_spec", _distance(_lift(ident, ps, count), ps))

    for _ in range(spec_count):
        spec = random_spec(rng, n, k, m)
        other = random_spec(rng, n, k, m)
        composed = other.compose_after(spec)
        inv = spec.inverse()
        for count in batches:
            rows = [  # a point, then its torus element
                (*_draw_point(rng, n, k, m), [rng.uniform(0.0, TWO_PI) for _ in range(k)])
                for _ in range(count)
            ]
            z, t, y, gs = _transposed(rows)
            ps = _model_batch(z, t, y, count)
            images = _lift(spec, ps, count)
            lhs = _lift(spec, _act(gs, ps, count), count)
            rhs = _act(gs, images, count)
            note("equivariance", _distance(lhs, rhs))

            covered = spec.phi._apply(_orbit_batch(_orbit(ps), n, count), count)
            image_orbits = _orbit_batch(_orbit(images), n, count)
            note("covering", _distance((image_orbits, [], []), (covered, [], [])))
            note("boundary_zeros", max((
                abs(x) for zs, xs in zip(ps[0], image_orbits) for z, x in zip(zs, xs) if z == 0
            ), default=0.0))

            two_step, one_step = _lift(other, images, count), _lift(composed, ps, count)
            note("composition", _distance(two_step, one_step))
            note("inverse", _distance(_lift(inv, images, count), ps))

        compat = section_compat_check(spec, samples, seed=rng.randrange(2 ** 30))
        note("section_compat", compat["max_discrepancy"])

        if n > 0:
            # Slice through z_0 = s on the real axis; components of the lift
            # should be smooth in s through order 2.
            base = random_model_point(rng, n, k, m, boundary_prob=0.0)

            def slice_components(args):
                count = len(args)
                z, t, y = ([[v] * count for v in part] for part in (base.z, base.t, base.y))
                z[0] = [complex(s, 0.0) for s in args]
                return [v.real for v in _lift(spec, (z, t, y), count)[0][0]]

            probe_orders.append(_batch_probe(slice_components, 0.0, 2).stable)

    report = {
        "dimensions": {"n": n, "k": k, "m": m},
        "samples": samples,
        "spec_count": spec_count,
        "seed": seed,
        "checks": {
            name: {
                "max_discrepancy": worst[name],
                "tolerance": tol,
                "passed": worst[name] <= tol,
            }
            for name, tol in TOLERANCES.items()
        },
        "lift_smoothness_probes_stable": all(probe_orders),
    }
    report["passed"] = all(c["passed"] for c in report["checks"].values()) and report[
        "lift_smoothness_probes_stable"
    ]
    return report
