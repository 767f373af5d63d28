import cmath
import collections
import itertools
import math
import random
import tracemalloc

import pytest

from lstorus import localmodel
from lstorus.localmodel import (
    TOLERANCES,
    TWO_PI,
    CornerHypothesisError,
    FaceDiffeo,
    LocalModelError,
    ModelPoint,
    OrbitPoint,
    Polynomial,
    SmoothMapSpec,
    StepUnderflowError,
    TorusMap,
    XScaleLayer,
    YScaleLayer,
    YShearLayer,
    _batch_probe,
    _lift,
    _orbit_batch,
    _section,
    angle_distance,
    corner_quotient,
    even_substitution,
    lift_diffeo,
    model_point_distance,
    orbit_map,
    orbit_point_distance,
    random_model_point,
    random_orbit_point,
    random_spec,
    run_local_checks,
    section_compat_check,
    section_point,
    smoothness_probe,
    standard_section,
    torus_act,
)

from oracles import (
    layers_with_logs_reference,
    lift_diffeo_reference,
    model_point_reference,
    torus_angles_reference,
)


def test_orbit_map_values():
    p = ModelPoint([complex(3, 4)], [], [0.5])
    q = orbit_map(p)
    assert q.x == (25.0,)
    assert q.y == (0.5,)
    zero = ModelPoint([0j, 0j], [0.1], [])
    assert orbit_map(zero).x == (0.0, 0.0)


def test_orbit_map_torus_invariant():
    rng = random.Random(1)
    for _ in range(100):
        p = random_model_point(rng, 2, 3, 1)
        g = [rng.uniform(0, 2 * math.pi) for _ in range(3)]
        moved = torus_act(g, p, 2)
        assert orbit_point_distance(orbit_map(moved), orbit_map(p)) < 1e-12


def test_standard_section_values():
    s = standard_section(OrbitPoint([4.0, 9.0], []), 1)
    assert s.z == (complex(2, 0), complex(3, 0))
    assert s.t == (0.0,)
    s0 = standard_section(OrbitPoint([0.0], [1.0]), 0)
    assert s0.z == (0j,)


def test_standard_section_roundtrip():
    rng = random.Random(2)
    for _ in range(1000):
        q = random_orbit_point(rng, 3, 2)
        back = orbit_map(standard_section(q, 1))
        assert orbit_point_distance(back, q) < 1e-12


def test_orbit_point_rejects_negative():
    with pytest.raises(LocalModelError):
        OrbitPoint([-0.1], [])


def test_orbit_point_distance_rejects_points_of_different_charts():
    for p, q in [
        (OrbitPoint((1.0,), ()), OrbitPoint((), (1.0,))),
        (OrbitPoint((1.0, 2.0), ()), OrbitPoint((1.0,), ())),
    ]:
        with pytest.raises(LocalModelError, match="different charts"):
            orbit_point_distance(p, q)
        with pytest.raises(LocalModelError, match="different charts"):
            orbit_point_distance(q, p)


def test_model_point_angle_reduction():
    p = ModelPoint([], [7.0, -1.0], [])
    assert all(0 <= a < 2 * math.pi for a in p.t)
    assert angle_distance(p.t[1], -1.0) < 1e-12


def test_corner_quotient_polynomial():
    f = lambda x, y: x * (2.0 + x)
    assert corner_quotient(f, 0.5) == pytest.approx(2.5, abs=1e-12)
    assert corner_quotient(f, 0.0) == pytest.approx(2.0, abs=1e-10)


def test_corner_quotient_sin():
    f = lambda x, y: math.sin(x)
    assert corner_quotient(f, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_corner_quotient_exact_derivative_path():
    f = lambda x, y: x * math.exp(x + y[0])
    got = corner_quotient(f, 0.0, (0.3,), exact_derivative=lambda y: math.exp(y[0]))
    assert got == math.exp(0.3)


def test_corner_quotient_matches_product_identity():
    f = lambda x, y: x * math.exp(x + y[0])
    rng = random.Random(3)
    for _ in range(200):
        x = rng.uniform(1e-6, 2.0)
        y = (rng.uniform(-1, 1),)
        g = corner_quotient(f, x, y, check=False)
        assert abs(g * x - f(x, y)) <= 1e-12 * max(1.0, abs(f(x, y)))


def test_corner_quotient_hypothesis_violations():
    with pytest.raises(CornerHypothesisError):
        corner_quotient(lambda x, y: x + 1.0, 0.5)  # f(0) != 0
    with pytest.raises(CornerHypothesisError):
        corner_quotient(lambda x, y: -x, 0.5)  # derivative negative
    with pytest.raises(CornerHypothesisError):
        corner_quotient(lambda x, y: x * (1.0 - x), 0.5)  # vanishes at x=1


def test_corner_quotient_rejects_negative_x():
    with pytest.raises(LocalModelError):
        corner_quotient(lambda x, y: x, -1.0)


def test_corner_quotient_derivative_probe_matches_symbolic():
    # g(x, y) = e^{x+y} exactly, so dg/dx(0, y) = e^y; the probe estimate
    # must agree with half the second x-derivative of f at the boundary.
    for y0 in (-0.5, 0.0, 0.7):
        f = lambda x, y: x * math.exp(x + y0)
        g = lambda s: corner_quotient(f, s, (), check=False)
        report = smoothness_probe(g, 0.0, 1)
        assert report.estimate(1).right == pytest.approx(math.exp(y0), abs=1e-4)


def test_even_substitution():
    f = lambda u, y: u[0]
    F = even_substitution(f)
    assert F([3.0], []) == 9.0
    root = even_substitution(lambda u, y: math.sqrt(u[0]))
    assert root([-2.0], []) == pytest.approx(2.0)
    rng = random.Random(4)
    g = even_substitution(lambda u, y: u[0] * 2 + u[1] + y[0])
    for _ in range(100):
        x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        y = [rng.uniform(-1, 1)]
        assert g(x, y) == pytest.approx(g([-x[0], x[1]], y))
        assert g(x, y) == pytest.approx(g([x[0], -x[1]], y))


def test_smoothness_probe_flags_abs():
    F = even_substitution(lambda u, y: math.sqrt(u[0]))
    report = smoothness_probe(lambda s: F([s], []), 0.0, 2)
    assert not report.stable
    assert any("mismatch" in flag for flag in report.flags)


def test_smoothness_probe_passes_smooth_corner_quotient():
    f = lambda x, y: x * math.exp(x + y[0])
    g = lambda s: corner_quotient(f, s, (0.25,), check=False)
    report = smoothness_probe(g, 0.0, 3)
    assert report.stable, report.flags
    assert report.estimate(1).right == pytest.approx(math.exp(0.25), abs=1e-4)


def test_smoothness_probe_flags_fractional_power():
    report = smoothness_probe(lambda s: abs(s) ** 2.5, 0.0, 3)
    assert any("order-3" in flag for flag in report.flags)


def test_smoothness_probe_order_bound_and_underflow():
    with pytest.raises(LocalModelError):
        smoothness_probe(math.sin, 0.0, 5)
    with pytest.raises(StepUnderflowError):
        smoothness_probe(lambda s: 0.0, 1e300, 1)


def test_lift_identity_is_exact():
    spec = SmoothMapSpec.identity(2, 3, 1)
    rng = random.Random(5)
    for _ in range(200):
        p = random_model_point(rng, 2, 3, 1)
        assert model_point_distance(lift_diffeo(spec, p), p) == 0.0


def test_lift_pure_scaling():
    # Phi(x, y) = (2 x, y) lifts to z -> sqrt(2) z.
    phi = FaceDiffeo(1, 1, [XScaleLayer(0, Polynomial(2, [((0, 0), math.log(2.0))]))])
    spec = SmoothMapSpec(
        1, 1, 1, phi, TorusMap.identity(1, 1, 1), TorusMap.identity(1, 1, 1)
    )
    p = ModelPoint([complex(1.0, 1.0)], [], [0.5])
    out = lift_diffeo(spec, p)
    assert abs(out.z[0] - math.sqrt(2) * complex(1, 1)) < 1e-12
    zero = lift_diffeo(spec, ModelPoint([0j], [], [0.5]))
    assert zero.z[0] == 0j


def test_lift_keeps_boundary_exact():
    rng = random.Random(6)
    for _ in range(50):
        spec = random_spec(rng, 2, 3, 1)
        p = random_model_point(rng, 2, 3, 1, boundary_prob=1.0)
        out = lift_diffeo(spec, p)
        assert out.z == (0j, 0j)


def test_lift_equivariance_and_covering():
    rng = random.Random(7)
    for _ in range(20):
        n, k, m = 2, 3, 1
        spec = random_spec(rng, n, k, m)
        for _ in range(50):
            p = random_model_point(rng, n, k, m)
            g = [rng.uniform(0, 2 * math.pi) for _ in range(k)]
            lhs = lift_diffeo(spec, torus_act(g, p, n))
            rhs = torus_act(g, lift_diffeo(spec, p), n)
            assert model_point_distance(lhs, rhs) < 1e-9
            cov = orbit_point_distance(
                orbit_map(lift_diffeo(spec, p)), spec.phi.apply(orbit_map(p))
            )
            assert cov < 1e-9


def test_spec_composition_law():
    rng = random.Random(8)
    for _ in range(10):
        s1 = random_spec(rng, 2, 2, 1)
        s2 = random_spec(rng, 2, 2, 1)
        comp = s2.compose_after(s1)
        for _ in range(40):
            p = random_model_point(rng, 2, 2, 1)
            two = lift_diffeo(s2, lift_diffeo(s1, p))
            one = lift_diffeo(comp, p)
            assert model_point_distance(two, one) < 1e-8


def test_spec_inverse_roundtrip():
    rng = random.Random(9)
    for _ in range(10):
        spec = random_spec(rng, 2, 3, 2)
        inv = spec.inverse()
        for _ in range(40):
            p = random_model_point(rng, 2, 3, 2)
            back = lift_diffeo(inv, lift_diffeo(spec, p))
            assert model_point_distance(back, p) < 1e-7


def test_face_diffeo_inverse_exact_on_orbit():
    rng = random.Random(10)
    for _ in range(50):
        spec = random_spec(rng, 3, 3, 2)
        phi = spec.phi
        inv = phi.inverse()
        q = random_orbit_point(rng, 3, 2)
        back = inv.apply(phi.apply(q))
        assert orbit_point_distance(back, q) < 1e-10


def test_section_compat_trivial_and_random():
    trivial = SmoothMapSpec.identity(2, 3, 1)
    assert section_compat_check(trivial, 100, seed=0)["max_discrepancy"] == 0.0
    rng = random.Random(11)
    for _ in range(10):
        spec = random_spec(rng, 2, 3, 1)
        rep = section_compat_check(spec, 100, seed=rng.randrange(10 ** 6))
        assert rep["max_discrepancy"] < 1e-9


def test_layer_validation():
    with pytest.raises(LocalModelError):
        # q depends on its own coordinate.
        FaceDiffeo(1, 0, [XScaleLayer(0, Polynomial(1, {(1,): 1.0}))])
    with pytest.raises(LocalModelError):
        FaceDiffeo(1, 1, [YShearLayer(0, Polynomial(2, {(0, 1): 1.0}))])
    with pytest.raises(LocalModelError):
        FaceDiffeo(1, 1, [YScaleLayer(0, 0.0)])
    with pytest.raises(LocalModelError):
        FaceDiffeo(1, 0, [XScaleLayer(1, Polynomial.zero(1))])

    class Scale(XScaleLayer):
        pass

    # Evaluation dispatches on the exact layer type.
    with pytest.raises(LocalModelError, match="unknown layer"):
        FaceDiffeo(1, 0, [Scale(0, Polynomial.zero(1))])


def test_torus_map_validates_prefixes_on_construction():
    own = XScaleLayer(0, Polynomial(2, {(1, 0): 1.0}))  # q involves x_0 itself
    with pytest.raises(LocalModelError):
        TorusMap(1, 1, 1, (((own,), (Polynomial.zero(2),), 1),))


def test_torus_map_angles_match_term_by_term_evaluation():
    rng = random.Random(13)
    for _ in range(10):
        specs = [random_spec(rng, 2, 3, 1) for _ in range(3)]
        composed = specs[2].compose_after(specs[1].compose_after(specs[0]))
        f = composed.f1
        prefixes = [prefix for prefix, _, _ in f.terms]
        assert len(set(prefixes)) < len(prefixes)  # shared prefixes occur
        for _ in range(20):
            q = random_orbit_point(rng, 2, 1)
            assert f.angles(q.x, q.y) == torus_angles_reference(f, q.x, q.y)


def test_torus_map_validates_terms_on_construction():
    p = Polynomial.zero(2)
    with pytest.raises(LocalModelError, match="one angle polynomial per torus factor"):
        TorusMap(1, 1, 1, (((), (p, p), 1),))  # too many
    with pytest.raises(LocalModelError, match="one angle polynomial per torus factor"):
        TorusMap(2, 1, 1, (((), (p,), 1),))  # too few
    with pytest.raises(LocalModelError, match="orbit space"):
        TorusMap(1, 1, 1, (((), (Polynomial.zero(3),), 1),))  # wrong nvars
    with pytest.raises(LocalModelError, match="orbit space"):
        TorusMap(2, 1, 1, (((), (p, Polynomial.zero(1)), 1),))
    with pytest.raises(LocalModelError, match="one angle polynomial per torus factor"):
        TorusMap.from_polys(2, 1, 1, [p])
    good = TorusMap.from_polys(1, 1, 1, [p])
    with pytest.raises(LocalModelError, match="one angle polynomial per torus factor"):
        good.plus(TorusMap(1, 1, 1, (((), (), 1),)))
    with pytest.raises(LocalModelError, match="chart dimensions"):
        good.angles((0.5,), ())


# (n, k, m): general shapes, shapes without z (n = 0) and without y (m = 0);
# they include the localcheck shapes of scripts/report_digest.py.
LIFT_SHAPES = [
    (1, 2, 1), (2, 3, 1), (3, 4, 2), (0, 2, 1), (0, 1, 2), (3, 3, 0), (1, 1, 0), (2, 2, 2),
]


def _assert_same_point(got, want):
    assert got == want
    assert repr(got) == repr(want)  # also tells -0.0 from 0.0


def _batch(points):
    """The batch (z, t, y) of columns of points."""
    return tuple([list(c) for c in zip(*[getattr(p, part) for p in points])] for part in "zty")


def _coordinates(batch, count):
    """(z, t, y) of each of the count points of a batch, as tuples."""
    return [tuple(tuple(c[i] for c in part) for part in batch) for i in range(count)]


@pytest.mark.parametrize("shape", LIFT_SHAPES, ids=lambda s: "n%dk%dm%d" % s)
def test_lift_matches_the_term_by_term_reference(shape):
    n, k, m = shape
    rng = random.Random(100 * n + 10 * k + m)
    for _ in range(6):
        specs = [random_spec(rng, n, k, m) for _ in range(3)]
        composed = specs[2].compose_after(specs[1].compose_after(specs[0]))
        cases = specs + [composed, specs[0].inverse(), composed.inverse()]
        for spec in cases:
            for boundary_prob in (0.3, 1.0):
                points = [random_model_point(rng, n, k, m, boundary_prob) for _ in range(8)]
                want = [lift_diffeo_reference(spec, p) for p in points]
                # One point at a time, then all in one batch.
                for p, w in zip(points, want):
                    _assert_same_point(lift_diffeo(spec, p), w)
                got = _coordinates(_lift(spec, _batch(points), len(points)), len(points))
                assert list(map(repr, got)) == [repr((w.z, w.t, w.y)) for w in want]


@pytest.mark.parametrize("shape", LIFT_SHAPES, ids=lambda s: "n%dk%dm%d" % s)
def test_batched_face_maps_and_sections_match_per_point(shape):
    n, k, m = shape
    rng = random.Random(2000 + 100 * n + 10 * k + m)
    qs = [
        random_orbit_point(rng, n, m, boundary_prob)
        for boundary_prob in (0.3, 1.0)
        for _ in range(40)
    ]
    count = len(qs)
    cols = [list(c) for c in zip(*[q.x + q.y for q in qs])]
    kept = repr(cols)
    first, other = random_spec(rng, n, k, m), random_spec(rng, n, k, m)
    for spec in (first, other.compose_after(first), first.inverse()):
        want = [layers_with_logs_reference(spec.phi.layers, n, q.x, q.y) for q in qs]
        got = [spec.phi.apply_with_logs(q.x, q.y) for q in qs]
        assert list(map(repr, got)) == list(map(repr, want))
        images = _coordinates((spec.phi._apply(cols, count),), count)
        assert list(map(repr, images)) == [repr(((*x, *y),)) for x, y, _ in want]
        for which, f in ((1, spec.f1), (2, spec.f2)):
            got = _coordinates(_section(spec, f, cols, count), count)
            want = [section_point(spec, which, q) for q in qs]
            assert list(map(repr, got)) == [repr((w.z, w.t, w.y)) for w in want]
        assert repr(cols) == kept  # the batch functions replace columns


def _fix_specs(monkeypatch):
    """Make random_spec return two fixed (2, 3, 1) specs in turn: its
    shapes would depend on how many points the rng drew before it."""
    specs = itertools.cycle([random_spec(random.Random(i), 2, 3, 1) for i in range(2)])
    monkeypatch.setattr(localmodel, "random_spec", lambda rng, n, k, m: next(specs))


def _plan_walks(monkeypatch, samples):
    """_eval_plan calls of one run_local_checks(2, 3, 1) at seed 0, with
    the specs fixed."""
    _fix_specs(monkeypatch)
    calls = []
    walk = localmodel._eval_plan
    monkeypatch.setattr(localmodel, "_eval_plan", lambda *args: calls.append(1) or walk(*args))
    run_local_checks(2, 3, 1, samples=samples, seed=0)
    monkeypatch.undo()
    return len(calls)


def test_each_batch_of_samples_walks_each_plan_once(monkeypatch):
    assert localmodel._BATCH == 64
    walks = {s: _plan_walks(monkeypatch, s) for s in (10, 50, 64, 65)}
    assert walks[10] == walks[50] == walks[64] < walks[65]


def _point_constructions(monkeypatch, samples):
    """ModelPoint and OrbitPoint constructions in one run_local_checks(2,
    3, 1) at seed 0, with the specs fixed."""
    _fix_specs(monkeypatch)
    built = collections.Counter()
    for cls in (ModelPoint, OrbitPoint):
        def init(self, *args, _cls=cls, _init=cls.__init__):
            built[_cls.__name__] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    run_local_checks(2, 3, 1, samples=samples, seed=0)
    monkeypatch.undo()
    return built


def test_the_checks_build_no_point_per_sample(monkeypatch):
    built = {s: _point_constructions(monkeypatch, s) for s in (10, 64, 65)}
    # Only the base point of each of the five smoothness probes.
    assert built[10] == built[64] == built[65] == {"ModelPoint": 5}


def test_memory_of_the_checks_is_bounded_by_the_batch():
    peaks = []
    for samples in (64, 8 * 64):
        tracemalloc.start()
        try:
            run_local_checks(1, 1, 0, samples=samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_the_probe_memo_keeps_the_report_and_lifts_17_points():
    rng = random.Random(5)
    n, k, m = 2, 3, 1
    spec = random_spec(rng, n, k, m)
    base = random_model_point(rng, n, k, m, boundary_prob=0.0)
    lifted, batches = [], []

    def slice_component(s):
        lifted.append(s)
        z = (complex(s, 0.0),) + base.z[1:]
        return lift_diffeo(spec, ModelPoint(z, base.t, base.y)).z[0].real

    def slice_components(args):  # as run_local_checks lifts the slice
        batches.append(list(args))
        count = len(args)
        z, t, y = ([[v] * count for v in part] for part in (base.z, base.t, base.y))
        z[0] = [complex(s, 0.0) for s in args]
        return [v.real for v in _lift(spec, (z, t, y), count)[0][0]]

    plain = smoothness_probe(slice_component, 0.0, 2)
    assert len(lifted) == 60 and len(set(lifted)) == 17
    batched = _batch_probe(slice_components, 0.0, 2)
    assert repr(batched) == repr(plain)
    assert len(batches) == 1 and sorted(batches[0]) == sorted(set(lifted))

    # When the batch raises, each argument is lifted alone, once.
    batches.clear()

    def one_at_a_time(args):
        if len(args) > 1:
            raise LocalModelError("too many")
        return slice_components(args)

    assert repr(_batch_probe(one_at_a_time, 0.0, 2)) == repr(plain)
    assert len(batches) == 17 and sorted(a for a, in batches) == sorted(set(lifted))

    # A side whose arguments fail is not evaluable, as one point at a time.
    def right_only(s):
        if s < 0:
            raise ValueError("left of the slice")
        return slice_component(s)

    def right_only_batch(args):
        return [right_only(s) for s in args]

    report = _batch_probe(right_only_batch, 0.0, 2)
    assert repr(report) == repr(smoothness_probe(right_only, 0.0, 2))
    assert all(e.left is None for e in report.estimates)


def test_the_probe_never_asks_for_negative_zero():
    # _batch_probe keys its values by float, which merges -0.0 with 0.0.
    for at in (0.0, -0.0, 1.0):
        asked = []
        smoothness_probe(lambda s: asked.append(s) or s, at, 4)
        assert all(math.copysign(1.0, s) == 1.0 for s in asked if s == 0.0)


def test_orbit_maps_sections_and_actions_match_the_reference():
    rng = random.Random(14)
    n, k, m = 2, 3, 1
    for _ in range(50):
        spec = random_spec(rng, n, k, m)
        p = random_model_point(rng, n, k, m)
        g = [rng.uniform(-10.0, 10.0) for _ in range(k - 1)] + [3]  # an int angle too
        want = model_point_reference(
            [v * cmath.exp(1j * a) for v, a in zip(p.z, g[:n])],
            [tv + a for tv, a in zip(p.t, g[n:])],
            p.y,
        )
        _assert_same_point(torus_act(g, p, n), want)
        q = orbit_map(p)
        assert q.x == tuple(v.real * v.real + v.imag * v.imag for v in p.z)
        assert q.y == p.y
        want = model_point_reference([complex(math.sqrt(v), 0.0) for v in q.x], [0.0], q.y)
        _assert_same_point(standard_section(q, 1), want)
        want = layers_with_logs_reference(spec.phi.layers, n, q.x, q.y)
        assert spec.phi.apply_with_logs(q.x, q.y) == want
        assert spec.phi.apply(q) == OrbitPoint(want[0], want[1])


def test_internal_results_keep_the_constructor_checks():
    big = Polynomial(2, {(0, 2): 1e300})  # overflows to inf at y = 1e10
    f2 = TorusMap.from_polys(1, 1, 1, [big])
    spec = SmoothMapSpec(1, 1, 1, FaceDiffeo.identity(1, 1), TorusMap.identity(1, 1, 1), f2)
    p = ModelPoint([0.5j], [], [1e10])
    for lift in (lift_diffeo, lift_diffeo_reference):
        with pytest.raises(LocalModelError, match="non-finite z entry"):
            lift(spec, p)
    shear = FaceDiffeo(0, 2, [YShearLayer(0, Polynomial(2, {(0, 2): 1e300}))])
    spec = SmoothMapSpec(0, 1, 2, shear, TorusMap.identity(1, 0, 2), TorusMap.identity(1, 0, 2))
    p = ModelPoint([], [0.1], [0.0, 1e10])
    for lift in (lift_diffeo, lift_diffeo_reference):
        with pytest.raises(LocalModelError, match="non-finite coordinate"):
            lift(spec, p)
    with pytest.raises(LocalModelError, match="non-finite coordinate"):
        shear.apply(OrbitPoint([], [0.0, 1e10]))
    with pytest.raises(LocalModelError, match="non-finite coordinate"):
        torus_act([math.nan], ModelPoint([], [0.1], []), 0)
    with pytest.raises(LocalModelError, match="non-finite z entry"):
        torus_act([math.inf], ModelPoint([1j], [], []), 1)
    with pytest.raises(LocalModelError, match="non-finite coordinate"):
        orbit_map(ModelPoint([complex(1e200, 0.0)], [], []))


def test_a_failing_batch_raises_the_first_failing_points_error():
    # y * 1e308 * 1e308 overflows unless y is 0 or tiny; the angle 1e300 * x
    # of f2 overflows once x = |z|^2 > 1.8e8, which makes z nan.
    scale = FaceDiffeo(1, 1, [YScaleLayer(0, 1e308), YScaleLayer(0, 1e308)])
    f2 = TorusMap.from_polys(1, 1, 1, [Polynomial(2, {(1, 0): 1e300})])
    spec = SmoothMapSpec(1, 1, 1, scale, TorusMap.identity(1, 1, 1), f2)
    fine = ModelPoint([0.5], [], [0.0])
    bad_y = ModelPoint([0.5], [], [0.5])
    bad_z = ModelPoint([2e4], [], [1e-320])
    messages = set()
    for points in ([fine, bad_y, bad_z], [fine, bad_z, bad_y], [bad_z, bad_y], [fine, bad_y]):
        first = next(p for p in points if p is not fine)
        with pytest.raises(LocalModelError) as want:
            lift_diffeo_reference(spec, first)
        messages.add(str(want.value))
        for lift in (
            lambda: lift_diffeo(spec, first),
            lambda: _lift(spec, _batch(points), len(points)),
        ):
            with pytest.raises(LocalModelError) as got:
                lift()
            assert str(got.value) == str(want.value)
    assert messages == {"non-finite coordinate", "non-finite z entry (nan+nanj)"}

    # Orbit points: a negative x at the second point, a nan at the third.
    cols = [[0.5, -1.0, math.nan], [0.0, 0.0, 0.0]]
    for batch, message in ((cols, "negative x"), ([c[::-1] for c in cols], "non-finite")):
        with pytest.raises(LocalModelError, match=message):
            _orbit_batch(batch, 1, 3)


def test_overflowing_multipliers_raise_local_model_error():
    # exp(1000 y) overflows at y = 1 in the x-scale layer.  Three layers of
    # exp(700 y) keep x = |z|^2 = 1e-600, which is 0.0, at 0.0, but the
    # lift's sqrt of the multiplier, exp(1050), overflows.
    ident = TorusMap.identity(1, 1, 1)
    big = FaceDiffeo(1, 1, [XScaleLayer(0, Polynomial(2, {(0, 1): 1000.0}))])
    with pytest.raises(LocalModelError, match="x-scale multiplier overflows"):
        big.apply(OrbitPoint([1.0], [1.0]))
    with pytest.raises(LocalModelError, match="x-scale multiplier overflows"):
        lift_diffeo(SmoothMapSpec(1, 1, 1, big, ident, ident), ModelPoint([1.0], [], [1.0]))
    three = FaceDiffeo(1, 1, [XScaleLayer(0, Polynomial(2, {(0, 1): 700.0}))] * 3)
    with pytest.raises(LocalModelError, match="z multiplier overflows"):
        lift_diffeo(SmoothMapSpec(1, 1, 1, three, ident, ident), ModelPoint([1e-300], [], [1.0]))


def test_tiny_negative_angles_reduce_into_the_half_open_range():
    for a in (-1e-20, -1e-300, -5e-324):
        p = ModelPoint([], [a], [])
        assert repr(p.t) == "(0.0,)"
        _assert_same_point(ModelPoint(p.z, p.t, p.y), p)
        for b in (1e-9, 1.0, TWO_PI - 1e-9):
            assert angle_distance(a, b) == angle_distance(0.0, b)


def test_infinite_angles_are_non_finite_coordinates():
    for angle in (math.inf, -math.inf):
        with pytest.raises(LocalModelError, match="non-finite coordinate"):
            ModelPoint([], [angle], [])
        with pytest.raises(LocalModelError, match="non-finite coordinate"):
            torus_act([angle], ModelPoint([], [0.1], []), 0)


def test_spec_validation():
    with pytest.raises(LocalModelError):
        SmoothMapSpec(
            2,
            1,
            0,
            FaceDiffeo.identity(2, 0),
            TorusMap.identity(1, 2, 0),
            TorusMap.identity(1, 2, 0),
        )


def test_run_local_checks_passes():
    report = run_local_checks(2, 3, 1, samples=60, seed=12345, spec_count=3)
    assert report["passed"], report
    assert report["checks"]["trivial_spec"]["max_discrepancy"] == 0.0
    assert report["checks"]["boundary_zeros"]["max_discrepancy"] == 0.0


def test_run_local_checks_reports_every_check_at_its_tolerance():
    report = run_local_checks(1, 2, 1, samples=5, seed=3, spec_count=1)
    assert {name: c["tolerance"] for name, c in report["checks"].items()} == TOLERANCES
    spec = random_spec(random.Random(3), 1, 2, 1)
    assert section_compat_check(spec, 5)["tolerance"] == TOLERANCES["section_compat"]


def test_run_local_checks_deterministic():
    a = run_local_checks(1, 2, 1, samples=30, seed=7, spec_count=2)
    b = run_local_checks(1, 2, 1, samples=30, seed=7, spec_count=2)
    assert a == b


def test_run_local_checks_validates_dims():
    with pytest.raises(LocalModelError):
        run_local_checks(3, 2, 0, samples=10, seed=0)
