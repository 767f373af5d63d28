"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pairs as P  # noqa: E402
import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

import lstorus.cli  # noqa: E402
import lstorus.fixtures  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, R._on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _snapshot(wl: W.Workload, root: str) -> list:
    """Commands with paths made relative, plus the bytes of every document."""
    out = []
    for cmds in (wl.commands, wl.warmup, wl.probes):
        for cmd in cmds:
            out.append([os.path.relpath(a, root) if a.startswith(root) else a for a in cmd.argv])
    for name in sorted(os.listdir(root)):
        out.append((name, Path(root, name).read_bytes()))
    return out


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, name):
    snaps = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        root = str(tmp_path / sub)
        os.mkdir(root)
        snaps.append(_snapshot(W.build(name, seed, root, lstorus), root))
    assert snaps[0] == snaps[1]
    assert snaps[0] != snaps[2]


def _cube3_copy():
    base = P.from_lstorus(lstorus.fixtures.cube_pair(3))
    rng = random.Random(3)
    copy, phi = P.renamed(base, rng)
    auto = lstorus.lattice.random_unimodular(3, rng)
    return base, P.relabeled(copy, auto), phi, [list(r) for r in auto]


def test_witness_checker_accepts_a_true_witness_and_rejects_corruption():
    base, copy, phi, auto = _cube3_copy()
    assert P.witness_ok(base, copy, phi, auto, "weak")

    facets = base.facets()
    swapped = dict(phi)
    swapped[facets[0]], swapped[facets[2]] = phi[facets[2]], phi[facets[0]]
    assert not P.witness_ok(base, copy, swapped, auto, "weak")

    vertex = next(f for f, c in base.codim.items() if c == 3)
    moved = dict(phi)
    moved[vertex], moved[facets[0]] = phi[facets[0]], phi[vertex]
    assert not P.witness_ok(base, copy, moved, auto, "weak")

    singular = [row[:] for row in auto]
    singular[1] = singular[0][:]
    assert not P.witness_ok(base, copy, phi, singular, "weak")

    sheared = [row[:] for row in auto]
    sheared[0] = [x + y for x, y in zip(auto[0], auto[1])]
    assert abs(P.det(sheared)) == 1
    assert not P.witness_ok(base, copy, phi, sheared, "weak")

    assert not P.witness_ok(base, copy, phi, None, "weak")
    assert not P.witness_ok(base, copy, phi, auto, "strong")


def test_every_negative_has_a_differing_invariant_and_positives_do_not():
    rng = random.Random(11)
    for name, base in W.iso_families(lstorus.fixtures).items():
        copy, _ = P.renamed(base, rng)
        weak_copy = P.relabeled(copy, lstorus.lattice.random_unimodular(base.k, rng))
        assert P.strong_invariant(copy) == P.strong_invariant(base), name
        assert P.weak_invariant(weak_copy) == P.weak_invariant(base), name
        for mode, invariant in (("strong", P.strong_invariant), ("weak", P.weak_invariant)):
            for neg in P.negatives(base, mode, rng, W.POOL):
                assert P.is_valid(neg), (name, mode)
                assert invariant(neg) != invariant(base), (name, mode)
        for bad in P.invalid_variants(base, rng, W.POOL):
            assert not P.is_valid(bad), name


def test_iso_pass_has_two_full_blocks(tmp_path):
    wl = W.build("iso-mixed", 1, str(tmp_path), lstorus)
    assert len(wl.commands) == 200
    kinds = [(c.kind, c.argv[-1]) for c in wl.commands]
    assert kinds.count(("iso", "weak")) == 2 * (30 + 8)
    assert sum(c.kind == "canon" for c in wl.commands) == 12


def test_a_command_past_its_deadline_counts_as_failed_and_the_run_goes_on(tmp_path, alarm):
    wl = W.build("iso-mixed", 1, str(tmp_path), lstorus)
    probe = wl.probes[0]
    slow = W.Command(probe.argv, probe.kind, probe.expect, probe.items, deadline=0.2)
    quick = wl.warmup[0]
    outcomes = R.run_pass(lstorus.cli, [slow, quick])
    assert outcomes[0].error == "deadline"
    assert outcomes[0].failure == "deadline"
    assert 0.1 < outcomes[0].elapsed < 2.0  # sampler time is excluded
    assert outcomes[1].failure is None
    time.sleep(0.3)  # no stray alarm is left armed


def test_wrong_answers_are_caught(tmp_path):
    wl = W.build("iso-mixed", 1, str(tmp_path), lstorus)
    iso = next(c for c in wl.commands if c.kind == "iso" and c.expect["equivalent"])
    flipped = W.Command(iso.argv, iso.kind, {**iso.expect, "equivalent": False}, iso.items)
    assert R.run_pass(lstorus.cli, [iso])[0].failure is None
    assert R.run_pass(lstorus.cli, [flipped])[0].failure is not None


def test_tracer_wraps_imported_names_and_restores_them(tmp_path):
    wl = W.build("iso-mixed", 1, str(tmp_path), lstorus)
    original = lstorus.classify.solve_unimodular
    tracer = T.Tracer()
    tracer.install()
    try:
        assert lstorus.classify.solve_unimodular is not original
        assert lstorus.census.is_direct_summand is lstorus.lattice.is_direct_summand
        R.run_pass(lstorus.cli, wl.warmup, tracer)
    finally:
        tracer.uninstall()
    assert lstorus.classify.solve_unimodular is original
    metrics = T.layer_metrics(tracer, 1)
    assert metrics["cli.main.calls"] == len(wl.warmup)
    assert metrics["classify.weak_equivalence.calls"] == 1
    assert metrics["classify.weak_equivalence.solves_per_call"] >= 1
    assert metrics["cli.main.self_s"] > 0
    assert metrics["localmodel.lift_diffeo.calls"] == 0
