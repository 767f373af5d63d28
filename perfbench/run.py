#!/usr/bin/env python3
"""Seeded benchmark of the lstorus command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload iso-mixed --seed 1 --seconds 10 --trace 0

One process, one closed-loop client: each command goes to
``lstorus.cli.main(argv)`` in-process, with stdout captured, only after the
previous one returned.  Inputs are generated from the seed into a work
directory at set-up.  A pass is the workload's fixed list of commands; the
timed phase repeats it until --seconds of command time have run.  Each
command's time is scaled to a reference interpreter speed (see SpeedMeter)
and the metrics use its median over the repetitions.  Every report is
checked against answers this benchmark computes itself.  The last stdout
line is the result object; the line before it records the machine and run
context.

--trace 1 runs each repetition twice in a row, untraced and then with every
listed public function of each module wrapped, and reports per-layer
figures per pass plus the tracing overhead.  Spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time
from typing import Optional

import pairs as P
import tracer as T
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 3
CENSUS_SAMPLE = 20  # representatives per census report rechecked for validity


class Deadline(BaseException):
    """Raised by SIGALRM inside a command that ran past its deadline.

    A BaseException, so no handler in the package under test swallows it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


# The speed of a shared host drifts by tens of percent within seconds, so
# each command's time is scaled by the interpreter speed measured around and
# during it: a fixed reference loop is timed before and after the command,
# and by a sampler thread every SAMPLE_S while it runs.  Scaled times are
# seconds at a speed where the reference loop takes REFERENCE_S.
REFERENCE_S = 1e-3
SAMPLE_S = 0.05
RECENT = 8  # samples a command needs before its own suffice
_TABLE = {i: i * 7 % 13 for i in range(64)}
_BUFFER = bytearray(range(256)) * 8192  # 2 MiB, larger than a core's cache


def reference_loop() -> int:
    """Fixed pure-Python work: integer arithmetic, dict lookups, scattered
    reads of a 2 MiB buffer and short-lived strings.

    It allocates no object the cyclic garbage collector tracks, so a large
    heap in the program under test does not slow it down.
    """
    table, buf = _TABLE, _BUFFER
    size = len(buf)
    acc, j = 0, 0
    for i in range(2500):
        acc += table[i & 63] * (i % 11)
        acc ^= i << 3
        j = (j + 7919) % size
        acc += buf[j] + len(str(i) + "x")
    return acc


def _cpu_sample() -> float:
    """CPU time of one reference loop: time spent waiting for the GIL or for
    a processor does not count as a slow machine."""
    start = thread_time()
    reference_loop()
    return thread_time() - start


class SpeedMeter:
    """Samples the reference loop before, during and after each command.

    A command with fewer than RECENT samples of its own also uses the latest
    samples of the commands before it: the host's speed changes over seconds,
    and two samples alone are noisy.
    """

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=RECENT)

    def __enter__(self) -> "SpeedMeter":
        self.samples = [_cpu_sample()]
        self.inside = 0.0  # CPU time the sampler took from the command
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_S):
            took = _cpu_sample()
            self.samples.append(took)
            self.inside += took

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(_cpu_sample())

    def factor(self) -> float:
        pool = self.samples
        if len(pool) < RECENT:
            pool = list(self.recent) + pool
        self.recent.extend(self.samples)
        return REFERENCE_S / statistics.median(pool)


@dataclass
class Outcome:
    cmd: W.Command
    rc: Optional[int]
    text: str
    elapsed: float  # wall time of the command, samples taken inside excluded
    scaled: float  # elapsed at the reference speed
    error: Optional[str] = None
    failure: Optional[str] = None  # None when the command did what was expected
    canon: Optional[str] = None


def execute(cli, cmd: W.Command, meter: Optional[SpeedMeter] = None) -> Outcome:
    """Run one command through cli.main with stdout captured."""
    meter = meter or SpeedMeter()
    buf = io.StringIO()
    rc, error = None, None
    with meter:
        start = perf_counter()
        try:
            try:
                if cmd.deadline:
                    signal.setitimer(signal.ITIMER_REAL, cmd.deadline)
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(list(cmd.argv))
            finally:
                if cmd.deadline:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            error = "deadline"
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the client keeps going; the command counts as failed
            error = f"exception {type(exc).__name__}: {exc}"
        end = perf_counter()
    elapsed = end - start - meter.inside
    return Outcome(cmd, rc, buf.getvalue(), elapsed, elapsed * meter.factor(), error)


# ---------------------------------------------------------------------------
# Checks.  None means correct; otherwise a one-line reason.


def _check_validate(cmd, rc, report) -> Optional[str]:
    valid = cmd.expect["valid"]
    if rc != (0 if valid else 1) or report.get("valid") is not valid:
        return f"validate: expected valid={valid}, got exit {rc}"
    return None


def _check_iso(cmd, rc, report) -> Optional[str]:
    e = cmd.expect
    verdict = report.get("verdict") or {}
    if rc != (0 if e["equivalent"] else 1) or verdict.get("equivalent") is not e["equivalent"]:
        return f"iso {e['mode']}: expected equivalent={e['equivalent']}, got exit {rc}"
    if e["equivalent"]:
        witness = verdict.get("witness") or {}
        if not P.witness_ok(e["a"], e["b"], witness.get("phi"), witness.get("auto"), e["mode"]):
            return f"iso {e['mode']}: witness does not check out"
    return None


def _check_census(cmd, rc, report) -> Optional[str]:
    e = cmd.expect
    if rc != 0:
        return f"census: exit {rc}"
    classes = report.get("classes", [])
    if report.get("total_valid") != e["total"]:
        return f"census: total_valid {report.get('total_valid')} != {e['total']}"
    if report.get("class_count") != len(classes) or Counter(c["size"] for c in classes) != e["sizes"]:
        return "census: class count or class-size multiset differs from the recorded answer"
    reps = {tuple(sorted((f, tuple(v)) for f, v in c["labels"].items())) for c in classes}
    if len(reps) != len(classes):
        return "census: repeated class representative"
    poset = e["poset"]
    facets = poset.facets()
    for c in random.Random(e["total"]).sample(classes, min(CENSUS_SAMPLE, len(classes))):
        labels = {f: tuple(v) for f, v in c["labels"].items()}
        if (sorted(labels) != facets
                or any(abs(x) > e["bound"] or P.canonical_sign(v) != v
                       for v in labels.values() for x in v)
                or not P.is_valid(poset.with_labels(labels))):
            return "census: a class representative is not a valid labeling in the box"
    return None


def _check_localcheck(cmd, rc, report) -> Optional[str]:
    n, k, m = cmd.expect["shape"]
    if (rc != 0 or report.get("passed") is not True
            or report.get("samples") != W.LOCALCHECK_SAMPLES
            or report.get("spec_count") != W.LOCALCHECK_SPEC_COUNT
            or report.get("seed") != cmd.expect["seed"]
            or report.get("dimensions") != {"n": n, "k": k, "m": m}):
        return f"localcheck {(n, k, m)} seed {cmd.expect['seed']}: not passed (exit {rc})"
    return None


_CHECKS = {
    "validate": _check_validate,
    "iso": _check_iso,
    "census": _check_census,
    "localcheck": _check_localcheck,
}


def check(outcome: Outcome) -> Optional[str]:
    """Judge one command; canon strings are judged per group afterwards."""
    if outcome.error is not None:
        return outcome.error
    try:
        report = json.loads(outcome.text)
    except ValueError:
        return f"{outcome.cmd.kind}: stdout is not one JSON report"
    if outcome.cmd.kind == "canon":
        if outcome.rc != 0 or not isinstance(report.get("canonical_form"), str):
            return f"canon: exit {outcome.rc}"
        outcome.canon = report["canonical_form"]
        return None
    return _CHECKS[outcome.cmd.kind](outcome.cmd, outcome.rc, report)


def check_canon_groups(outcomes: list[Outcome]) -> None:
    """A positive copy must get its base's canonical string, a negative not."""
    base = {o.cmd.expect["group"]: o.canon for o in outcomes
            if o.cmd.kind == "canon" and o.cmd.expect["role"] == "base"}
    for o in outcomes:
        if o.cmd.kind != "canon" or o.failure or o.cmd.expect["role"] == "base":
            continue
        reference = base.get(o.cmd.expect["group"])
        if reference is None:
            o.failure = "canon: the group's base command failed"
        elif (o.canon == reference) != (o.cmd.expect["role"] == "same"):
            o.failure = f"canon: {o.cmd.expect['role']} copy got the wrong canonical string"


def run_pass(cli, cmds: list[W.Command], tracer: Optional[T.Tracer] = None,
             meter: Optional[SpeedMeter] = None) -> list[Outcome]:
    """Run one pass, then judge it (outside the timed commands)."""
    meter = meter or SpeedMeter()
    outcomes = []
    for cmd in cmds:
        if tracer is not None:
            tracer.command_id += 1
        outcomes.append(execute(cli, cmd, meter))
    for o in outcomes:
        o.failure = check(o)
        o.text = ""
    check_canon_groups(outcomes)
    return outcomes


def run_timed(cli, wl: W.Workload, seconds: float,
              tracer: Optional[T.Tracer] = None) -> tuple[list, list]:
    """Repeat the pass until `seconds` of command time have run.

    With a tracer, each repetition runs twice in a row, untraced and then
    traced, so drift in machine speed hits both sides of the overhead ratio
    alike.  Returns (untraced repetitions, traced repetitions).
    """
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    meter = SpeedMeter()
    timed = 0.0
    while timed < seconds:
        outcomes = run_pass(cli, wl.commands, meter=meter)
        plain.append(outcomes)
        timed += sum(o.elapsed for o in outcomes)
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, wl.commands, tracer, meter))
            finally:
                tracer.uninstall()
    return plain, traced


def command_times(reps: list[list[Outcome]]) -> list[float]:
    """Each command's scaled time, median over the repetitions."""
    return [statistics.median(times) for times in zip(*([o.scaled for o in rep] for rep in reps))]


# ---------------------------------------------------------------------------
# Set-up.


def import_lstorus():
    """Fresh import of the package (what a new process pays)."""
    for name in [n for n in sys.modules if n == "lstorus" or n.startswith("lstorus.")]:
        del sys.modules[name]
    importlib.import_module("lstorus.cli")
    importlib.import_module("lstorus.fixtures")
    return sys.modules["lstorus"]


def setup(name: str, seed: int) -> tuple:
    """Import, generate inputs and warm up, SETUP_ROUNDS times; keep the last."""
    WORK.mkdir(exist_ok=True)
    times, workdir = [], None
    for _ in range(SETUP_ROUNDS):
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter()
        lstorus = import_lstorus()
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
        wl = W.build(name, seed, workdir, lstorus)
        os.environ["LSTORUS_THREADS"] = str(wl.threads)
        for cmd in wl.warmup:
            out = execute(lstorus.cli, cmd)
            if out.rc != 0 or out.error:
                shutil.rmtree(workdir, ignore_errors=True)
                raise RuntimeError(f"warm-up command {cmd.argv} failed: {out.error or out.rc}")
        times.append(perf_counter() - start)
    return lstorus, wl, workdir, times


# ---------------------------------------------------------------------------
# Metrics and context.


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def end_to_end(reps: list[list[Outcome]], setup_times: list[float]) -> dict:
    times = command_times(reps)
    busy = sum(times)
    items = sum(runs[0].cmd.items for runs in zip(*reps)
                if all(o.failure is None for o in runs))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (busy, "s"),
        "ops_per_s": (len(times) / busy, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p95_ms": (_p95(times) * 1e3, "ms"),
        "items_per_s": (items / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced, traced, tracer: T.Tracer, probe_hits: int) -> dict:
    units = {"calls": "count", "self_s": "s", "bytes": "B"}
    out = {}
    for name, value in T.layer_metrics(tracer, len(traced)).items():
        out[name] = (value, units.get(name.rsplit(".", 1)[1], "ratio"))
    out["trace.overhead_ratio"] = (sum(command_times(traced)) / sum(command_times(untraced)),
                                   "ratio")
    out["classify.weak_equivalence.probe_deadline_hits"] = (probe_hits, "count")
    return out


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def context(args, wl: W.Workload, repetitions: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lstorus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "LSTORUS_THREADS": os.environ.get("LSTORUS_THREADS"),
        "commands_per_pass": len(wl.commands),
        "repetitions": repetitions,
        "deadline_s": W.DEADLINE_S,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lstorus" / "cli.py").is_file():
        print(f"perfbench: no lstorus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)

    lstorus, wl, workdir, setup_times = setup(args.workload, args.seed)
    try:
        tracer = T.Tracer() if args.trace else None
        passes, traced = run_timed(lstorus.cli, wl, args.seconds, tracer)
        probes = []
        if args.trace:
            probes = [execute(lstorus.cli, cmd) for cmd in wl.probes]
            for o in probes:
                o.failure = check(o)
            metrics = per_layer(passes, traced, tracer,
                                sum(o.error == "deadline" for o in probes))
            tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"),
                               {"workload": args.workload, "seed": args.seed})
        else:
            metrics = end_to_end(passes, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for p in passes + traced for o in p]
    wrong_probes = [o.failure for o in probes if o.failure not in (None, "deadline")]
    failures = [o.failure for o in outcomes if o.failure is not None]
    wrong = [f for f in failures if f != "deadline"] + wrong_probes
    for reason, n in Counter(failures + wrong_probes).most_common():
        print(f"perfbench: {n} x {reason}", file=sys.stderr)
    print(json.dumps({"context": context(args, wl, len(passes))}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
