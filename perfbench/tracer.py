"""Per-layer tracing by wrapping the package's public functions from outside.

Each wrapped call records a span (name, start, end, parent, command id,
thread).  A span's self time is its duration minus the time its child spans
cover; children on other threads (the census thread pool) are merged as an
interval union so parallel children are not counted twice.  Spans are kept
in memory up to a cap and written out at the end; the per-name totals are
exact whatever the cap.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter
from typing import Callable, Optional

# (module, attribute) of every wrapped function; "Class.method" wraps a method.
TARGETS = [
    ("cli", "main"),
    ("documents", "parse_document"),
    ("documents", "canonical_json"),
    ("faceposet", "FacePoset.validate"),
    ("faceposet", "FacePoset.linear_extension"),
    ("charpair", "validate_characteristic"),
    ("lattice", "is_direct_summand"),
    ("lattice", "snf_diagonal"),
    ("lattice", "solve_unimodular"),
    ("lattice", "saturate"),
    ("lattice", "hnf_with_transform"),
    ("classify", "strong_equivalence"),
    ("classify", "weak_equivalence"),
    ("classify", "verify_witness"),
    ("classify", "canonical_form"),
    ("census", "enumerate_census"),
    ("census", "enumerate_labelings"),
    ("localmodel", "run_local_checks"),
    ("localmodel", "lift_diffeo"),
    ("localmodel", "smoothness_probe"),
    ("localmodel", "section_compat_check"),
]

SPAN_CAP = 50_000
CENSUS = "census.enumerate_census"
WEAK = "classify.weak_equivalence"


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_s", "threaded", "in_census", "parent")

    def __init__(self, span_id, name, start, parent):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.threaded: Optional[list[tuple[float, float]]] = None
        self.in_census = name == CENSUS or (parent is not None and parent.in_census)
        self.parent = parent


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.command_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[dict] = []  # per-thread totals, merged at the end
        self._main = threading.get_ident()
        self._main_stack = self._state()["stack"]
        self._next_id = iter(range(1, 1 << 62)).__next__
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "calls": {}, "self_s": {}, "counts": {}}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            cross = None
            if parent is None and threading.get_ident() != tracer._main and tracer._main_stack:
                cross = tracer._main_stack[-1]
            frame = _Frame(tracer._next_id(), name, perf_counter(), parent or cross)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(state, frame, end, parent, cross)
            if on_result is not None:
                on_result(state["counts"], result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, state, frame: _Frame, end: float, parent, cross) -> None:
        duration = end - frame.start
        covered = frame.child_s
        if frame.threaded:
            covered += _union_length(frame.threaded)
        name = frame.name
        state["calls"][name] = state["calls"].get(name, 0) + 1
        state["self_s"][name] = state["self_s"].get(name, 0.0) + duration - covered
        counts = state["counts"]
        up = frame.parent
        if name == "lattice.solve_unimodular" and up is not None and up.name == WEAK:
            counts["weak_solves"] = counts.get("weak_solves", 0) + 1
        if frame.in_census and name in ("lattice.is_direct_summand", "classify.canonical_form"):
            counts[name + ".in_census"] = counts.get(name + ".in_census", 0) + 1
        if parent is not None:
            parent.child_s += duration
        elif cross is not None:
            with self._lock:
                if cross.threaded is None:
                    cross.threaded = []
                cross.threaded.append((frame.start, end))
        if len(self.spans) < SPAN_CAP:
            self.spans.append((
                frame.span_id, name, frame.start, end,
                up.span_id if up is not None else None,
                self.command_id, threading.get_ident(),
            ))
        else:
            counts["spans_dropped"] = counts.get("spans_dropped", 0) + 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded lstorus module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lstorus" or n.startswith("lstorus."))]
        for mod_name, attr in TARGETS:
            module = sys.modules[f"lstorus.{mod_name}"]
            name = f"{mod_name}.{attr}"
            hook = _RESULT_HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, fn, hook))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(name, fn, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        calls: dict = {}
        self_s: dict = {}
        counts: dict = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for src, dst in ((state["calls"], calls), (state["self_s"], self_s),
                             (state["counts"], counts)):
                for key, value in src.items():
                    dst[key] = dst.get(key, 0) + value
        return calls, self_s, counts

    def write_spans(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            dropped = self.totals()[2].get("spans_dropped", 0)
            handle.write(json.dumps({**header, "spans": len(self.spans),
                                     "dropped": dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _count(key: str, test: Callable) -> Callable:
    def hook(counts: dict, result) -> None:
        if test(result):
            counts[key] = counts.get(key, 0) + 1
    return hook


def _census_hook(counts: dict, result) -> None:
    counts["labelings"] = counts.get("labelings", 0) + result.total_valid
    counts["classes"] = counts.get("classes", 0) + len(result.classes)


def _bytes_hook(counts: dict, result) -> None:
    counts["json_bytes"] = counts.get("json_bytes", 0) + len(result.encode("utf-8"))


_RESULT_HOOKS = {
    "lattice.is_direct_summand": _count("summand_true", bool),
    "lattice.solve_unimodular": _count("solve_found", lambda r: r is not None),
    "documents.canonical_json": _bytes_hook,
    "census.enumerate_census": _census_hook,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, each a per-pass figure (totals divided by passes)."""
    calls, self_s, counts = tracer.totals()
    out: dict[str, float] = {}

    def per_pass(name: str, with_calls: bool = True) -> None:
        if with_calls:
            out[f"{name}.calls"] = calls.get(name, 0) / passes
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes

    for mod_name, attr in TARGETS:
        name = f"{mod_name}.{attr}"
        per_pass(name, with_calls=name not in _SELF_ONLY)
    out["documents.canonical_json.bytes"] = counts.get("json_bytes", 0) / passes
    out["lattice.is_direct_summand.true_ratio"] = _ratio(
        counts.get("summand_true", 0), calls.get("lattice.is_direct_summand", 0))
    out["lattice.solve_unimodular.found_ratio"] = _ratio(
        counts.get("solve_found", 0), calls.get("lattice.solve_unimodular", 0))
    out["classify.weak_equivalence.solves_per_call"] = _ratio(
        counts.get("weak_solves", 0), calls.get(WEAK, 0))
    labelings = counts.get("labelings", 0)
    out["census.summand_checks_per_labeling"] = _ratio(
        counts.get("lattice.is_direct_summand.in_census", 0), labelings)
    out["census.canonical_calls_per_labeling"] = _ratio(
        counts.get("classify.canonical_form.in_census", 0), labelings)
    out["census.classes_per_labeling"] = _ratio(counts.get("classes", 0), labelings)
    return out


# Functions the layer table reports by self time only.
_SELF_ONLY = {
    "faceposet.FacePoset.linear_extension",
    "localmodel.section_compat_check",
}
