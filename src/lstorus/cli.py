"""Command-line interface.

Subcommands: validate, iso, canon, census, localcheck.  Every run prints a
JSON report to stdout (valid JSON on error paths too) and exits 0 on
success, 1 on a negative-but-well-formed outcome (invalid pair, not
equivalent, tolerance failure), 2 on parse/usage/resource errors.

Each ``cmd_*`` function returns its report, without "schema" and "command",
and its exit code, or raises; ``main`` alone writes reports.  The error kind
of a report is decided in one place, the ``_KINDS`` table: a command line
error or impossible localcheck dimensions give "usage", a file that cannot
be read or written "io", input that is not UTF-8 JSON "document", a pair
that fails validation "invalid-input", an oversized canonical form "size",
a census spec or poset that cannot run "census", a census over budget
"budget", and any other exception "internal", all with exit 2 and nothing
on stderr; --help alone prints plain text.  Reports can also be written to
a file, atomically, with --output; the file is written before stdout, so a
failed write prints only its "io" report.  "internal" and command line
"usage" reports go to stdout only.  Input files are never modified: an
--output that names one is a command line error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from .census import (
    BudgetExceededError,
    CensusError,
    CensusSpec,
    DEFAULT_BUDGET,
    enumerate_census,
)
from .charpair import CharacteristicPair, validate_characteristic
from .classify import (
    CanonicalFormError,
    Verdict,
    canonical_form,
    strong_equivalence,
    weak_equivalence,
)
from .documents import (
    DocumentError,
    Records,
    SCHEMA_VERSION,
    canonical_json,
    parse_document,
    validity_to_object,
    write_atomic,
)
from .localmodel import LocalModelError, run_local_checks


class _UsageError(Exception):
    def __init__(self, message: str, prog: str):
        super().__init__(message)
        # Subcommand parsers are named "lstorus <command>".
        self.command = prog.partition(" ")[2] or None


class _ArgumentParser(argparse.ArgumentParser):
    """Parser that raises on a command line error instead of printing usage
    to stderr and exiting, so main() can report it as JSON."""

    def error(self, message: str):
        raise _UsageError(message, self.prog)


class _InvalidInput(Exception):
    """A document that parses but holds no valid pair."""

    def __init__(self, message: str, violations: list):
        super().__init__(message)
        self.violations = violations


# The error kind of each exception that main reports; the first match wins,
# so BudgetExceededError comes before its base CensusError.  Any exception
# not listed here is an "internal" error.
_KINDS: tuple[tuple[type, str], ...] = (
    (DocumentError, "document"),
    (_InvalidInput, "invalid-input"),
    (BudgetExceededError, "budget"),
    (CensusError, "census"),
    (CanonicalFormError, "size"),
    (LocalModelError, "usage"),
    (_UsageError, "usage"),
    (OSError, "io"),
)
# What a subcommand raises for input it refuses: reported like a result.
_REFUSALS = tuple(cls for cls, kind in _KINDS if kind != "io")


def _emit(report: dict, output: Optional[str]) -> None:
    text = canonical_json(report)
    if output:
        write_atomic(output, text)
    sys.stdout.write(text)


def _error_report(command: Optional[str], exc: Exception) -> dict:
    kind = next((kind for cls, kind in _KINDS if isinstance(exc, cls)), "internal")
    error: dict = {"type": kind, "message": str(exc)}
    if isinstance(exc, DocumentError):
        if exc.line is not None:
            error["line"] = exc.line
        if exc.col is not None:
            error["col"] = exc.col
    elif isinstance(exc, BudgetExceededError):
        error["estimate"] = exc.estimate
        error["budget"] = exc.budget
    elif isinstance(exc, _InvalidInput):
        error["violations"] = exc.violations
    elif kind == "internal":
        error["exception"] = type(exc).__name__
    return {"schema": SCHEMA_VERSION, "command": command, "error": error}


def _read(path: str) -> str:
    """The text of an input file; ``main`` reports an ``OSError`` as "io"."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text: {exc}") from exc


def _verdict_object(verdict: Verdict) -> dict:
    witness = None
    if verdict.witness is not None:
        witness = {
            "phi": verdict.witness.phi,
            "auto": [list(row) for row in verdict.witness.auto]
            if verdict.witness.auto is not None
            else None,
        }
    return {
        "equivalent": verdict.equivalent,
        "mode": verdict.mode,
        "witness": witness,
        "witness_unique": verdict.witness_unique,
        "reason": verdict.reason,
        "hypotheses": verdict.hypotheses,
        "conclusion": verdict.conclusion,
    }


def cmd_validate(args: argparse.Namespace) -> tuple[dict, int]:
    doc = parse_document(_read(args.path))
    poset_report = doc.poset.validate()
    label_report = None
    if doc.pair is not None and poset_report.valid:
        label_report = validate_characteristic(doc.pair)
    valid = poset_report.valid and (label_report is None or label_report.valid)
    report = {
        "valid": valid,
        "lambda_present": doc.pair is not None,
        "poset_violations": validity_to_object(poset_report),
        "label_violations": [] if label_report is None else validity_to_object(label_report),
        "faces": len(doc.poset),
        "dim_orbit": doc.poset.dim_orbit,
        "k": doc.k,
    }
    return report, 0 if valid else 1


def _load_valid_pair(path: str) -> CharacteristicPair:
    """The valid pair that the file holds; raises DocumentError or
    _InvalidInput when it holds none."""
    doc = parse_document(_read(path))
    if doc.pair is None:
        raise DocumentError(f"{path}: document has no lambda key")
    poset_report = doc.pair.poset.validate()
    if not poset_report.valid:
        raise _InvalidInput(f"{path}: poset is invalid", validity_to_object(poset_report))
    label_report = validate_characteristic(doc.pair)
    if not label_report.valid:
        raise _InvalidInput(
            f"{path}: characteristic function is invalid",
            validity_to_object(label_report),
        )
    return doc.pair


def cmd_iso(args: argparse.Namespace) -> tuple[dict, int]:
    a = _load_valid_pair(args.path_a)
    b = _load_valid_pair(args.path_b)
    decide = strong_equivalence if args.mode == "strong" else weak_equivalence
    verdict = decide(a, b)
    report = {"inputs": [args.path_a, args.path_b], "verdict": _verdict_object(verdict)}
    return report, 0 if verdict.equivalent else 1


def cmd_canon(args: argparse.Namespace) -> tuple[dict, int]:
    form = canonical_form(_load_valid_pair(args.path), args.mode)
    return {"mode": args.mode, "canonical_form": form}, 0


def cmd_census(args: argparse.Namespace) -> tuple[dict, int]:
    doc = parse_document(_read(args.poset))
    spec = CensusSpec(
        poset=doc.poset, k=args.k, entry_bound=args.bound, dedup=args.dedup, budget=args.budget
    )
    result = enumerate_census(spec)
    # The classes as columns: a label column per facet, and the sizes.
    n = len(result.classes)
    labels = dict(zip(result.facet_order, zip(*(rep for rep, _ in result.classes))))
    report = {
        "k": args.k,
        "entry_bound": args.bound,
        "dedup": args.dedup,
        "facet_order": list(result.facet_order),
        "total_valid": result.total_valid,
        "class_count": n,
        "classes": Records(n, {
            "labels": Records(n, labels), "size": [size for _, size in result.classes]
        }),
        "stats": {
            "faces_per_codim": {str(c): m for c, m in result.faces_per_codim.items()},
            "euler_count": result.euler_count,
        },
    }
    return report, 0


def cmd_localcheck(args: argparse.Namespace) -> tuple[dict, int]:
    result = run_local_checks(args.n, args.k, args.m, samples=args.samples, seed=args.seed)
    return result, 0 if result["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it costs about 25 times a parse, and ``parse_args`` keeps
    no state between calls, so every ``main`` call shares this one.
    """
    parser = _ArgumentParser(
        prog="lstorus",
        description=(
            "Validate, compare, enumerate, and numerically check "
            "characteristic pairs of locally standard torus actions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a pair document")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("iso", help="decide equivalence of two pairs")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--mode", choices=["strong", "weak"], default="strong")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("canon", help="canonical form of a pair")
    p.add_argument("path")
    p.add_argument("--mode", choices=["strong", "weak"], default="strong")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("census", help="enumerate labelings over a poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--dedup", choices=["none", "strong", "weak"], default="none")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("localcheck", help="numeric chart-formula checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_localcheck)
    for p in sub.choices.values():
        p.add_argument("--output", default=None)
    return parser


def _check_output(args: argparse.Namespace) -> None:
    """Refuse an --output that names an input file of the command."""
    output = args.output
    if not output or not os.path.exists(output):
        return
    for name in ("path", "path_a", "path_b", "poset"):
        path = getattr(args, name, None)
        if path is not None and os.path.exists(path) and os.path.samefile(path, output):
            raise _UsageError(f"--output {output} is the input {path}", f"lstorus {args.command}")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_output(args)
    except _UsageError as exc:
        _emit(_error_report(exc.command, exc), None)
        return 2
    try:
        try:
            body, code = args.func(args)
            report = {"schema": SCHEMA_VERSION, "command": args.command, **body}
        except _REFUSALS as exc:
            report, code = _error_report(args.command, exc), 2
        _emit(report, args.output)
        return code
    except OSError as exc:
        # An input that cannot be read, or --output that cannot be written.
        # The report goes to --output when it can, and to stdout once.
        report = _error_report(args.command, exc)
        try:
            _emit(report, args.output)
        except OSError:
            _emit(report, None)
        return 2
    except Exception as exc:  # last resort: keep the JSON-report contract
        _emit(_error_report(args.command, exc), None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
