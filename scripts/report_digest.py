#!/usr/bin/env python3
"""Write the CLI reports that must not change between versions to one JSON file.

Usage: python3 scripts/report_digest.py OUT.json
       python3 scripts/report_digest.py --hashes tests/report_digest.sha256.json

The dump holds, for the tree the script sits in:
  * `validate` and `canon` (strong and weak) reports for every document in
    fixtures/;
  * `iso` reports (strong and weak) for every document in fixtures/ against
    itself and for every pair of labelled documents with equal k and
    dim_orbit;
  * `iso` reports (strong and weak) for every labelled document in
    fixtures/ against a copy with renamed faces and labels moved by a
    random automorphism, seeded by the file name;
  * `validate` reports for the invalid documents in INVALID below;
  * an error report of every kind that each subcommand can give, except
    "io" and "internal", for the command lines in ERRORS below;
  * census reports under `--dedup none`, `strong` and `weak` for the
    (poset, k, B) settings in CENSUS below, and the budget refusal of each
    setting in CENSUS_REFUSED;
  * `localcheck` reports for the shapes in LOCALCHECK at a few seeds, and
    for the settings in LOCALCHECK_LONG, whose samples span several of the
    batches that `lstorus.localmodel` lifts together.

Each entry maps a command line to the exit code and the exact stdout text
of `lstorus.cli.main`; census and INVALID entries name the input instead of
its file, and the moved copies and the inputs of ERRORS are named relative
to the work directory.
Run it in two checkouts and compare the dumps with `cmp` to check that a
change keeps these reports byte-identical, and to find what differs.
With `--hashes PATH` it writes, in place of the dump, the sha256 of each
entry (see `entry_hash`) by command line; tests/test_report_digest.py
compares the committed tests/report_digest.sha256.json against a fresh
in-process digest.  Run as a script, it re-executes itself with
PYTHONHASHSEED=0 so that both runs hash alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lstorus import fixtures  # noqa: E402
from lstorus.charpair import CharacteristicPair, relabel, rename_faces  # noqa: E402
from lstorus.cli import main as cli_main  # noqa: E402
from lstorus.documents import (  # noqa: E402
    pair_to_object,
    parse_document,
    poset_to_object,
    serialize_pair,
    serialize_poset,
)
from lstorus.faceposet import FacePoset  # noqa: E402
from lstorus.lattice import PrimitiveVector, random_unimodular  # noqa: E402

# (poset, k, B): every census setting of the benchmark's census workloads.
CENSUS = [
    ("prism", 3, 1),
    ("simplex3", 3, 1),
    ("pentagon", 2, 3),
    ("hexagon", 2, 2),
    ("square", 2, 4),
    ("square", 2, 3),
    ("pentagon", 2, 2),
    ("hexagon", 2, 1),
    ("triangle", 3, 1),
    # k above the orbit dimension, and a census with no labeling at all.
    ("square", 3, 1),
    ("triangle", 4, 1),
    ("square", 1, 2),
    # No facet: one class whose labels are empty.
    ("point", 1, 1),
]
# (poset, k, B) settings whose census the default budget refuses.  The box
# holds 25^4 points, so listing it before the refusal takes visible time.
CENSUS_REFUSED = [("square", 4, 12)]
POSETS = {
    "prism": fixtures.prism_poset,
    "simplex3": lambda: fixtures.simplex_poset(3),
    "triangle": fixtures.triangle_poset,
    "square": fixtures.square_poset,
    "pentagon": fixtures.pentagon_poset,
    "hexagon": lambda: fixtures.polygon_poset(6),
    "point": lambda: FacePoset([("P", 0)], [], 0),
}
# (n, k, m) shapes: the four of the benchmark's localcheck workload, then
# shapes without z (n = 0), without y (m = 0) and a larger one; and the
# workload's sample count.
LOCALCHECK = [(1, 2, 1), (2, 3, 1), (3, 3, 0), (2, 2, 2), (0, 2, 1), (1, 1, 0), (3, 4, 2)]
LOCALCHECK_SEEDS = range(3)
LOCALCHECK_SAMPLES = 50
# ((n, k, m), samples, seed): localcheck runs with more samples than one
# batch of lifts holds.
LOCALCHECK_LONG = [((2, 3, 1), 200, 0)]


def _square() -> dict:
    return pair_to_object(fixtures.square_pair([(1, 0), (0, 1), (1, 0), (0, 1)]))


def _without_covers(doc: dict, *removed: list[str]) -> dict:
    return {**doc, "covers": [c for c in doc["covers"] if c not in removed]}


def _corner(n: int, *removed: list[str]) -> dict:
    return _without_covers(poset_to_object(fixtures.corner_poset(n)), *removed)


def _cube4() -> dict:
    return poset_to_object(fixtures.cube_poset(4))


# Invalid `validate` inputs, one per kind of failure.
INVALID = {
    "bad-label": lambda: {**_square(), "lambda": {**_square()["lambda"], "E2": [2, 1]}},
    "missing-cover": lambda: _without_covers(_square(), ["V0", "E0"]),
    "codim-rank": lambda: pair_to_object(CharacteristicPair(
        fixtures.square_poset(), 1, {f"E{i}": (1,) for i in range(4)})),
    "interval-order-corner3": lambda: _corner(3, ["A", "T"], ["B", "T"]),
    "interval-order-corner4": lambda: _corner(
        4, ["ABC", "AB"], ["A", "T"], ["B", "T"], ["C", "T"]),
    "interval-order-cube4": lambda: _without_covers(_cube4(), sorted(_cube4()["covers"])[-1]),
}


def _cube4_pair() -> dict:
    """cube4 with the standard basis on its facets: above the canonical
    form's 64-face bound."""
    poset = fixtures.cube_poset(4)
    labels = {}
    for f in poset.facets():
        axis = next(i for i, part in enumerate(f.split("|")) if part != "T")
        labels[f] = PrimitiveVector(tuple(int(j == axis) for j in range(4)))
    return pair_to_object(CharacteristicPair(poset, 4, labels))


# The inputs of ERRORS, by file name.
ERROR_INPUTS = {
    "cp1.json": lambda: (ROOT / "fixtures" / "cp1.json").read_text(encoding="utf-8"),
    "broken.json": lambda: '{"k": 2,,}',
    "bad-label.json": lambda: json.dumps(INVALID["bad-label"]()),
    "bad-poset.json": lambda: json.dumps(INVALID["missing-cover"]()),
    "square-poset.json": lambda: serialize_poset(fixtures.square_poset()),
    "cube2.json": lambda: serialize_poset(fixtures.cube_poset(2)),
    "cube4-pair.json": lambda: json.dumps(_cube4_pair()),
}
# Error reports, by kind; each command line runs in the work directory.
ERRORS = [
    # document
    ["validate", "broken.json"],
    ["iso", "broken.json", "cp1.json"],
    ["iso", "cp1.json", "broken.json"],
    ["iso", "cp1.json", "square-poset.json"],
    ["canon", "broken.json"],
    ["canon", "square-poset.json", "--mode", "weak"],
    ["census", "--poset", "broken.json", "--k", "2", "--bound", "1"],
    # invalid-input
    ["iso", "bad-poset.json", "cp1.json"],
    ["iso", "cp1.json", "bad-label.json", "--mode", "weak"],
    ["canon", "bad-poset.json"],
    ["canon", "bad-label.json", "--mode", "weak"],
    # size
    ["canon", "cube4-pair.json"],
    ["canon", "cube4-pair.json", "--mode", "weak"],
    # census
    ["census", "--poset", "square-poset.json", "--k", "2", "--bound", "0"],
    ["census", "--poset", "square-poset.json", "--k", "0", "--bound", "1"],
    ["census", "--poset", "square-poset.json", "--k", "2", "--bound", "1", "--budget", "0"],
    ["census", "--poset", "bad-poset.json", "--k", "2", "--bound", "1"],
    # budget, at a bound whose box must be counted, not listed
    ["census", "--poset", "cube2.json", "--k", "2", "--bound", "10000000"],
    # usage
    ["localcheck", "--n", "3", "--k", "2", "--m", "0"],
    ["census", "--poset", "square-poset.json", "--bound", "1"],
    ["iso", "cp1.json"],
    ["frobnicate", "cp1.json"],
]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def run_in(directory: pathlib.Path, argv: list[str]) -> dict:
    """`run` with `directory` as the working directory."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return run(argv)
    finally:
        os.chdir(cwd)


def moved_copy(path: pathlib.Path, pair: CharacteristicPair) -> CharacteristicPair:
    """The pair with its faces renamed in a shuffled order and its labels
    moved by a random automorphism, both seeded by the file name."""
    rng = random.Random(path.name)
    ids = pair.poset.ids()
    names = [f"r{i}" for i in range(len(ids))]
    rng.shuffle(names)
    return relabel(rename_faces(pair, dict(zip(ids, names))), random_unimodular(pair.k, rng))


def digest(workdir: pathlib.Path) -> dict[str, dict]:
    entries = {}
    # Relative paths keep the reports that name a path free of the checkout.
    paths = sorted(pathlib.Path("fixtures").glob("*.json"))
    for path in paths:
        argv = ["validate", str(path)]
        entries[" ".join(argv)] = run(argv)
        for mode in ("strong", "weak"):
            argv = ["canon", str(path), "--mode", mode]
            entries[" ".join(argv)] = run(argv)
    pairs = {}
    for path in paths:
        pair = parse_document(path.read_text(encoding="utf-8")).pair
        if pair is not None:
            pairs[path] = pair
    shapes = {path: (pair.k, pair.dim_orbit) for path, pair in pairs.items()}
    iso_pairs = [(path, path) for path in paths] + [
        (a, b) for a, b in itertools.combinations(shapes, 2) if shapes[a] == shapes[b]
    ]
    for a, b in iso_pairs:
        for mode in ("strong", "weak"):
            argv = ["iso", str(a), str(b), "--mode", mode]
            entries[" ".join(argv)] = run(argv)
    # A weak witness that is not the identity; the half plane's is not unique.
    for path, pair in pairs.items():
        moved = f"{path.stem}-moved.json"
        (workdir / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        (workdir / moved).write_text(serialize_pair(moved_copy(path, pair)), encoding="utf-8")
        for mode in ("strong", "weak"):
            argv = ["iso", path.name, moved, "--mode", mode]
            entries[" ".join(argv)] = run_in(workdir, argv)
    for name, make in INVALID.items():
        doc = workdir / f"{name}.json"
        doc.write_text(json.dumps(make()), encoding="utf-8")
        entries[f"validate {name}"] = run(["validate", str(doc)])
    for name, make in ERROR_INPUTS.items():
        (workdir / name).write_text(make(), encoding="utf-8")
    for argv in ERRORS:
        entries[" ".join(argv)] = run_in(workdir, argv)
    for name, k, bound in CENSUS:
        poset = workdir / f"{name}.json"
        poset.write_text(serialize_poset(POSETS[name]()), encoding="utf-8")
        for dedup in ("none", "strong", "weak"):
            tail = ["--k", str(k), "--bound", str(bound), "--dedup", dedup]
            label = " ".join(["census", "--poset", name] + tail)
            entries[label] = run(["census", "--poset", str(poset)] + tail)
    for name, k, bound in CENSUS_REFUSED:
        poset = workdir / f"{name}.json"
        poset.write_text(serialize_poset(POSETS[name]()), encoding="utf-8")
        tail = ["--k", str(k), "--bound", str(bound)]
        entries[" ".join(["census", "--poset", name] + tail)] = run(
            ["census", "--poset", str(poset)] + tail
        )
    localchecks = [
        ((n, k, m), LOCALCHECK_SAMPLES, seed)
        for n, k, m in LOCALCHECK
        for seed in LOCALCHECK_SEEDS
    ] + LOCALCHECK_LONG
    for (n, k, m), samples, seed in localchecks:
        argv = [
            "localcheck", "--n", str(n), "--k", str(k), "--m", str(m),
            "--samples", str(samples), "--seed", str(seed),
        ]
        entries[" ".join(argv)] = run(argv)
    return entries


def entry_hash(entry: dict) -> str:
    """sha256 of an entry's exit code and stdout."""
    return hashlib.sha256(json.dumps(entry, sort_keys=True).encode("ascii")).hexdigest()


def main() -> None:
    args = sys.argv[1:]
    hashes = args[:1] == ["--hashes"]
    # An option in place of OUT.json (--help, -h, a mistyped --hashes)
    # would otherwise name the dump.
    if len(args) != 1 + hashes or args[-1].startswith("-"):
        sys.exit(__doc__.split("\n\n")[1])
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    out = pathlib.Path(args[-1]).resolve()
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        entries = digest(pathlib.Path(tmp))
    if hashes:
        entries = {line: entry_hash(entry) for line, entry in entries.items()}
    out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} {'hashes' if hashes else 'reports'} to {out}")


if __name__ == "__main__":
    main()
