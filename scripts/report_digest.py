#!/usr/bin/env python3
"""Write the CLI reports that must not change between versions to one JSON file.

Usage: python3 scripts/report_digest.py OUT.json

The dump holds, for the tree the script sits in:
  * `validate` and `canon` (strong and weak) reports for every document in
    fixtures/;
  * `iso` reports (strong and weak) for every document in fixtures/ against
    itself and for every pair of labelled documents with equal k and
    dim_orbit;
  * `validate` reports for the invalid documents in INVALID below;
  * census reports under `--dedup none`, `strong` and `weak` for the
    (poset, k, B) settings in CENSUS below, and the budget refusal of each
    setting in CENSUS_REFUSED;
  * `localcheck` reports for the shapes in LOCALCHECK at a few seeds.

Each entry maps a command line to the exit code and the exact stdout text
of `lstorus.cli.main`; census and INVALID entries name the input instead of
its file.
Run it in two checkouts and compare the dumps with `cmp` to check that a
change keeps these reports byte-identical.  The script re-executes itself
with PYTHONHASHSEED=0 so that both runs hash alike.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile

if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lstorus import fixtures  # noqa: E402
from lstorus.charpair import CharacteristicPair  # noqa: E402
from lstorus.cli import main as cli_main  # noqa: E402
from lstorus.documents import (  # noqa: E402
    pair_to_object,
    parse_document,
    poset_to_object,
    serialize_poset,
)

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
}
# (n, k, m) shapes: the four of the benchmark's localcheck workload, then
# shapes without z (n = 0), without y (m = 0) and a larger one; and the
# workload's sample count.
LOCALCHECK = [(1, 2, 1), (2, 3, 1), (3, 3, 0), (2, 2, 2), (0, 2, 1), (1, 1, 0), (3, 4, 2)]
LOCALCHECK_SEEDS = range(3)
LOCALCHECK_SAMPLES = 50


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


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return {"exit": code, "stdout": out.getvalue()}


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
    shapes = {}
    for path in paths:
        pair = parse_document(path.read_text(encoding="utf-8")).pair
        if pair is not None:
            shapes[path] = (pair.k, pair.dim_orbit)
    iso_pairs = [(path, path) for path in paths] + [
        (a, b) for a, b in itertools.combinations(shapes, 2) if shapes[a] == shapes[b]
    ]
    for a, b in iso_pairs:
        for mode in ("strong", "weak"):
            argv = ["iso", str(a), str(b), "--mode", mode]
            entries[" ".join(argv)] = run(argv)
    for name, make in INVALID.items():
        doc = workdir / f"{name}.json"
        doc.write_text(json.dumps(make()), encoding="utf-8")
        entries[f"validate {name}"] = run(["validate", str(doc)])
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
    for n, k, m in LOCALCHECK:
        for seed in LOCALCHECK_SEEDS:
            argv = [
                "localcheck", "--n", str(n), "--k", str(k), "--m", str(m),
                "--samples", str(LOCALCHECK_SAMPLES), "--seed", str(seed),
            ]
            entries[" ".join(argv)] = run(argv)
    return entries


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    out = pathlib.Path(sys.argv[1]).resolve()
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        entries = digest(pathlib.Path(tmp))
    out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} reports to {out}")


if __name__ == "__main__":
    main()
