#!/usr/bin/env python3
"""Regenerate the JSON fixture documents in fixtures/ from the generators."""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lstorus.documents import serialize_pair, serialize_poset
from lstorus.fixtures import (
    cp_pair,
    cube_poset,
    half_plane_pair,
    hirzebruch_pair,
    prism_poset,
    simplex_poset,
    square_pair,
)

OUT = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def fixture_documents() -> dict[str, str]:
    """Every fixture document: file name -> its canonical text."""
    docs: dict[str, str] = {}
    for n in range(1, 5):
        docs[f"simplex{n}.json"] = serialize_poset(simplex_poset(n))
        docs[f"cube{n}.json"] = serialize_poset(cube_poset(n))
    docs["prism.json"] = serialize_poset(prism_poset())
    for n in range(1, 4):
        docs[f"cp{n}.json"] = serialize_pair(cp_pair(n))
    for a in (0, 1, 2):
        docs[f"hirzebruch{a}.json"] = serialize_pair(hirzebruch_pair(a))
    docs["square_std.json"] = serialize_pair(
        square_pair([(1, 0), (0, 1), (1, 0), (0, 1)])
    )
    docs["half_plane.json"] = serialize_pair(half_plane_pair())
    return docs


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, text in sorted(fixture_documents().items()):
        (OUT / name).write_text(text, encoding="utf-8")
        print(f"wrote fixtures/{name}")


if __name__ == "__main__":
    main()
