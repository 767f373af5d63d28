"""On-disk JSON documents: characteristic pairs and reports.

Canonical serialization is sorted keys, two-space indent, LF newlines,
UTF-8, and a single trailing newline; byte-identical output is part of the
determinism contract, so nothing here may depend on dict iteration order.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Optional

from .charpair import Attestations, CharacteristicPair, CharPairError
from .faceposet import FacePoset, PosetError, ValidityReport
from .lattice import LatticeError, PrimitiveVector

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """Malformed document; optionally carries a line/column position."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ParsedDocument:
    poset: FacePoset
    pair: Optional[CharacteristicPair]  # None when the lambda key is absent
    k: Optional[int]


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_DOCUMENT_KEYS = frozenset({"k", "dim_orbit", "faces", "covers", "lambda", "attestations"})
_FACE_KEYS = frozenset({"id", "codim"})


def parse_document(text: str) -> ParsedDocument:
    """Parse a pair document; labels are optional, everything else is not.

    Values come from ``json.loads``, so ``type(x) is int`` is exactly "an
    integer and not a boolean".  Each check formats its message only when
    it fails.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"JSON parse error: {exc.msg}", line=exc.lineno, col=exc.colno
        ) from exc
    if type(raw) is not dict:
        raise DocumentError("document root must be an object")
    unknown = raw.keys() - _DOCUMENT_KEYS
    if unknown:
        raise DocumentError(f"unknown document keys {sorted(unknown)}")
    for key in ("dim_orbit", "faces", "covers"):
        if key not in raw:
            raise DocumentError(f"missing required key {key!r}")

    dim_orbit = raw["dim_orbit"]
    if type(dim_orbit) is not int or dim_orbit < 0:
        raise DocumentError("dim_orbit must be a nonnegative integer")
    faces_raw = raw["faces"]
    if type(faces_raw) is not list:
        raise DocumentError("faces must be an array")
    faces = []
    for i, entry in enumerate(faces_raw):
        if type(entry) is not dict:
            raise DocumentError(f"faces[{i}] must be an object")
        if entry.keys() != _FACE_KEYS:
            raise DocumentError(f"faces[{i}] must have exactly the keys 'id' and 'codim'")
        fid, codim = entry["id"], entry["codim"]
        if type(fid) is not str:
            raise DocumentError(f"faces[{i}].id must be a string")
        if type(codim) is not int:
            raise DocumentError(f"faces[{i}].codim must be an integer")
        faces.append((fid, codim))
    covers_raw = raw["covers"]
    if type(covers_raw) is not list:
        raise DocumentError("covers must be an array")
    covers = []
    for i, entry in enumerate(covers_raw):
        if not (
            type(entry) is list and len(entry) == 2
            and type(entry[0]) is str and type(entry[1]) is str
        ):
            raise DocumentError(f"covers[{i}] must be a [lowerId, upperId] pair of strings")
        covers.append((entry[0], entry[1]))
    try:
        poset = FacePoset(faces, covers, dim_orbit)
    except PosetError as exc:
        raise DocumentError(str(exc)) from exc

    k = raw.get("k")
    if k is not None and (type(k) is not int or k < 1):
        raise DocumentError("k must be a positive integer")

    attestations = Attestations()
    if "attestations" in raw:
        if type(raw["attestations"]) is not dict:
            raise DocumentError("attestations must be an object")
        try:
            attestations = Attestations.from_dict(raw["attestations"])
        except CharPairError as exc:
            raise DocumentError(str(exc)) from exc

    pair = None
    if "lambda" in raw:
        if k is None:
            raise DocumentError("a labeled document needs the key 'k'")
        lam_raw = raw["lambda"]
        if type(lam_raw) is not dict:
            raise DocumentError("lambda must be an object")
        labels = {}
        for fid, vec in lam_raw.items():
            if type(vec) is not list or not all(type(x) is int for x in vec):
                raise DocumentError(f"lambda[{fid!r}] must be an integer array")
            try:
                labels[fid] = PrimitiveVector(vec)
            except LatticeError as exc:
                raise DocumentError(f"lambda[{fid!r}]: {exc}") from exc
        try:
            pair = CharacteristicPair(poset, k, labels, attestations)
        except CharPairError as exc:
            raise DocumentError(str(exc)) from exc
    return ParsedDocument(poset=poset, pair=pair, k=k)


def parse_pair(text: str) -> CharacteristicPair:
    doc = parse_document(text)
    if doc.pair is None:
        raise DocumentError("document has no lambda key: not a full pair")
    return doc.pair


def pair_to_object(cp: CharacteristicPair) -> dict:
    return {
        "k": cp.k,
        "dim_orbit": cp.dim_orbit,
        "faces": [
            {"id": f, "codim": cp.poset.codim(f)} for f in cp.poset.ids()
        ],
        "covers": [list(pair) for pair in sorted(cp.poset.covers())],
        "lambda": {f: list(v.coords) for f, v in sorted(cp.labels().items())},
        "attestations": cp.attestations.as_dict(),
    }


def poset_to_object(p: FacePoset) -> dict:
    return {
        "dim_orbit": p.dim_orbit,
        "faces": [{"id": f, "codim": p.codim(f)} for f in p.ids()],
        "covers": [list(pair) for pair in sorted(p.covers())],
    }


def serialize_pair(cp: CharacteristicPair) -> str:
    return canonical_json(pair_to_object(cp))


def serialize_poset(p: FacePoset, k: Optional[int] = None) -> str:
    obj = poset_to_object(p)
    if k is not None:
        obj["k"] = k
    return canonical_json(obj)


def validity_to_object(report: ValidityReport) -> list[dict]:
    return [
        {"kind": v.kind, "faces": list(v.faces), "detail": v.detail}
        for v in report.violations
    ]


def write_atomic(path: str, content: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lstorus-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
