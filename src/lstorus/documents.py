"""On-disk JSON documents: characteristic pairs and reports.

Canonical serialization is sorted keys, two-space indent, LF newlines,
UTF-8, and a single trailing newline; byte-identical output is part of the
determinism contract, so nothing here may depend on dict iteration order.
``canonical_json`` writes that text with a writer of its own, equal to
``json.dumps`` on report values: a few module functions, one layout per
JSON kind, that keep no state between values.  A census report is mostly
its classes, which ``cmd_census`` passes as ``Records``, an array of
objects held as columns: the writer lays out each int column at once, and
each distinct label vector of a column once, with no call per class.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
import tempfile
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring as _encode_str
from typing import Any, Iterable, Optional

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


class Records:
    """An array of ``count`` objects held as columns, for ``canonical_json``.

    ``columns`` maps each key, an exact ``str``, to a sequence of ``count``
    cells or to a nested ``Records`` of ``count`` rows.  No keys still
    means ``count`` empty objects.  It is no list, so ``json.dumps``
    refuses it.
    """

    __slots__ = ("count", "columns")

    def __init__(self, count: int, columns: dict) -> None:
        self.count = count
        self.columns = columns

    def rows(self) -> list[dict]:
        """The array as a list of dicts."""
        cols = {k: c.rows() if type(c) is Records else c for k, c in self.columns.items()}
        return [{k: c[i] for k, c in cols.items()} for i in range(self.count)]


def canonical_json(obj: Any) -> str:
    """The canonical text of a report value, with one trailing newline.

    A report value is an exact ``dict`` with ``str`` keys, ``list``,
    ``tuple``, ``str``, ``int``, ``float``, ``bool``, ``None`` or
    ``Records``, nested.  On those the text is exactly ``json.dumps(obj,
    sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``, a ``Records``
    read as its ``rows()``, errors included (NaN and infinities as ``json``
    writes them, an int too long to convert); ``tests/oracles.py`` keeps
    that call as ``canonical_json_reference``.  Any other type, a subclass
    included, raises ``TypeError``, as does a non-``str`` key; a cyclic
    value raises ``RecursionError``.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set,
    so this writer lays out the containers itself and leaves every string
    to the C encoder.  Every list, tuple and dict is written value by
    value.  A ``Records`` is laid out column by column when each column
    holds only exact ints, or only lists and tuples, each distinct one
    written once, or is a ``Records``; otherwise, or when a cell cannot be
    written, its rows are, so the first error in document order is raised.
    """
    return _value(obj, 0) + "\n"


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _value(o: Any, depth: int) -> str:
    t = type(o)
    if t is str:
        return _encode_str(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        return _object(o, depth)
    if t is list or t is tuple:
        return _array(o, depth)
    if t is float:
        return _float_text(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is Records:
        return _table(o, depth)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _array(lst: Any, depth: int) -> str:
    if not lst:
        return "[]"
    d = depth + 1
    inner = "\n" + "  " * d
    return "[" + inner + ("," + inner).join([_value(x, d) for x in lst]) + inner[:-2] + "]"


def _object(dct: dict, depth: int) -> str:
    if not dct:
        return "{}"
    d = depth + 1
    inner = "\n" + "  " * d
    entries = [_encode_str(key) + ": " + _value(v, d) for key, v in sorted(dct.items())]
    return "{" + inner + ("," + inner).join(entries) + inner[:-2] + "}"


def _table(rec: Records, depth: int) -> str:
    slots = _slots(rec, depth + 1) if rec.count else None
    if slots is None:  # no rows, or a column that cannot be laid out
        return _array(rec.rows(), depth)
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(map("".join, zip(*slots))) + inner[:-2] + "]"


def _slots(rec: Records, depth: int) -> Optional[list[Iterable[str]]]:
    """One iterable per slot of a row's text at ``depth``, in order, or
    None when a column cannot be laid out (see ``canonical_json``).

    The slots are a ``repeat`` of the text before each column's cells,
    then the cells, one per row (a nested ``Records`` gives its own
    slots); ``"".join`` over the slots gives each row.
    """
    if not rec.columns:
        return [repeat("{}", rec.count)]
    inner = "\n" + "  " * (depth + 1)
    glue, slots = "{" + inner, []
    for key in sorted(rec.columns):
        cells = rec.columns[key]
        try:
            cells = (_slots if type(cells) is Records else _column)(cells, depth + 1)
        except (TypeError, ValueError):  # an unsupported cell, or an int too long
            return None
        if cells is None:
            return None
        slots.append(repeat(glue + _encode_str(key) + ": "))
        slots += cells
        glue = "," + inner
    slots.append(repeat(inner[:-2] + "}", rec.count))
    return slots


def _column(cells: Any, depth: int) -> Optional[list[Iterable[str]]]:
    """The slots of the values of one column, or None."""
    kinds = {*map(type, cells)}
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is int:
        return [list(map(int.__repr__, cells))]
    if kind is not list and kind is not tuple:
        return None
    # Census columns hold a few label vectors many times over.  The column
    # holds every cell, so an id names one cell while it is written.
    distinct = dict(zip(map(id, cells), cells))
    texts = {i: _array(v, depth) for i, v in distinct.items()}
    return [map(texts.__getitem__, map(id, cells))]


_DOCUMENT_KEYS = frozenset({"k", "dim_orbit", "faces", "covers", "lambda", "attestations"})
_FACE_KEYS = frozenset({"id", "codim"})
_SURROGATE = re.compile("[\ud800-\udfff]")


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
    except ValueError as exc:  # an integer literal past the conversion limit
        raise DocumentError(
            "JSON parse error: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise DocumentError("JSON parse error: arrays or objects nest too deeply") from exc
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
        if not fid.isascii() and _SURROGATE.search(fid):
            raise DocumentError(
                f"faces[{i}].id has a lone surrogate, which no UTF-8 report can carry"
            )
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
    """Write via a temp file in the same directory plus rename.

    The file gets the mode that ``open(path, "w")`` would give it: a file
    being replaced keeps its mode, and a new one gets ``0o666`` less the
    umask (``mkstemp`` alone would make it 0600).  A target that is no
    regular file, such as a FIFO or a device, is written in place, and a
    symlink is resolved, so the rename replaces its target.  A failure
    leaves no temp file behind, and its ``OSError`` names ``path``, not the
    temp file.
    """
    tmp = None
    try:
        try:
            st_mode = os.stat(path).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            st_mode = stat.S_IFREG | 0o666 & ~umask
        if not stat.S_ISREG(st_mode):
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(content)
            return
        real = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".lstorus-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
        os.chmod(tmp, stat.S_IMODE(st_mode))
        os.replace(tmp, real)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
