"""The report writer against ``json.dumps``, and the fixtures against their
generators."""

import enum
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lstorus.cli as cli
from lstorus import documents
from lstorus.charpair import CharacteristicPair
from lstorus.documents import Records, canonical_json, pair_to_object
from lstorus.fixtures import square_poset
from oracles import canonical_json_reference

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def outcome(write, obj):
    """The text ``write`` gives, or the type and message of what it raised."""
    try:
        return "text", write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _reuse(x):
    """One object at several depths and under several keys: each reuse
    must be laid out at its own depth."""
    return {"a": x, "b": [x, {"c": x, "d": (x,)}], "e": (x, x)}


_chars = st.one_of(st.characters(exclude_categories=()), st.characters(categories=["Cs"]))
_text = st.text(_chars, max_size=6)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.floats(),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, True, False]),
    _text,
)
_int_lists = st.lists(
    st.one_of(st.integers(-3, 3), st.booleans(), st.just(1.0)), min_size=1, max_size=4
)
_cells = st.one_of(
    st.integers(), st.just(10**5000), _text, _int_lists, _int_lists.map(tuple)
)


@st.composite
def _record_arrays(draw, rows=None, depth=0):
    """A list of 2-4 dicts with one list of keys, each written value by
    value; a key holds ints, strs, short int lists or, one level down, the
    rows of such a list."""
    keys = draw(st.lists(_text, min_size=1, max_size=3, unique=True))
    n = rows or draw(st.integers(2, 4))
    columns = [
        draw(_record_arrays(n, depth + 1))
        if depth < 2 and draw(st.booleans())
        else draw(st.lists(_cells, min_size=n, max_size=n))
        for _ in keys
    ]
    return [dict(zip(keys, cells)) for cells in zip(*columns)]


def _alias(array, how):
    """``array`` with one row or cell replaced by another of its rows."""
    first = array[0]
    key = next(iter(first))
    if how == "repeated row":
        array[1] = first
    elif how == "cell is another row":
        first[key] = array[1]
    return array


_aliased_records = st.builds(
    _alias, _record_arrays(), st.sampled_from(["none", "repeated row", "cell is another row"])
)
# A census label vector: one tuple shared by many rows of a column.
_shared = (1, -2, 0)
# The kinds of cells a Records column is drawn from: ints, lists and tuples,
# which are laid out column by column, and strs, mixed or unsupported ones.
_column_cells = st.sampled_from([
    st.integers(),
    _text,
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.just(_shared),
    st.one_of(st.just(_shared), st.tuples(st.integers(-3, 3))),
    st.one_of(st.integers(), st.just(10**5000)),
    _cells,
    _scalars,
    st.lists(_scalars, max_size=2),
])


@st.composite
def _records(draw, count=None, depth=0):
    """A ``Records`` of 0-3 or 11 rows and 0-3 keys; a column is a list or
    tuple of cells of one kind from ``_column_cells`` or, two levels deep
    at most, a nested ``Records``."""
    n = draw(st.sampled_from([0, 1, 2, 3, 11])) if count is None else count
    columns = {}
    for key in draw(st.lists(_text, max_size=3, unique=True)):
        if depth < 2 and draw(st.booleans()):
            columns[key] = draw(_records(n, depth + 1))
        else:
            cells = draw(st.lists(draw(_column_cells), min_size=n, max_size=n))
            columns[key] = draw(st.sampled_from([list, tuple]))(cells)
    return Records(n, columns)


_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
        _int_lists,
        _int_lists.map(tuple).map(_reuse),
        children.map(_reuse),
        _aliased_records,
        _aliased_records.map(_reuse),
        _records(),
        _records().map(_reuse),
    ),
    max_leaves=30,
)


@settings(max_examples=600, deadline=None)
@given(_values)
def test_canonical_json_matches_json_dumps(obj):
    assert outcome(canonical_json, obj) == outcome(canonical_json_reference, obj)


@settings(max_examples=400, deadline=None)
@given(_records())
def test_records_match_json_dumps_of_their_rows(obj):
    assert outcome(canonical_json, obj) == outcome(canonical_json_reference, obj)


def test_records_on_fixed_cases():
    huge = 10 ** (sys.get_int_max_str_digits() + 1)
    labels = Records(3, {"a": [_shared] * 3, "b": ((1,), (2,), (1,))})
    cases = [
        Records(0, {}), Records(0, {"a": []}), Records(1, {}), Records(3, {}),
        Records(2, {"labels": Records(2, {}), "size": [1, 1]}),
        Records(3, {"labels": labels, "size": (1, 2, 3), "name": ["x", "y", "\ud800"]}),
        [labels, {"again": labels}],
        # List columns of any cells, each distinct cell written once.
        Records(2, {"a": [[], [1]]}), Records(2, {"a": [(1, True), (2,)]}),
        Records(2, {"a": [[1.5, None], ["x"]]}), Records(2, {"a": [[[1]], [[2]]]}),
        # One list object shared by two columns.
        Records(2, {"a": [_shared, [0]], "b": ((2,), _shared)}),
        # Str, mixed and unsupported columns, which are written row by row.
        Records(2, {"a": ["x", "\ud800"]}), Records(2, {"a": [1, "1"]}),
        Records(2, {"a": [1.0, None]}), Records(2, {"a": [{"x": 1}, {"x": 2}]}),
        Records(2, {"a": [Records(1, {}), 1]}),
    ]
    # An int too long to convert raises json's ValueError, and the first
    # error in document order wins, wherever the columns sort.
    errors = [
        (Records(2, {"a": [1, huge]}), ValueError),
        (Records(1, {"a": Records(1, {"b": [(huge,)]})}), ValueError),
        (Records(2, {"a": [1, huge], "b": [object(), 1]}), TypeError),
        (Records(2, {"a": [1, huge], "b": [[object()], [1]]}), TypeError),
        (Records(2, {"a": [[1], [object()]], "b": [huge, 1]}), ValueError),
    ]
    for obj in cases + [obj for obj, _ in errors]:
        assert outcome(canonical_json, obj) == outcome(canonical_json_reference, obj), obj
    for obj, error in errors:
        assert outcome(canonical_json, obj)[0] is error, obj
    # A Records is no list: json.dumps without the oracle's default refuses it.
    with pytest.raises(TypeError, match="^Object of type Records is not JSON serializable$"):
        json.dumps(Records(1, {}))


class _Colour(enum.IntEnum):
    RED = 1


class _Name(str):
    pass


class _Count(int):
    pass


class _Real(float):
    pass


class _Box(list):
    pass


class _Table(dict):
    pass


def test_canonical_json_matches_json_dumps_on_fixed_cases():
    flat = [1, 2, 3]
    twice = [1]
    # A record whose nested record column holds a row of its own array.
    s = {"x": 1}
    q = {"x": s}
    p = {"x": q}
    cases = [
        0, -0.0, "", [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, {"a": ()},
        # Equal values of other types, and one list met twice.
        [[1, 1], [1, True], (1, 1.0), flat, (flat, [flat])],
        {"x": [1, True], "y": [1, 1], "z": (1, 1.0)},
        [0.5, math.nan, math.inf, -math.inf], {"n": math.nan},
        10**4000, [10**5000], [twice, {"t": twice}], [p, q],
        "\x00\x1f\x7f \ud800\U0001f600 é",
    ]
    for obj in cases:
        assert outcome(canonical_json, obj) == outcome(canonical_json_reference, obj), obj


def test_unsupported_values_raise_type_error_and_cycles_recursion_error():
    # The first error in document order wins, even where a later row of a
    # list of dicts has an int too long to convert.
    unsupported_first = [{"a": 1, "b": object()}, {"a": 10**5000, "b": 1}]
    for obj in (object(), {"a": {2, 3}}, [1, [2, b"x"]], unsupported_first):
        assert outcome(canonical_json, obj) == outcome(canonical_json_reference, obj), obj
        assert outcome(canonical_json, obj)[0] is TypeError, obj
    # Subclasses, which json.dumps writes as their base type, are refused.
    for obj in (_Name("v"), _Count(2), _Real(0.5), _Box([1]), _Table(a=1), _Colour.RED):
        in_records = Records(2, {"a": [1, obj]})
        for value in (obj, [obj], {"a": obj}, [{"a": 1}, {"a": obj}], in_records):
            with pytest.raises(TypeError, match=f"^Object of type {type(obj).__name__} is not"):
                canonical_json(value)
    # So are keys that are not strs, which json.dumps converts.
    for obj in ({(1, 2): 3}, {1: 2}, {None: 1}, {1: 2, "a": 3}, {None: 1, 0: 2}):
        with pytest.raises(TypeError):
            canonical_json(obj)
    loop = []
    loop.append(loop)
    knot = {}
    knot["x"] = [knot]
    # A cycle through a list that starts as a flat list of ints.
    head = [1, 2]
    head.append({"k": [head]})
    # Record arrays holding a row in its own cell, or the array in a cell.
    selfish = {"a": 1}
    selfish["b"] = selfish
    holder = {"a": 1, "b": [1]}
    table = [holder, {"a": 2, "b": [2]}]
    holder["b"] = table
    # A Records holding itself in a cell.
    ouroboros = Records(1, {"a": [None]})
    ouroboros.columns["a"][0] = ouroboros
    for obj in (loop, knot, head, [selfish, {"a": 2, "b": {"a": 3, "b": 4}}], table, ouroboros):
        with pytest.raises(RecursionError):
            canonical_json(obj)


def test_census_report_is_written_as_record_arrays(monkeypatch, capsys):
    """The 10,164 classes and their labels are written column by column:
    the per-value object writer runs only for the few dicts around them."""
    calls = []
    per_value = documents._object

    def counted(dct, depth):
        calls.append(depth)
        return per_value(dct, depth)

    monkeypatch.setattr(documents, "_object", counted)
    argv = ["census", "--poset", str(FIXTURES / "prism.json"), "--k", "3", "--bound", "1",
            "--dedup", "none"]
    assert cli.main(argv) == 0
    assert '"class_count": 10164' in capsys.readouterr().out
    assert 0 < len(calls) < 10


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--poset", str(FIXTURES / "prism.json"), "--k", "3", "--bound", "1",
         "--dedup", "none"],
        ["census", "--poset", str(FIXTURES / "cube2.json"), "--k", "2", "--bound", "3",
         "--dedup", "weak"],
        ["localcheck", "--n", "2", "--k", "3", "--m", "1", "--samples", "40", "--seed", "5"],
        ["iso", str(FIXTURES / "hirzebruch1.json"), str(FIXTURES / "hirzebruch1.json"),
         "--mode", "weak"],
        ["validate", "two-violations.json"],
        ["validate", str(FIXTURES / "no-such-document.json")],
    ],
    ids=["census-prism", "census-square-weak", "localcheck", "iso-witness", "violations",
         "error"],
)
def test_reports_match_json_dumps(argv, capsys, monkeypatch, tmp_path):
    # Two vertices whose facet labels coincide: the violations form a list
    # of dicts, which the writer lays out value by value.
    bad = CharacteristicPair(
        square_poset(), 2, {"E0": (1, 0), "E1": (1, 0), "E2": (1, 0), "E3": (0, 1)}
    )
    (tmp_path / "two-violations.json").write_text(canonical_json(pair_to_object(bad)))
    monkeypatch.chdir(tmp_path)
    reports = []

    def spy(obj):
        reports.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", spy)
    cli.main(argv)
    out = capsys.readouterr().out
    assert len(reports) == 1
    expected = canonical_json_reference(reports[0])
    # A plain comparison would make pytest diff two 4 MB texts on failure.
    same = out == expected
    at = next(
        (i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
        min(len(out), len(expected)),
    )
    assert same, f"texts differ at {at}: {out[at:at + 80]!r} != {expected[at:at + 80]!r}"
    report = reports[0]
    if argv[0] == "census":
        classes = report["classes"]
        assert type(classes) is Records and classes.count == report["class_count"]
        # The labels are the census's own tuples, each written once per column.
        labels = classes.columns["labels"]
        assert all(type(v) is tuple for column in labels.columns.values() for v in column)
        if argv[-1] == "none":
            assert len(out.encode("utf-8")) == 3_985_680
        else:
            assert max(classes.columns["size"]) > 1
    if argv[0] == "iso":
        assert report["verdict"]["witness"]["auto"] is not None
    if argv[1] == "two-violations.json":
        assert len(report["label_violations"]) >= 2
    elif argv[0] == "validate":
        assert report["error"]["type"] == "io"


def test_fixture_generators_reproduce_every_fixture_byte_for_byte():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py"
    )
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    documents = make_fixtures.fixture_documents()
    on_disk = {path.name: path.read_bytes() for path in FIXTURES.glob("*.json")}
    assert sorted(documents) == sorted(on_disk)
    for name, text in documents.items():
        assert text.encode("utf-8") == on_disk[name], name
