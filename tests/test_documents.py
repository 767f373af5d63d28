"""The report writer against ``json.dumps``, and the fixtures against their
generators."""

import enum
import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lstorus.cli as cli
from lstorus.documents import canonical_json
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
    """One object at several depths and under several keys: the writer's
    memos are keyed by identity and depth, so each reuse must still be laid
    out at its own depth."""
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
# Keys of one kind per dict, so that most dicts sort; a few mix kinds, which
# json.dumps refuses while sorting.
_number_keys = st.one_of(st.integers(), st.floats(), st.booleans())
_any_keys = st.one_of(_text, _number_keys, st.none())
_int_lists = st.lists(
    st.one_of(st.integers(-3, 3), st.booleans(), st.just(1.0)), min_size=1, max_size=4
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
        st.dictionaries(_number_keys, children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
        st.dictionaries(_any_keys, children, max_size=3),
        _int_lists,
        _int_lists.map(tuple).map(_reuse),
        children.map(_reuse),
    ),
    max_leaves=30,
)


@settings(max_examples=600, deadline=None)
@given(_values)
def test_canonical_json_matches_json_dumps(obj):
    assert outcome(canonical_json, obj) == outcome(canonical_json_reference, obj)


class _Colour(enum.IntEnum):
    RED = 1


class _Name(str):
    pass


class _Real(float):
    def __repr__(self):
        return "not json"


class _Box(list):
    pass


class _Table(dict):
    pass


def test_canonical_json_matches_json_dumps_on_fixed_cases():
    flat = [1, 2, 3]
    cases = [
        0, -0.0, "", [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, {"a": ()},
        # Equal values of other types must not share a memoised text.
        [[1, 1], [1, True], (1, 1.0), [1, _Colour.RED], flat, (flat, [flat])],
        {"x": [1, True], "y": [1, 1], "z": (1, 1.0)},
        {True: 1, None: 2}, {1: "a", 2.5: "b", -0.0: "c"}, {math.nan: 1, math.inf: 2},
        {_Name("k"): _Name("v")}, [_Real(0.5), _Real(math.inf), -math.inf], {"e": _Colour.RED},
        _Box([1, _Box([2])]), _Table(b=[1], a=_Table()), 10**4000, [10**5000],
        "\x00\x1f\x7f \ud800\U0001f600 é",
    ]
    for obj in cases:
        assert outcome(canonical_json, obj) == outcome(canonical_json_reference, obj), obj


def test_cycles_and_unsupported_values_raise_as_json_dumps_does():
    loop = []
    loop.append(loop)
    knot = {}
    knot["x"] = [knot]
    # A cycle through a list that starts as a flat list of ints.
    head = [1, 2]
    head.append({"k": [head]})
    twice = [1]
    cases = [
        loop, knot, head,
        {"a": object()}, [1, {2, 3}], object(), [1, [2, b"x"]],
        {(1, 2): 3}, {1: 2, "a": 3}, {None: 1, 0: 2},
    ]
    for obj in cases:
        expected = outcome(canonical_json_reference, obj)
        assert expected[0] in (TypeError, ValueError), obj
        assert outcome(canonical_json, obj) == expected, obj
    # The same list twice is not a cycle.
    assert canonical_json([twice, {"t": twice}]) == canonical_json_reference([twice, {"t": twice}])


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--poset", str(FIXTURES / "prism.json"), "--k", "3", "--bound", "1",
         "--dedup", "none"],
        ["localcheck", "--n", "2", "--k", "3", "--m", "1", "--samples", "40", "--seed", "5"],
        ["iso", str(FIXTURES / "hirzebruch1.json"), str(FIXTURES / "hirzebruch1.json"),
         "--mode", "weak"],
        ["validate", str(FIXTURES / "no-such-document.json")],
    ],
    ids=["census-prism", "localcheck", "iso-witness", "error"],
)
def test_reports_match_json_dumps(argv, capsys, monkeypatch):
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
        # The labels are the census's own tuples, which the memos key on.
        labels = report["classes"][0]["labels"]
        assert all(type(v) is tuple for v in labels.values())
        assert len(out.encode("utf-8")) == 3_985_680
    if argv[0] == "iso":
        assert report["verdict"]["witness"]["auto"] is not None
    if argv[0] == "validate":
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
