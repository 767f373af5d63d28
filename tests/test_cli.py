import itertools
import json
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import lstorus.cli as cli
from lstorus.charpair import CharacteristicPair
from lstorus.cli import main
from lstorus.documents import (
    DocumentError,
    canonical_json,
    parse_document,
    parse_pair,
    poset_to_object,
    serialize_pair,
    serialize_poset,
)
from lstorus.faceposet import FacePoset
from lstorus.fixtures import corner_poset, square_pair, square_poset
from oracles import canonical_json_reference

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_cp2(capsys):
    code, report = run_cli(capsys, "validate", str(FIXTURES / "cp2.json"))
    assert code == 0
    assert report["valid"] and report["schema"] == 1


def test_validate_all_fixture_documents(capsys):
    for path in sorted(FIXTURES.glob("*.json")):
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 0, (path, report)


def test_validate_invalid_pair_names_faces(capsys, tmp_path):
    bad = square_pair([(1, 0), (0, 1), (2, 1), (0, 1)])
    path = tmp_path / "bad.json"
    path.write_text(serialize_pair(bad), encoding="utf-8")
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 1
    named = {f for v in report["label_violations"] for f in v["faces"]}
    assert named == {"V1", "V2"}


def test_validate_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"k": 2,,}', encoding="utf-8")
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert report["error"]["type"] == "document"
    assert "line" in report["error"]


def test_validate_missing_file(capsys, tmp_path):
    code, report = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2


def test_iso_pair_vs_renamed_self(capsys, tmp_path):
    from lstorus.charpair import rename_faces
    from lstorus.fixtures import cp_pair

    cp = cp_pair(2)
    renamed = rename_faces(cp, {f: f"z{f}" for f in cp.poset.ids()})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(serialize_pair(cp), encoding="utf-8")
    b.write_text(serialize_pair(renamed), encoding="utf-8")
    code, report = run_cli(capsys, "iso", str(a), str(b), "--mode", "strong")
    assert code == 0
    assert report["verdict"]["equivalent"]
    assert report["verdict"]["witness"]["phi"]


def test_no_label_node_leaks_into_a_face_map(capsys, tmp_path):
    """The searches add one node per label; every map they hand out still
    has exactly the face ids as keys and values."""
    from lstorus.charpair import rename_faces
    from lstorus.classify import _SearchPoset, _iso_candidates, poset_automorphisms

    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        ids = doc.poset.ids()
        autos = list(itertools.islice(poset_automorphisms(doc.poset), 50))
        assert autos
        for phi in autos:
            assert sorted(phi) == sorted(phi.values()) == ids
        cp = doc.pair
        if cp is None:
            continue
        renamed = rename_faces(cp, {f: f"z{f}" for f in ids})
        renamed_ids = renamed.poset.ids()
        other = tmp_path / path.name
        other.write_text(serialize_pair(renamed), encoding="utf-8")
        for mode in ("strong", "weak"):
            maps = list(itertools.islice(_iso_candidates(
                _SearchPoset(cp.poset, cp.labels(), mode),
                _SearchPoset(renamed.poset, renamed.labels(), mode),
            ), 50))
            assert maps
            for phi in maps:
                assert sorted(phi) == ids and sorted(phi.values()) == renamed_ids
            code, report = run_cli(capsys, "iso", str(path), str(other), "--mode", mode)
            assert code == 0
            phi = report["verdict"]["witness"]["phi"]
            assert sorted(phi) == ids and sorted(phi.values()) == renamed_ids


def test_iso_distinct_hirzebruch(capsys):
    code, report = run_cli(
        capsys,
        "iso",
        str(FIXTURES / "hirzebruch0.json"),
        str(FIXTURES / "hirzebruch2.json"),
        "--mode",
        "strong",
    )
    assert code == 1
    assert not report["verdict"]["equivalent"]


def test_iso_k_mismatch_reason(capsys, tmp_path):
    tall = CharacteristicPair(
        square_poset(),
        3,
        {
            "E0": (1, 0, 0),
            "E1": (0, 1, 0),
            "E2": (1, 0, 0),
            "E3": (0, 1, 0),
        },
    )
    path = tmp_path / "tall.json"
    path.write_text(serialize_pair(tall), encoding="utf-8")
    code, report = run_cli(
        capsys, "iso", str(FIXTURES / "square_std.json"), str(path)
    )
    assert code == 1
    assert "k differs" in report["verdict"]["reason"]


def test_iso_invalid_input_exits_2(capsys, tmp_path):
    bad = square_pair([(1, 0), (0, 1), (2, 1), (0, 1)])
    path = tmp_path / "bad.json"
    path.write_text(serialize_pair(bad), encoding="utf-8")
    code, report = run_cli(
        capsys, "iso", str(path), str(FIXTURES / "square_std.json")
    )
    assert code == 2
    assert report["error"]["type"] == "invalid-input"


def test_iso_rejects_label_free_document(capsys):
    code, report = run_cli(
        capsys,
        "iso",
        str(FIXTURES / "cube2.json"),
        str(FIXTURES / "square_std.json"),
    )
    assert code == 2
    assert report["error"]["type"] == "document"


def test_canon_stable_across_renaming(capsys, tmp_path):
    from lstorus.charpair import rename_faces
    from lstorus.fixtures import hirzebruch_pair

    cp = hirzebruch_pair(1)
    renamed = rename_faces(cp, {f: f"q{f}" for f in cp.poset.ids()})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(serialize_pair(cp), encoding="utf-8")
    b.write_text(serialize_pair(renamed), encoding="utf-8")
    code_a, rep_a = run_cli(capsys, "canon", str(a), "--mode", "weak")
    code_b, rep_b = run_cli(capsys, "canon", str(b), "--mode", "weak")
    assert code_a == code_b == 0
    assert rep_a["canonical_form"] == rep_b["canonical_form"]


def test_canon_size_bound(capsys, tmp_path):
    from lstorus.fixtures import cube_poset
    from lstorus.lattice import PrimitiveVector

    poset = cube_poset(4)
    labels = {}
    for f in poset.facets():
        axis = next(i for i, part in enumerate(f.split("|")) if part != "T")
        labels[f] = PrimitiveVector(tuple(1 if j == axis else 0 for j in range(4)))
    cp = CharacteristicPair(poset, 4, labels)
    path = tmp_path / "big.json"
    path.write_text(serialize_pair(cp), encoding="utf-8")
    code, report = run_cli(capsys, "canon", str(path))
    assert code == 2
    assert report["error"]["type"] == "size"


def test_census_triangle_matches_bruteforce(capsys):
    from oracles import minor_gcd_is_summand
    from lstorus.census import primitive_vectors_in_box
    from lstorus.fixtures import triangle_poset

    code, report = run_cli(
        capsys,
        "census",
        "--poset",
        str(FIXTURES / "simplex2.json"),
        "--k",
        "2",
        "--bound",
        "1",
    )
    assert code == 0
    poset = triangle_poset()
    vocab = primitive_vectors_in_box(2, 1)
    count = 0
    for labels in itertools.product(vocab, repeat=3):
        ok = all(
            minor_gcd_is_summand(
                [labels[i] for i in range(3) if f"F{i}" in poset_star]
            )
            for poset_star in [["F0", "F1"], ["F0", "F2"], ["F1", "F2"]]
        )
        count += ok
    # The fixture simplex has facets F0, F1, F2 with vertices at all pairs.
    assert report["total_valid"] == count
    assert report["stats"]["euler_count"] == 3


def test_census_bound_zero_is_error(capsys):
    code, report = run_cli(
        capsys,
        "census",
        "--poset",
        str(FIXTURES / "simplex2.json"),
        "--k",
        "2",
        "--bound",
        "0",
    )
    assert code == 2
    assert report["error"]["type"] == "census"


def test_census_budget_exceeded(capsys):
    code, report = run_cli(
        capsys,
        "census",
        "--poset",
        str(FIXTURES / "cube2.json"),
        "--k",
        "2",
        "--bound",
        "2",
        "--budget",
        "10",
    )
    assert code == 2
    assert report["error"]["type"] == "budget"
    assert report["error"]["estimate"] == 8 ** 4


def test_census_byte_identical_across_runs_and_hash_seeds(capsys, tmp_path):
    args = [
        "census",
        "--poset",
        str(FIXTURES / "cube2.json"),
        "--k",
        "2",
        "--bound",
        "1",
        "--dedup",
        "weak",
    ]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--output", str(out1)]) == 0
    capsys.readouterr()
    assert main(args + ["--output", str(out2)]) == 0
    capsys.readouterr()
    # Fresh interpreters under two hash seeds: a report that leaned on the
    # iteration order of sets or dicts of face ids would differ between them.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "lstorus.cli", *args],
            capture_output=True,
            check=True,
            env=dict(env, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "1")
    ]
    assert out1.read_bytes() == out2.read_bytes() == fresh[0] == fresh[1]


def test_census_budget_refused_before_the_box_is_built(capsys):
    # The box of k = 6, B = 20 has 41^6 points and about 2.3e9 labels; the
    # refusal must come from counting them, not from listing them.
    start = time.perf_counter()
    code, report = run_cli(
        capsys, "census", "--poset", str(FIXTURES / "cube2.json"), "--k", "6", "--bound", "20"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report["error"]["type"] == "budget"
    assert report["error"]["estimate"] == 2329548032 ** 4


def test_census_refusal_at_a_large_bound_is_quick(capsys):
    # Counting the box must not sieve up to the bound: at B = 10^7 a full
    # sieve took seconds and a hundred megabytes before the refusal.
    start = time.perf_counter()
    code, report = run_cli(
        capsys, "census", "--poset", str(FIXTURES / "cube2.json"), "--k", "2", "--bound", "10000000"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert report["error"]["type"] == "budget"
    assert report["error"]["estimate"] == 121585425708968 ** 4


def test_census_refuses_a_box_walk_over_budget(capsys):
    # One facet: about 4.9e8 labels pass the box^facets check, but listing
    # them walks 40001^2 = 1.6e9 points of the box.
    start = time.perf_counter()
    code, report = run_cli(
        capsys, "census", "--poset", str(FIXTURES / "half_plane.json"), "--k", "2", "--bound", "20000"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert report["error"]["type"] == "budget"
    assert report["error"]["estimate"] == 40001 ** 2


def test_census_on_the_line_ignores_the_bound(capsys):
    # k = 1 has one label, (1,), whatever the bound; nothing walks [-B, B].
    argv = ["census", "--poset", str(FIXTURES / "simplex1.json"), "--k", "1"]
    code, small = run_cli(capsys, *argv, "--bound", "1")
    assert code == 0
    start = time.perf_counter()
    code, large = run_cli(capsys, *argv, "--bound", "10000000")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert large.pop("entry_bound") == 10000000
    assert small.pop("entry_bound") == 1
    assert large == small


def test_census_more_facets_than_recursion_limit(capsys, tmp_path):
    facets = [f"F{i:04d}" for i in range(1500)]
    doc = {
        "dim_orbit": 1,
        "faces": [{"id": "T", "codim": 0}] + [{"id": f, "codim": 1} for f in facets],
        "covers": [[f, "T"] for f in facets],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_cli(
        capsys, "census", "--poset", str(path), "--k", "1", "--bound", "1"
    )
    assert code == 0
    assert report["total_valid"] == 1


@pytest.mark.parametrize("dedup", ["strong", "weak"])
def test_census_dedup_on_a_wide_star_stops_at_one_automorphism(capsys, tmp_path, dedup):
    # Aut(P) is S_1500 here.  The single labeling has a class as soon as the
    # first automorphism is found, so the rest of the group is never searched.
    facets = [f"F{i:04d}" for i in range(1500)]
    doc = {
        "dim_orbit": 1,
        "faces": [{"id": "T", "codim": 0}] + [{"id": f, "codim": 1} for f in facets],
        "covers": [[f, "T"] for f in facets],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_cli(
        capsys, "census", "--poset", str(path), "--k", "1", "--bound", "1",
        "--dedup", dedup,
    )
    assert code == 0
    assert report["total_valid"] == 1
    assert report["class_count"] == 1
    assert report["classes"][0]["size"] == 1


@pytest.mark.parametrize(
    "poset, k, bound, classes",
    [(FacePoset([("P", 0)], [], 0), 1, 1, 1), (square_poset(), 1, 2, 0)],
    ids=["facet-free", "empty"],
)
@pytest.mark.parametrize("dedup", ["none", "strong", "weak"])
def test_census_edges_match_json_dumps(
    capsys, monkeypatch, tmp_path, poset, k, bound, classes, dedup
):
    """A facet-free poset has one class with no labels; the square at k = 1
    has no labeling at all."""
    path = tmp_path / "poset.json"
    path.write_text(serialize_poset(poset), encoding="utf-8")
    reports = []

    def spy(obj):
        reports.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", spy)
    argv = ["census", "--poset", str(path), "--k", str(k), "--bound", str(bound), "--dedup", dedup]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == canonical_json_reference(reports[0])
    report = json.loads(out)
    assert report["class_count"] == classes
    assert report["classes"] == [{"labels": {}, "size": 1}] * classes


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_iso_more_faces_than_recursion_limit(capsys, tmp_path, mode):
    # The search keeps an explicit stack: one level per face.
    facets = [f"F{i:04d}" for i in range(max(1500, sys.getrecursionlimit()))]
    doc = {
        "dim_orbit": 1,
        "k": 1,
        "faces": [{"id": "T", "codim": 0}] + [{"id": f, "codim": 1} for f in facets],
        "covers": [[f, "T"] for f in facets],
        "lambda": {f: [1] for f in facets},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_cli(capsys, "iso", str(path), str(path), "--mode", mode)
    assert code == 0
    assert report["verdict"]["equivalent"] is True


def test_validate_deep_chain(capsys, tmp_path):
    # A chain f{n} (codim 0) > ... > f00000 (codim n): the deepest face sorts
    # first, so the up-closure starts at the bottom of the whole chain.
    n = max(1500, sys.getrecursionlimit())
    doc = {
        "dim_orbit": n,
        "faces": [{"id": f"f{i:05d}", "codim": n - i} for i in range(n + 1)],
        "covers": [[f"f{i:05d}", f"f{i + 1:05d}"] for i in range(n)],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 1
    kinds = {v["kind"] for v in report["poset_violations"]}
    assert kinds == {"niceness"}
    assert len(report["poset_violations"]) == n - 1  # every face below codim 1


def test_each_document_poset_validated_once(capsys, monkeypatch, tmp_path):
    from lstorus.charpair import rename_faces
    from lstorus.faceposet import FacePoset
    from lstorus.fixtures import hirzebruch_pair

    counts: dict[int, int] = {}
    compute = FacePoset._compute_validity

    def counting(self):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return compute(self)

    monkeypatch.setattr(FacePoset, "_compute_validity", counting)
    cp = hirzebruch_pair(1)
    renamed = rename_faces(cp, {f: f"r{f}" for f in cp.poset.ids()})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(serialize_pair(cp), encoding="utf-8")
    b.write_text(serialize_pair(renamed), encoding="utf-8")
    code, _ = run_cli(capsys, "iso", str(a), str(b), "--mode", "weak")
    assert code == 0
    assert sorted(counts.values()) == [1, 1]
    counts.clear()
    code, _ = run_cli(capsys, "canon", str(a), "--mode", "weak")
    assert code == 0
    assert list(counts.values()) == [1]


def test_census_missing_k_is_usage_report(capsys):
    code = main(["census", "--poset", str(FIXTURES / "simplex2.json"), "--bound", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["schema"] == 1
    assert report["command"] == "census"
    assert report["error"]["type"] == "usage"
    assert "--k" in report["error"]["message"]


def test_unknown_subcommand_is_usage_report(capsys):
    code = main(["frobnicate", "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["command"] is None
    assert report["error"]["type"] == "usage"


def test_help_stays_plain_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lstorus")


def test_internal_error_is_reported(capsys, monkeypatch):
    import lstorus.cli as cli

    def boom(*args, **kwargs):
        raise ZeroDivisionError("forced")

    monkeypatch.setattr(cli, "run_local_checks", boom)
    code = main(["localcheck", "--n", "1", "--k", "2", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["command"] == "localcheck"
    assert report["error"] == {
        "type": "internal",
        "exception": "ZeroDivisionError",
        "message": "forced",
    }


def test_parser_is_shared_and_keeps_nothing_between_calls(capsys, tmp_path):
    from lstorus.cli import build_parser

    assert build_parser() is build_parser()
    cp2 = str(FIXTURES / "cp2.json")

    # Different subcommands in turn: each gets only its own options.
    parser = build_parser()
    canon = vars(parser.parse_args(["canon", cp2, "--mode", "weak"]))
    assert canon["mode"] == "weak"
    validate = vars(parser.parse_args(["validate", cp2]))
    assert set(validate) == {"command", "path", "output", "func"}
    assert parser.parse_args(["canon", cp2]).mode == "strong"

    code, weak = run_cli(capsys, "canon", cp2, "--mode", "weak")
    assert code == 0 and weak["mode"] == "weak"
    code, strong = run_cli(capsys, "canon", cp2)
    assert code == 0 and strong["mode"] == "strong"
    assert strong["canonical_form"] != weak["canonical_form"]

    # --output on one call, absent on the next: the second writes no file.
    out = tmp_path / "report.json"
    code, first = run_cli(capsys, "validate", cp2, "--output", str(out))
    assert code == 0
    code, second = run_cli(capsys, "validate", str(FIXTURES / "cp1.json"))
    assert code == 0 and second != first
    assert json.loads(out.read_text(encoding="utf-8")) == first
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    # A usage error after successful calls is still reported as one.
    code, report = run_cli(capsys, "canon")
    assert code == 2
    assert report["command"] == "canon"
    assert report["error"]["type"] == "usage"
    code, report = run_cli(capsys, "validate", cp2)
    assert code == 0 and report["valid"]

    # --help after all of that is still plain text with exit 0.
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lstorus")


def test_localcheck_passes_and_is_deterministic(capsys):
    args = [
        "localcheck",
        "--n", "1", "--k", "2", "--m", "1",
        "--samples", "40", "--seed", "11",
    ]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["checks"]["trivial_spec"]["max_discrepancy"] == 0.0


def test_localcheck_bad_dimensions(capsys):
    code, report = run_cli(
        capsys, "localcheck", "--n", "3", "--k", "2", "--m", "0"
    )
    assert code == 2
    assert report["error"]["type"] == "usage"


def test_output_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", str(FIXTURES / "cp1.json"), "--output", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout


def test_inputs_never_mutated(capsys):
    path = FIXTURES / "hirzebruch1.json"
    before = path.read_bytes()
    run_cli(capsys, "validate", str(path))
    run_cli(capsys, "canon", str(path))
    assert path.read_bytes() == before


def test_roundtrip_parse_serialize_parse():
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        doc = parse_document(text)
        if doc.pair is None:
            again = serialize_poset(doc.poset, doc.k)
            assert serialize_poset(parse_document(again).poset, doc.k) == again
        else:
            again = serialize_pair(doc.pair)
            assert serialize_pair(parse_pair(again)) == again
        assert again == text, path.name  # fixtures are canonically serialized


def test_parse_rejects_unknown_keys():
    with pytest.raises(DocumentError):
        parse_document('{"dim_orbit": 1, "faces": [], "covers": [], "x": 1}')


def test_parse_rejects_bad_lambda():
    text = json.dumps(
        {
            "k": 2,
            "dim_orbit": 2,
            "faces": [{"id": "T", "codim": 0}, {"id": "E", "codim": 1}],
            "covers": [["E", "T"]],
            "lambda": {"E": [2, 0]},
        }
    )
    with pytest.raises(DocumentError):
        parse_document(text)


def test_cli_subprocess_entry():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "lstorus.cli", "validate", str(FIXTURES / "cp2.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"]


def _corner_without(n: int, *removed: tuple[str, str]) -> dict:
    doc = poset_to_object(corner_poset(n))
    doc["covers"] = [c for c in doc["covers"] if tuple(c) not in removed]
    return doc


def test_validate_reports_do_not_depend_on_the_hash_seed(tmp_path):
    attested = json.loads(serialize_pair(square_pair([(1, 0), (0, 1), (1, 0), (0, 1)])))
    # Every attestation is malformed; the error names the first in as_dict order.
    attested["attestations"] = {
        "sections_exist": "yes", "faces_contractible": 1, "four_faces_matched": None,
    }
    docs = {
        # Interval-order violations at several faces of one interval.
        "corner3.json": _corner_without(3, ("A", "T"), ("B", "T")),
        # ABC disagrees with two faces of the interval of ABCD.
        "corner4.json": _corner_without(
            4, ("ABC", "AB"), ("A", "T"), ("B", "T"), ("C", "T")
        ),
        "attested.json": attested,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name, doc in docs.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        outputs = set()
        for seed in ("0", "1"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-m", "lstorus.cli", "validate", str(path)],
                capture_output=True,
                env=env,
            )
            assert proc.returncode in (1, 2), (name, proc.stderr)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, name
        faces = [v["faces"] for v in json.loads(proc.stdout).get("poset_violations", [])]
        assert faces == sorted(faces), name
    report = json.loads(outputs.pop())
    assert report["error"]["message"] == "attestation sections_exist must be a boolean"


# One valid command line per subcommand, each with a report to write.
_COMMANDS = {
    "validate": ["validate", str(FIXTURES / "cp1.json")],
    "iso": ["iso", str(FIXTURES / "cp1.json"), str(FIXTURES / "cp1.json")],
    "canon": ["canon", str(FIXTURES / "cp1.json")],
    "census": ["census", "--poset", str(FIXTURES / "simplex2.json"), "--k", "2", "--bound", "1"],
    "localcheck": ["localcheck", "--n", "1", "--k", "2", "--m", "1", "--samples", "5"],
}


@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_failed_output_write_prints_one_io_report(capsys, tmp_path, command, target):
    if target == "missing-directory":
        output = tmp_path / "absent" / "out.json"
    else:
        output = tmp_path / "out.json"
        output.mkdir()
    code = main(_COMMANDS[command] + ["--output", str(output)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)  # exactly one JSON document
    assert report["command"] == command
    assert report["error"]["type"] == "io"
    assert str(output) in report["error"]["message"]
    # No temp file is left beside the target.
    assert [p.name for p in tmp_path.iterdir()] == ([] if target == "missing-directory" else ["out.json"])
    assert not output.is_file()


def test_output_file_mode_follows_the_umask_and_a_replaced_file_keeps_its_mode(capsys, tmp_path):
    argv = _COMMANDS["validate"]

    def mode(path):
        return stat.S_IMODE(path.stat().st_mode)

    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o077, 0o002):
            os.umask(umask)
            plain = tmp_path / f"plain-{umask:o}.json"
            with open(plain, "w", encoding="utf-8"):
                pass
            written = tmp_path / f"written-{umask:o}.json"
            assert main(argv + ["--output", str(written)]) == 0
            assert mode(written) == mode(plain) == 0o666 & ~umask
        # A replaced file keeps its mode, whatever the umask.
        existing = tmp_path / "existing.json"
        for kept in (0o600, 0o664):
            existing.write_text("old", encoding="utf-8")
            existing.chmod(kept)
            os.umask(0o077 if kept == 0o664 else 0o002)
            assert main(argv + ["--output", str(existing)]) == 0
            assert mode(existing) == kept
            assert existing.read_text(encoding="utf-8") != "old"
    finally:
        os.umask(old)
    capsys.readouterr()


_READERS = {
    "validate": lambda path: ["validate", path],
    "iso-first": lambda path: ["iso", path, str(FIXTURES / "cp1.json")],
    "iso-second": lambda path: ["iso", str(FIXTURES / "cp1.json"), path],
    "canon": lambda path: ["canon", path],
    "census": lambda path: ["census", "--poset", path, "--k", "2", "--bound", "1"],
}


@pytest.mark.parametrize("via", ["path", "symlink"])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_output_naming_an_input_is_refused(capsys, tmp_path, reader, via):
    path = tmp_path / "input.json"
    path.write_bytes((FIXTURES / "cp1.json").read_bytes())
    output = path
    if via == "symlink":
        output = tmp_path / "link.json"
        output.symlink_to(path)
    code = main(_READERS[reader](str(path)) + ["--output", str(output)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["command"] == reader.partition("-")[0]
    assert report["error"]["type"] == "usage"
    assert path.read_bytes() == (FIXTURES / "cp1.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({path.name, output.name})


def test_output_through_a_symlink_writes_its_target(capsys, tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to("new.json")
    for output in (link, dangling):
        assert main(_COMMANDS["validate"] + ["--output", str(output)]) == 0
        stdout = capsys.readouterr().out
        assert output.is_symlink()
        assert output.read_text(encoding="utf-8") == stdout
    assert (tmp_path / "new.json").read_text(encoding="utf-8") == stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.json", "link.json", "new.json", "target.json"
    ]


def test_output_to_a_fifo_writes_it_in_place(capsys, tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, encoding="utf-8") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(_COMMANDS["validate"] + ["--output", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [capsys.readouterr().out]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


@pytest.mark.parametrize("bad", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_read_errors_have_one_type_on_every_subcommand(capsys, tmp_path, reader, bad):
    path = tmp_path / "input.json"
    if bad == "directory":
        path.mkdir()
    elif bad == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "report.json"
    code = main(_READERS[reader](str(path)) + ["--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["command"] == reader.partition("-")[0]
    assert report["error"]["type"] == ("document" if bad == "not-utf8" else "io")
    assert str(path) in report["error"]["message"]
    # The report also goes to --output, which can be written.
    assert out.read_text(encoding="utf-8") == captured.out


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_face_id_with_a_lone_surrogate_is_a_document_error(capsys, tmp_path, reader):
    # "\ud800" is valid JSON but no UTF-8 text, so no report could name the
    # face: the id is refused where the document is parsed.
    doc = {
        "k": 2,
        "dim_orbit": 1,
        "faces": [{"id": "T", "codim": 0}, {"id": "\ud800", "codim": 1}],
        "covers": [["\ud800", "T"]],
        "lambda": {"\ud800": [1, 0]},
    }
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_cli(capsys, *_READERS[reader](str(path)))
    assert code == 2
    assert report["command"] == reader.partition("-")[0]
    assert report["error"]["type"] == "document"
    assert "faces[1].id" in report["error"]["message"]


_OVERSIZED = {
    # json.loads refuses to convert an integer literal this long.
    "long-integer": lambda: json.dumps({
        "k": 1,
        "dim_orbit": 1,
        "faces": [{"id": "T", "codim": 0}, {"id": "A", "codim": 1}],
        "covers": [["A", "T"]],
        "lambda": {"A": [0]},
    }).replace("[0]", "[" + "1" * 5000 + "]"),
    # Nesting deeper than the parser's recursion limit.
    "deep-nesting": lambda: "[" * 100_000,
}


@pytest.mark.parametrize("bad", sorted(_OVERSIZED))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_oversized_json_is_a_document_error(capsys, tmp_path, reader, bad):
    path = tmp_path / "input.json"
    path.write_text(_OVERSIZED[bad](), encoding="utf-8")
    code, report = run_cli(capsys, *_READERS[reader](str(path)))
    assert code == 2
    assert report["command"] == reader.partition("-")[0]
    assert report["error"]["type"] == "document"
    assert report["error"]["message"].startswith("JSON parse error")


def _write_error_inputs(directory: Path) -> None:
    """The input files of _ERROR_CASES, written into ``directory``."""
    from lstorus.fixtures import cube_poset
    from lstorus.lattice import PrimitiveVector

    bad_labels = square_pair([(1, 0), (0, 1), (2, 1), (0, 1)])
    bad_poset = json.loads(serialize_pair(square_pair([(1, 0), (0, 1), (1, 0), (0, 1)])))
    bad_poset["covers"].remove(["V0", "E0"])
    poset = cube_poset(4)
    axes = {f: next(i for i, part in enumerate(f.split("|")) if part != "T") for f in poset.facets()}
    big = CharacteristicPair(
        poset, 4, {f: PrimitiveVector(tuple(int(j == a) for j in range(4))) for f, a in axes.items()}
    )
    files = {
        "broken.json": '{"k": 2,,}',
        "bad-labels.json": serialize_pair(bad_labels),
        "bad-poset.json": json.dumps(bad_poset),
        "bad-poset-only.json": json.dumps({k: v for k, v in bad_poset.items() if k != "lambda"}),
        "big.json": serialize_pair(big),
        "square.json": serialize_poset(square_poset()),
    }
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


_CP1 = str(FIXTURES / "cp1.json")
_CENSUS = ["census", "--poset", "square.json", "--k", "2", "--bound", "1"]
_LOCALCHECK = ["localcheck", "--n", "1", "--k", "2", "--m", "1", "--samples", "5"]

# (subcommand, error kind, command line) for every error kind that each
# subcommand can report; inputs are named relative to the input directory.
_ERROR_CASES = [
    ("validate", "document", ["validate", "broken.json"]),
    ("iso", "document", ["iso", "broken.json", _CP1]),
    ("iso", "document", ["iso", _CP1, "broken.json"]),
    ("iso", "document", ["iso", _CP1, "square.json"]),
    ("canon", "document", ["canon", "broken.json"]),
    ("census", "document", ["census", "--poset", "broken.json", "--k", "2", "--bound", "1"]),
    ("iso", "invalid-input", ["iso", "bad-poset.json", _CP1]),
    ("iso", "invalid-input", ["iso", _CP1, "bad-labels.json"]),
    ("canon", "invalid-input", ["canon", "bad-poset.json"]),
    ("canon", "invalid-input", ["canon", "bad-labels.json"]),
    ("canon", "size", ["canon", "big.json", "--mode", "weak"]),
    ("census", "census", _CENSUS[:-1] + ["0"]),
    ("census", "census", ["census", "--poset", "square.json", "--k", "0", "--bound", "1"]),
    ("census", "census", _CENSUS + ["--budget", "0"]),
    ("census", "census", ["census", "--poset", "bad-poset-only.json", "--k", "2", "--bound", "1"]),
    ("census", "budget", ["census", "--poset", "square.json", "--k", "4", "--bound", "12"]),
    ("localcheck", "usage", ["localcheck", "--n", "3", "--k", "2", "--m", "0"]),
    ("census", "usage", ["census", "--poset", "square.json", "--bound", "1"]),
    ("validate", "io", ["validate", "missing.json"]),
    ("iso", "io", ["iso", _CP1, "missing.json"]),
    ("canon", "io", ["canon", "missing.json"]),
    ("census", "io", ["census", "--poset", "missing.json", "--k", "2", "--bound", "1"]),
    ("validate", "internal", ["validate", _CP1]),
    ("localcheck", "internal", _LOCALCHECK),
]


@pytest.mark.parametrize(
    "command, kind, argv", _ERROR_CASES, ids=[f"{c}-{k}-{i}" for i, (c, k, _) in enumerate(_ERROR_CASES)]
)
def test_every_error_kind_on_every_subcommand(capsys, monkeypatch, tmp_path, command, kind, argv):
    import lstorus.cli as cli
    from lstorus.charpair import CharPairError
    from lstorus.lattice import LatticeError

    def fail(error):
        def raise_it(*args, **kwargs):
            raise error("forced")
        return raise_it

    if kind == "internal":
        # Exceptions that no subcommand expects, not only bare ones.
        monkeypatch.setattr(cli, "validate_characteristic", fail(CharPairError))
        monkeypatch.setattr(cli, "run_local_checks", fail(LatticeError))
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_error_inputs(inputs)
    monkeypatch.chdir(inputs)
    out = tmp_path / "report.json"
    code = main(argv + ["--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["schema"] == 1
    assert report["command"] == command
    assert report["error"]["type"] == kind
    assert str(tmp_path) not in captured.out
    parsed = command != "census" or "--k" in argv
    if kind == "internal" or not parsed:  # stdout only
        assert not out.exists()
    else:
        assert out.read_bytes() == captured.out.encode("utf-8")
