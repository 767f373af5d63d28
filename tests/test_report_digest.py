"""The digest reports of scripts/report_digest.py, byte for byte.

tests/report_digest.sha256.json maps each digest command line to the
sha256 of its exit code and stdout.  A change that alters reports on
purpose regenerates it with

    python3 scripts/report_digest.py --hashes tests/report_digest.sha256.json

and names the changed command lines in CHANGES.md; the full dump
(`scripts/report_digest.py OUT.json` in two checkouts, then `cmp`) shows
what differs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HASHES = ROOT / "tests" / "report_digest.sha256.json"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_reports_match_the_recorded_hashes(tmp_path, monkeypatch):
    script = _load_script()
    monkeypatch.chdir(ROOT)
    got = {line: script.entry_hash(e) for line, e in script.digest(tmp_path).items()}
    want = json.loads(HASHES.read_text(encoding="utf-8"))
    problems = [f"changed: {line}" for line in want if line in got and got[line] != want[line]]
    problems += [f"added: {line}" for line in got if line not in want]
    problems += [f"missing: {line}" for line in want if line not in got]
    assert not problems, "\n".join(problems)


def test_an_option_alone_prints_the_usage_and_writes_nothing(tmp_path, monkeypatch):
    script = _load_script()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONHASHSEED", "0")  # no re-execution
    for argv in (["--help"], ["-h"], ["--hash"], ["--hashes", "-o"]):
        monkeypatch.setattr(sys, "argv", ["report_digest.py", *argv])
        with pytest.raises(SystemExit) as stop:
            script.main()
        assert stop.value.code == script.__doc__.split("\n\n")[1]  # exit status 1
    assert list(tmp_path.iterdir()) == []
