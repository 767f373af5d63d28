"""The names that the benchmark's per-layer tracer wraps stay in place.

``perfbench/tracer.py`` wraps, for every ``(module, attribute)`` in its
``TARGETS``, the function ``lstorus.<module>.<attribute>`` after the command
line is imported, and it looks each module up in ``sys.modules``.  A change
that drops or renames one of those names, or that stops the command line
from importing a module, would crash ``perfbench/run.py --trace 1``; this
test fails first.  It runs in a fresh interpreter, so that only what
``import lstorus.cli`` loads is loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = r"""
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import lstorus.cli  # noqa: E402,F401

problems = []
for mod_name, attr in tracer.TARGETS:
    module = sys.modules.get(f"lstorus.{mod_name}")
    if module is None:
        problems.append(f"lstorus.{mod_name} is not loaded by lstorus.cli")
        continue
    owner, _, name = attr.rpartition(".")
    if owner:
        # The tracer patches the method in the class's own namespace.
        cls = getattr(module, owner, None)
        if not callable(vars(cls).get(name) if isinstance(cls, type) else None):
            problems.append(f"{mod_name}.{attr} is not a method of the class itself")
    elif not callable(getattr(module, name, None)):
        problems.append(f"{mod_name}.{attr} does not resolve to a function")
print(json.dumps([len(tracer.TARGETS), problems]))
"""


def test_every_traced_name_resolves_after_importing_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", CHECK, str(ROOT / "perfbench" / "tracer.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    count, problems = json.loads(done.stdout)
    assert count > 0
    assert problems == []
