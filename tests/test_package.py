"""The package surface: what importing typel and running a command loads,
and that every public name resolves on first access."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import typel
from conftest import fixture_path

# run with python -S (no site imports) and -B (no bytecode written) in a
# fresh interpreter: each step records the typel submodules (and
# dataclasses) loaded so far
PROBE = r"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("typel.") or m == "dataclasses")

steps = {}
import typel
steps["import typel"] = loaded()
import typel.cli
steps["import typel.cli"] = loaded()
typel.cli.main(["rc-check", sys.argv[1], "T(Student and Italian) <= Young"])
steps["rc-check"] = loaded()

# every public name resolves on first access, model's too, which nothing
# has loaded yet
steps["unresolved"] = [name for name in typel.__all__ if getattr(typel, name, None) is None]
star = {}
exec("from typel import *", star)
steps["star"] = sorted(set(star) - {"__builtins__"})
steps["submodules"] = [
    getattr(typel, name).__name__ for name in ("parser", "materialize", "rc", "model")
]
steps["normalize"] = type(typel.normalize).__name__
print(json.dumps(steps))
"""


def test_commands_load_only_the_modules_they_use():
    src = str(Path(typel.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", PROBE, str(fixture_path("example1-af.kbt"))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    verdict, line = proc.stdout.splitlines()
    assert verdict == "in-closure"
    steps = json.loads(line)
    assert steps["import typel"] == []
    cli = steps["import typel.cli"]
    assert "typel.cli" in cli and not {"typel.model", "typel.rc", "dataclasses"} & set(cli)
    assert "typel.rc" in steps["rc-check"] and "typel.model" not in steps["rc-check"]
    assert steps["unresolved"] == []
    assert steps["star"] == sorted(typel.__all__)
    assert steps["submodules"] == ["typel.parser", "typel.materialize", "typel.rc", "typel.model"]
    # the package exports the normalize function under its module's name,
    # which the normalize module, once loaded, does not replace
    assert steps["normalize"] == "function"


def test_public_names_are_the_modules_own():
    assert typel.check_instance is typel.materialize.check_instance
    assert typel.refute is typel.model.refute
    assert callable(typel.normalize) and typel.normalize.__name__ == "normalize"
    assert typel.Name is typel.kb.Name
