"""Import layering: ``import repro`` and its lower layers stay light.

Each check runs in a fresh interpreter, so what it sees in ``sys.modules``
is what the import under test loaded, not what earlier tests left behind.
The rules (see ``docs/architecture.md``, "Import layering and cold
start"): SciPy is imported only inside the functions that use it;
``repro`` loads its subpackages on first access; and ``repro.core``,
``repro.control`` and the layers between them never load the consensus or
emulation substrates unless a name that lives there is asked for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.consensus",
    "repro.control",
    "repro.core",
    "repro.emulation",
    "repro.envs",
    "repro.serve",
    "repro.sim",
    "repro.solvers",
]


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def loaded_after(statement: str) -> list[str]:
    return run_fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")


def test_import_repro_loads_no_scipy_and_no_subpackage():
    modules = loaded_after("import repro")
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert [m for m in modules if m.startswith("repro.")] == []


@pytest.mark.parametrize(
    "package", ["repro.serve", "repro.sim", "repro.control", "repro.core", "repro.envs",
                "repro.solvers"]
)
def test_lower_layers_leave_scipy_stats_consensus_and_emulation_unloaded(package):
    modules = set(loaded_after(f"import {package}"))
    assert package in modules
    heavy = {"scipy.stats", "scipy.optimize", "repro.consensus", "repro.emulation"}
    assert heavy & modules == set()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    missing = run_fresh(
        "import importlib, json\n"
        f"module = importlib.import_module({package!r})\n"
        "print(json.dumps([n for n in module.__all__ if getattr(module, n, None) is None]))"
    )
    assert missing == []


def test_dir_of_repro_lists_the_subpackages():
    names = set(run_fresh("import json, repro\nprint(json.dumps(dir(repro)))"))
    assert {p.split(".")[1] for p in PACKAGES[1:]} <= names


def test_star_import_of_core_leaves_consensus_and_emulation_unloaded():
    modules = loaded_after("from repro.core import *")
    assert [m for m in modules if m.startswith(("repro.consensus", "repro.emulation"))] == []


def test_lazy_names_are_the_defining_modules_objects():
    same = run_fresh(
        "import json\n"
        "from repro.control import ConsensusBackedFleet, ConsensusSafetyError\n"
        "import repro\n"
        "from repro.control import consensus_loop\n"
        "print(json.dumps([\n"
        "    ConsensusBackedFleet is consensus_loop.ConsensusBackedFleet,\n"
        "    ConsensusSafetyError is consensus_loop.ConsensusSafetyError,\n"
        "    repro.consensus is __import__('sys').modules['repro.consensus'],\n"
        "]))"
    )
    assert same == [True] * 3


def test_unknown_attribute_still_raises():
    raised = run_fresh(
        "import json, repro, repro.core, repro.control\n"
        "out = []\n"
        "for module in (repro, repro.core, repro.control):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError:\n"
        "        out.append(True)\n"
        "print(json.dumps(out))"
    )
    assert raised == [True, True, True]
