"""Import-graph guards: a process imports only the modules it runs.

``repro`` and ``repro.obs`` serve their names on first access, the other
package ``__init__`` files hold docstrings only, and the experiment
registry imports the experiment modules on the first lookup.  Each check
runs in a fresh interpreter, because this test process has long since
imported most of the package.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import registry

SRC = Path(repro.__file__).resolve().parent.parent
EXPERIMENTS_DIR = SRC / "repro" / "experiments"

#: The experiment ids the paper suite and the CLI know.
EXPERIMENT_IDS = [
    "abl-cipher-rounds", "abl-pitfall", "abl-remap-rate", "abl-reveng",
    "abl-segments", "abl-stride-attack", "abl-tracker", "actdist",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig1a", "fig1c",
    "fig3", "fig4", "fig7", "fig8", "fig8mix", "fig9", "indram-escape",
    "sec48", "sec49", "sec57", "sec61", "sec62", "sec73",
    "table2", "table3", "table4", "table5",
]  # fmt: skip

#: Modules the campaign and simulator paths must never load.
OFF_THE_HOT_PATH = {
    *(f"repro.experiments.{name}" for name in registry.EXPERIMENT_MODULES),
    "repro.experiments.runner",
    "repro.dram.memory_system",
    "repro.dram.protocol",
    "repro.resilience.faults",
    "repro.workloads.attacks",
    "repro.obs.schema",
    "repro.obs.summary",
}

CAMPAIGN_MODULE_BUDGET = 55


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout.

    No ``REPRO_*`` variable reaches it.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_by(statement: str) -> set:
    """The ``repro`` modules in ``sys.modules`` after ``statement``."""
    out = _python(
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'repro']))"
    )
    return set(json.loads(out.splitlines()[-1]))


class TestImportGraph:
    def test_bare_import_loads_nothing_else(self):
        assert _loaded_by("import repro") == {"repro"}

    def test_campaign_stays_small(self):
        loaded = _loaded_by("import repro.experiments.campaign")
        assert len(loaded) <= CAMPAIGN_MODULE_BUDGET, sorted(loaded)

    @pytest.mark.parametrize("module", ["repro.experiments.campaign", "repro.perf.simulator"])
    def test_hot_path_skips_unused_subsystems(self, module):
        loaded = _loaded_by(f"import {module}")
        assert not loaded & OFF_THE_HOT_PATH
        assert not {m for m in loaded if m.startswith("repro.analysis")}


class TestSurface:
    def test_every_public_name_resolves_and_is_listed(self):
        out = _python(
            "from repro import *\n"
            "import repro, repro.obs as obs\n"
            "missing = [n for n in repro.__all__ if n not in globals()]\n"
            "missing += [n for n in obs.__all__ if not hasattr(obs, n)]\n"
            "missing += sorted(set(repro.__all__) - set(dir(repro)))\n"
            "missing += sorted(set(obs.__all__) - set(dir(obs)))\n"
            "print(missing, len(repro.__all__), repro.Simulator.__module__)"
        )
        assert out.split() == ["[]", "29", "repro.perf.simulator"]

    @pytest.mark.parametrize("package", ["repro", "repro.obs"])
    def test_unknown_attribute_raises(self, package):
        out = _python(
            f"import {package} as package\n"
            "try:\n"
            "    package.no_such_name\n"
            "except AttributeError as error:\n"
            "    print('AttributeError', 'no_such_name' in str(error))"
        )
        assert out.split() == ["AttributeError", "True"]

    def test_every_error_name_is_used(self):
        # An exception nothing raises or catches is a failure path with
        # no failure behind it: each exported name of repro.errors must
        # appear in some other module under src/repro.
        from repro import errors

        sources = [
            path.read_text()
            for path in (SRC / "repro").rglob("*.py")
            if path.name != "errors.py" or path.parent.name != "repro"
        ]
        unused = [
            name
            for name in errors.__all__
            if not any(re.search(rf"\b{name}\b", text) for text in sources)
        ]
        assert unused == []

    def test_no_module_reads_the_environment(self):
        # Settings reach the package as arguments: a variable in
        # os.environ outlives the call that set it, and code that reads
        # it later ignores an object already built.
        readers = [
            str(path.relative_to(SRC))
            for path in sorted((SRC / "repro").rglob("*.py"))
            if re.search(r"os\.environ|getenv", path.read_text())
        ]
        assert readers == []

    def test_every_private_definition_is_used(self):
        # A private function, method or class that nothing under
        # src/repro names is dead code, or an oracle that belongs in
        # tests/oracles.  A name, attribute, import or string counts as a
        # use; a docstring or other bare string statement does not.
        defined, used = {}, set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            prose = {
                id(node.value)
                for node in ast.walk(tree)
                if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            }
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if node.name.startswith("_") and not node.name.endswith("__"):
                        defined.setdefault(node.name, f"{path.relative_to(SRC)}:{node.lineno}")
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) not in prose:
                        used.update(re.findall(r"\w+", node.value))
        assert defined, "no private definitions found under src/repro"
        assert {name: where for name, where in defined.items() if name not in used} == {}


class TestRegistry:
    def test_lists_every_experiment_from_cold(self):
        out = _python(
            "from repro.experiments.registry import list_experiments\n"
            "print(' '.join(e.experiment_id for e in list_experiments()))"
        )
        assert out.split() == EXPERIMENT_IDS

    def test_unknown_id_lists_every_known_id(self):
        out = _python(
            "from repro.experiments.registry import get_experiment\n"
            "try:\n"
            "    get_experiment('fig99')\n"
            "except KeyError as error:\n"
            "    print(error.args[0])"
        )
        assert out.strip() == f"unknown experiment 'fig99'; known: {', '.join(EXPERIMENT_IDS)}"

    @pytest.mark.parametrize(
        "statements",
        [
            ["list_experiments()", "register('fig7', 'dup')(print)"],
            ["register('fig7', 'dup')(print)", "list_experiments()"],
        ],
        ids=["registry-first", "duplicate-first"],
    )
    def test_duplicate_id_rejected_in_either_order(self, statements):
        first, second = statements
        out = _python(
            "from repro.experiments.registry import list_experiments, register\n"
            f"{first}\n"
            "try:\n"
            f"    {second}\n"
            "except ValueError as error:\n"
            "    print(error)"
        )
        assert out.strip() == "duplicate experiment id 'fig7'"

    def test_module_tuple_names_every_registering_module(self):
        registering = {
            path.stem
            for path in EXPERIMENTS_DIR.glob("*.py")
            if re.search(r"^@register\(", path.read_text(), re.MULTILINE)
        }
        assert set(registry.EXPERIMENT_MODULES) == registering
        assert len(registry.EXPERIMENT_MODULES) == len(registering)
