"""The public API the demos rely on: every name they import resolves, and
the quick demos run to completion.  The functions the benchmark's tracer
reads (perfbench/spans.py) still exist."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_DEMOS = [d for d in DEMOS if d.name[:2] in ("01", "02", "03", "05")]


def matsharp_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matsharp":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(QUICK_DEMOS) == 4 and len(DEMOS) >= len(QUICK_DEMOS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = list(matsharp_imports(demo))
    assert names, f"{demo.name} imports nothing from matsharp"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.name)
def test_quick_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_traced_names_exist():
    # A function the benchmark's layer metrics read that is renamed or gone
    # would count as zero calls; the traced run refuses it, and so does this.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer in spans.LAYERS:
        importlib.import_module(f"{spans.PACKAGE}.{layer}")
    assert spans.missing_names(spans.Tracer().names) == []
