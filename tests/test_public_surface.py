"""The public API the demos rely on: every name they import resolves, and
the quick demos run to completion.  The functions the benchmark's tracer
reads (perfbench/spans.py) still exist.  The package holds no dead names:
no import it never uses, and no private function, class or method that
nothing in it references.  It imports, besides the standard library and
itself, exactly the dependencies that pyproject.toml declares."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_DEMOS = [d for d in DEMOS if d.name[:2] in ("01", "02", "03", "05")]
PACKAGE = ROOT / "src" / "matsharp"


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


def dead_names(sources):
    """The dead names of a package given as {module file name: source}, as
    (module, kind, name): each imported name its module never reads (the
    package's ``__init__`` re-exports, so its imports are not counted), and
    each private (one leading underscore) module-level function or class,
    or private method, that no module names besides its definition: as a
    name, an attribute or an imported name."""
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [] if module == "__init__.py" else [
            (alias.asname or alias.name).split(".")[0] for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
        dead += [(module, "import", name) for name in imports if name not in read]
        definitions = [node for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        definitions += [node for cls in definitions if isinstance(cls, ast.ClassDef)
                        for node in cls.body if isinstance(node, ast.FunctionDef)]
        dead += [(module, "definition", node.name) for node in definitions
                 if node.name.startswith("_") and not node.name.startswith("__")
                 and node.name not in referenced]
    return dead


def package_sources():
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_package_has_no_dead_names():
    assert dead_names(package_sources()) == []


@pytest.mark.parametrize("module,before,added,fault", [
    ("inequalities.py", "\n\ndef _instance_reports(",
     "\n\ndef _group_blocks(block, groups):\n    return block\n",
     ("inequalities.py", "definition", "_group_blocks")),
    ("campaign.py", "import io\n", "import heapq\n", ("campaign.py", "import", "heapq")),
    ("inequalities.py", "    def commit(self,", "    def _kept(self):\n        return self\n\n",
     ("inequalities.py", "definition", "_kept")),
])
def test_dead_names_are_found(module, before, added, fault):
    # The scan is run on the package with one dead name put in.
    sources = package_sources()
    assert sources[module].count(before) == 1
    sources[module] = sources[module].replace(before, added + before)
    assert dead_names(sources) == [fault]


def third_party_imports(sources):
    """The top-level names that a package given as {module file name:
    source} imports by absolute import, less the standard library's and
    matsharp's own."""
    names = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=module)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"matsharp"}


def declared_dependencies(pyproject):
    """The names of the ``[project] dependencies`` in a pyproject.toml's text."""
    tomllib = pytest.importorskip("tomllib")
    return {re.match(r"[\w.-]+", requirement).group().lower()
            for requirement in tomllib.loads(pyproject)["project"]["dependencies"]}


def test_every_import_is_a_declared_dependency():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert third_party_imports(package_sources()) == declared_dependencies(pyproject)


def test_dependency_scan_reads_absolute_imports_and_requirement_names():
    sources = package_sources()
    sources["campaign.py"] = "import heapq\nimport yaml.nodes\nfrom . import norms\n" + (
        sources["campaign.py"])
    assert third_party_imports(sources) == {"numpy", "orjson", "yaml"}
    assert declared_dependencies('[project]\ndependencies = ["NumPy>=1.24", "orjson"]\n') == {
        "numpy", "orjson"}
