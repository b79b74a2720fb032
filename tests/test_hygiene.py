"""Source hygiene checks that need nothing beyond the standard library."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "transtile"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds in the module, with its line number."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including inside quoted annotations."""
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            quoted.append(node.annotation)
    nodes = list(ast.walk(tree))
    for ann in quoted:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            nodes.extend(ast.walk(ast.parse(ann.value, mode="eval")))
    return {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def test_modules_found():
    assert {"core.py", "holes.py", "generators.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read_names(tree) | _exported_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_no_relabelling_outside_core(path):
    # searches take per-part masks; a relabelled copy of the graph per
    # query dominated the absorbing pipeline's run time
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "induced"
    )
    assert not calls, f"{path.name} calls .induced( on lines {calls}; pass masks instead"


def _repeated_scopes(tree: ast.Module) -> list[ast.AST]:
    """Code that runs again and again: loop bodies, while tests, recursive functions."""
    out: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            out.extend(node.body)
        elif isinstance(node, ast.While):
            out.extend([node.test, *node.body])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == node.name
            for n in ast.walk(node)
        ):
            out.append(node)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_copy_search_planned_per_iteration(path):
    # a one-off copy search plans the kernel anew; a loop or a recursive
    # search that asks the same parts under many masks hoists one
    # `copy_enumerator` instead
    tree = ast.parse(path.read_text(), filename=str(path))
    one_off = {"iter_copies", "iter_transversal_copies"}
    calls = sorted(
        {
            node.lineno
            for scope in _repeated_scopes(tree)
            for node in ast.walk(scope)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in one_off
        }
    )
    assert not calls, (
        f"{path.name} starts a one-off copy search per iteration on lines {calls}; "
        "hoist a copy_enumerator"
    )


def test_no_orphaned_private_helpers():
    # a module-level private function or class must be read by some other
    # top-level statement of the package; a recursive call alone is no use
    readers: dict[str, set[tuple[str, int]]] = {}
    defined = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for at, stmt in enumerate(tree.body):
            one = ast.Module(body=[stmt], type_ignores=[])
            attrs = {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            for name in _read_names(one) | attrs:
                readers.setdefault(name, set()).add((path.name, at))
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
            ):
                defined.append((path.name, at, stmt.name, stmt.lineno))
    orphans = sorted(
        f"{module}: {name} (line {line})"
        for module, at, name, line in defined
        if not readers.get(name, set()) - {(module, at)}
    )
    assert not orphans, f"private helpers nothing reads: {', '.join(orphans)}"


def test_lab_import_loads_no_network_or_xml_stack():
    # xml.sax.saxutils drags in urllib, http, ssl and email, about 40 ms of
    # set-up per run; modules the interpreter loads at start-up (site and
    # .pth hooks) are not transtile's doing and are left out
    code = (
        "import sys; before = set(sys.modules); import transtile.lab; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "transtile.lab" in out
    heavy = sorted(m for m in out if m.split(".")[0] in {"urllib", "http", "ssl", "email", "xml"})
    assert not heavy, f"import transtile.lab loads {', '.join(heavy)}"


def test_svg_escape_matches_saxutils():
    from xml.sax.saxutils import escape as sax_escape

    from transtile.svg import escape

    for text in ("", "plain", "a & b", "<tag>", "&amp;", "\"q\" 'a' & <>", "p<0.5 & s>2"):
        assert escape(text) == sax_escape(text)
