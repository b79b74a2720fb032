"""Source hygiene checks that need nothing beyond the standard library."""

from __future__ import annotations

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    # an export left behind after its definition is deleted fails here,
    # before a `from transtile... import *` would
    name = "transtile" if path.stem == "__init__" else f"transtile.{path.stem}"
    module = importlib.import_module(name)
    stale = sorted(n for n in getattr(module, "__all__", ()) if not hasattr(module, n))
    assert not stale, f"{name}.__all__ names undefined attributes: {', '.join(stale)}"


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


def _is_params(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "params") or (
        isinstance(node, ast.Attribute) and node.attr == "params"
    )


@pytest.mark.parametrize("name", ["lab.py", "generators.py"])
def test_params_are_read_only_through_their_declarations(name):
    # scenario and family params are parsed once, at load, by their
    # declared kind, default and range; a raw read elsewhere would bring
    # back a second default or an unchecked conversion.  The raw dict is
    # read only to parse it and to keep it in the config hash and the
    # JSON forms.
    tree = ast.parse((SRC / name).read_text(), filename=name)
    raw = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.Lambda)):
            continue
        where = getattr(scope, "name", "a lambda")
        allowed = where in {"__post_init__", "config_hash", "to_json_dict"}
        for node in ast.walk(scope):
            if isinstance(node, ast.Subscript) and _is_params(node.value):
                raw.append(f"params[ on line {node.lineno}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "get" and _is_params(node.func.value):
                    raw.append(f"params.get( on line {node.lineno}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("int", "float")
                and any(_is_params(n) for arg in node.args for n in ast.walk(arg))
            ):
                raw.append(f"{node.func.id}( of a param on line {node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "params" and not allowed:
                raw.append(f".params read in {where} on line {node.lineno}")
    assert not raw, f"{name} reads raw params: {', '.join(sorted(set(raw)))}"


def test_mixed_shape_readers_name_no_shape_kind():
    # the shape geometry lives in tiling._shapes alone; these functions
    # read it from there, so none of them names a shape kind
    tree = ast.parse((SRC / "tiling.py").read_text(), filename="tiling.py")
    readers = {"_mixed_placements", "_realizations", "_validate_mixed", "nonisolated_parts"}
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in readers:
            found[node.name] = sorted(
                n.lineno
                for n in ast.walk(node)
                if isinstance(n, ast.Constant) and n.value in ("p3", "m2")
            )
    assert set(found) == readers
    named = {name: lines for name, lines in found.items() if lines}
    assert not named, f"shape kinds named outside the star table: {named}"


def test_benchmark_span_targets_resolve():
    # the benchmark's tracer wraps each TARGETS entry of perfbench/spans.py
    # by name, at its defining module: a module function, or a
    # `Class.method` in the class's own __dict__.  Deleting or renaming
    # one breaks the traced benchmark, so it fails here first
    spans = SRC.parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(), filename=str(spans))
    targets = next(
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    missing = []
    for entry in targets:
        module, attr = (ast.literal_eval(e) for e in entry.elts[1:3])
        scope = vars(importlib.import_module(module))
        *owner, name = attr.split(".")
        if owner:
            cls = scope.get(owner[0])
            scope = vars(cls) if isinstance(cls, type) else {}
            ok = name in scope
        else:
            ok = inspect.isfunction(scope.get(name)) and scope[name].__module__ == module
        if not ok:
            missing.append(f"{module}.{attr}")
    assert len(targets) >= 20
    assert not missing, f"benchmark spans name what src/transtile lacks: {', '.join(missing)}"


def test_absorbing_validates_only_in_public_entries():
    # a public entry checks its arguments and validates what it returns,
    # once; a private builder returns unchecked pieces, so a `.validate(`
    # there checks a witness its caller checks again
    tree = ast.parse((SRC / "absorbing.py").read_text(), filename="absorbing.py")
    callers = [
        (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "validate"
    ]
    assert {"find_connector", "find_absorber"} <= {name for name, _ in callers}
    private = sorted(f"{name} (line {line})" for name, line in callers if name.startswith("_"))
    assert not private, f"absorbing.py validates in private functions: {', '.join(private)}"


def test_absorbing_builders_check_no_arguments():
    # the public entry that calls a private builder has checked its
    # arguments already; a check inside the builder runs again on every
    # call (a connector search runs once per absorber part)
    builders = {
        "_fan_sets",
        "_connector_t1",
        "_connector_t2_construct",
        "_connector_t2_exhaustive",
        "_connector",
        "_factor_witness",
        "_absorb_factor",
    }
    checks = {"_connector_args", "_check_t", "part_masks", "_forbidden"}
    tree = ast.parse((SRC / "absorbing.py").read_text(), filename="absorbing.py")
    found = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert builders <= set(found)
    calls = sorted(
        f"{name} calls {node.func.id} (line {node.lineno})"
        for name in builders
        for node in ast.walk(found[name])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in checks
    )
    assert not calls, f"absorbing.py builders re-check arguments: {', '.join(calls)}"


def _named(path: Path) -> set[str]:
    """Names a file reads or looks up: every Name and Attribute, and the
    last dotted part of every string constant (spans name their targets
    by string)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value.rsplit(".", 1)[-1])
    return out


def test_every_exported_function_has_a_product_caller():
    # a product path is the library itself, the benchmark or the
    # acceptance gate; a function only demos and its own tests call is
    # code to keep correct for no output, so it is not exported
    import transtile

    root = SRC.parent.parent
    product = [p for p in MODULES if p.name != "__init__.py"]
    product += sorted((root / "perfbench").glob("*.py"))
    product.append(root / "tests" / "test_acceptance.py")
    named = {p: _named(p) for p in product}
    uncalled = []
    for name in transtile.__all__:
        fn = getattr(transtile, name)
        if not inspect.isfunction(fn):
            continue
        home = SRC / f"{fn.__module__.rsplit('.', 1)[-1]}.py"
        if not any(name in names for p, names in named.items() if p != home):
            uncalled.append(name)
    assert not uncalled, f"no product path names these exports: {', '.join(uncalled)}"


def test_failing_property_test_reports_its_example(tmp_path):
    # under filterwarnings = error, Hypothesis's failure report once raised
    # a DeprecationWarning that ended the session with INTERNALERROR, so
    # neither the falsifying example nor any later test was reported
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = str(SRC.parent.parent / "pyproject.toml")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", config, "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
    assert "Falsifying example" in proc.stdout, proc.stdout
