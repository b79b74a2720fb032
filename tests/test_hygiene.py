"""Source hygiene checks that need nothing beyond the standard library."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

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


def test_only_core_and_lab_read_the_cover():
    # a graph's cover is a claim that only the lab's factor decision
    # checks; the searches also decide induced root masks, where the whole
    # graph's cover proves nothing, so no other module reads `.cover`
    readers = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "cover"
        ]
        if lines:
            readers[path.name] = lines
    assert "lab.py" in readers
    strays = {name: lines for name, lines in readers.items() if name not in ("core.py", "lab.py")}
    assert not strays, f"only core.py and lab.py may read .cover: {strays}"


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
    # a one-off copy search, or a fresh `copy_enumerator`, plans the kernel
    # anew; a loop or a recursive search that asks the same parts under
    # many masks hoists one `copy_enumerator` instead
    tree = ast.parse(path.read_text(), filename=str(path))
    planners = {"iter_copies", "copy_enumerator"}
    calls = sorted(
        {
            node.lineno
            for scope in _repeated_scopes(tree)
            for node in ast.walk(scope)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in planners
        }
    )
    assert not calls, (
        f"{path.name} plans a copy search per iteration on lines {calls}; "
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


def _loaded_by(statement: str) -> list[str]:
    """Modules a fresh interpreter loads for the import `statement`;
    those it loads at start-up (site and .pth hooks) are not transtile's
    doing and are left out."""
    code = (
        f"import sys; before = set(sys.modules); {statement}; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_lab_import_loads_no_network_or_xml_stack():
    # xml.sax.saxutils drags in urllib, http, ssl and email, about 40 ms of
    # set-up per run
    out = _loaded_by("import transtile.lab")
    assert "transtile.lab" in out
    heavy = sorted(m for m in out if m.split(".")[0] in {"urllib", "http", "ssl", "email", "xml"})
    assert not heavy, f"import transtile.lab loads {', '.join(heavy)}"


def test_lab_import_compiles_no_svg_but_every_traced_module():
    # only `lab plot` draws, so emit_plot imports svg on use.  The
    # benchmark's tracer reads each module it wraps from sys.modules after
    # its caller imports `lab`, so those modules load with `lab`
    out = _loaded_by("import transtile.lab")
    assert "transtile.svg" not in out
    traced = {module for module, _ in _span_targets()}
    assert traced and not traced - set(out), sorted(traced - set(out))


def test_package_import_loads_neither_the_runner_nor_svg():
    # the library does not load its own CLI: `lab` imports the package,
    # never the reverse
    out = _loaded_by("import transtile")
    assert "transtile.core" in out
    assert not {"transtile.lab", "transtile.svg"} & set(out), out


def test_svg_escape_matches_saxutils():
    from xml.sax.saxutils import escape as sax_escape

    from transtile.svg import escape

    for text in ("", "plain", "a & b", "<tag>", "&amp;", "\"q\" 'a' & <>", "p<0.5 & s>2"):
        assert escape(text) == sax_escape(text)


# each keeps what a NamedTuple cannot carry: a custom __init__ (Pattern), a
# private field (PartiteGraph), params parsed in __post_init__ (GenSpec,
# ExperimentConfig), a base whose len() is not the field count (Tiling,
# MixedTiling) or a field left out of == (AbsorbingSet)
DATACLASSES_KEPT = {
    "core.Pattern",
    "core.PartiteGraph",
    "generators.GenSpec",
    "lab.ExperimentConfig",
    "tiling.Tiling",
    "tiling.MixedTiling",
    "absorbing.AbsorbingSet",
}


def test_plain_records_are_named_tuples():
    # a frozen dataclass execs six generated methods at import, about
    # 0.6 ms each class on every fresh interpreter; a record that only
    # stores fields is a NamedTuple instead
    found = {
        f"{name}.{cls.__name__}"
        for name in (p.stem for p in MODULES)
        for cls in vars(importlib.import_module(f"transtile.{name}")).values()
        if isinstance(cls, type)
        and cls.__module__ == f"transtile.{name}"
        and dataclasses.is_dataclass(cls)
    }
    assert found == DATACLASSES_KEPT


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


def _span_targets() -> list[tuple[str, str]]:
    """(module, attribute) of each TARGETS entry in perfbench/spans.py,
    read from its source."""
    spans = SRC.parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(), filename=str(spans))
    targets = next(
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    return [tuple(ast.literal_eval(e) for e in entry.elts[1:3]) for entry in targets]


def test_benchmark_span_targets_resolve():
    # the benchmark's tracer wraps each TARGETS entry of perfbench/spans.py
    # by name, at its defining module: a module function, or a
    # `Class.method` in the class's own __dict__.  Deleting or renaming
    # one breaks the traced benchmark, so it fails here first
    targets = _span_targets()
    missing = []
    for module, attr in targets:
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


def _named(tree: ast.AST) -> set[str]:
    """Names code reads or looks up: every Name and Attribute, and the
    last dotted part of every string constant (spans name their targets
    by string)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value.rsplit(".", 1)[-1])
    return out


def _statements(path: Path) -> list[tuple[Optional[str], set[str]]]:
    """Each top-level statement of a file, as the name it defines
    ("__all__" for the export list, None if none) and `_named` of it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for stmt in tree.body:
        one = ast.Module(body=[stmt], type_ignores=[])
        defined = "__all__" if _exported_names(one) else getattr(stmt, "name", None)
        out.append((defined, _named(one)))
    return out


def _product_files() -> list[Path]:
    """The library modules, the benchmark and the acceptance gate."""
    root = SRC.parent.parent
    product = [p for p in MODULES if p.name != "__init__.py"]
    product += sorted((root / "perfbench").glob("*.py"))
    product.append(root / "tests" / "test_acceptance.py")
    return product


def test_every_exported_function_has_a_product_caller():
    # a product path is the library itself, the benchmark or the
    # acceptance gate; a function only demos and its own tests call is
    # code to keep correct for no output, so it is not exported.  A
    # module export may be called from its own module, but an `__all__`
    # entry, its own body or an uncalled export's body is no call; a
    # package export needs a caller outside its home module
    import transtile

    modules = [p for p in MODULES if p.name != "__init__.py"]
    statements = {p: _statements(p) for p in _product_files()}

    def called(name: str, home: Path, at_home: bool, dead: set[str]) -> bool:
        return any(
            name in names
            for p, rows in statements.items()
            if at_home or p != home
            for defined, names in rows
            if defined not in ("__all__", name) and defined not in dead
        )

    exports = []
    for home in modules:
        module = importlib.import_module(f"transtile.{home.stem}")
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(getattr(module, name)):
                exports.append((home, name))
    dead: set[str] = set()
    while more := {n for h, n in exports if not called(n, h, True, dead)} - dead:
        dead |= more
    uncalled = [f"{h.stem}.{n}" for h, n in exports if n in dead]
    for name in transtile.__all__:
        fn = getattr(transtile, name)
        if inspect.isfunction(fn):
            home = SRC / f"{fn.__module__.rsplit('.', 1)[-1]}.py"
            if not called(name, home, False, dead):
                uncalled.append(name)
    assert not uncalled, f"no product path names these exports: {', '.join(uncalled)}"


# members no product path reads, kept on purpose: `lab run` loads graph
# files, and `save` writes them in the byte format the round-trip test pins
UNREAD_MEMBERS_KEPT = {"PartiteGraph.save"}


def _class_members(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Each top-level class's body items that define a name: methods,
    properties and fields."""
    return {
        cls.name: [
            item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign, ast.Assign))
        ]
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
    }


def _defined_name(item: ast.AST) -> list[str]:
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [item.name]
    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _attribute_reads(tree: ast.Module) -> list[tuple[Optional[str], str]]:
    """(reader, name) for every attribute the file reads; the reader is
    "Class.method" when the read lies in a method of a top-level class,
    else None."""
    bodies = {
        id(node): f"{cls}.{item.name}"
        for cls, items in _class_members(tree).items()
        for item in items
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(item)
    }
    return [
        (bodies.get(id(node)), node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def test_every_public_member_has_a_product_reader():
    # a public method or property that only demos and tests read is code
    # to keep correct for no output.  Names are resolved by name alone,
    # so a name two classes define (`to_json_dict`, `from_json_dict`,
    # `validate`, ...) is out of scope here.  A member's own body is no
    # read, and neither is the body of a member nothing reads
    definers: dict[str, list[str]] = {}
    members = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls, items in _class_members(tree).items():
            for item in items:
                for name in _defined_name(item):
                    definers.setdefault(name, []).append(cls)
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        members.append(f"{cls}.{item.name}")
    members = [m for m in members if len(definers[m.split(".")[1]]) == 1]
    readers: dict[str, set[Optional[str]]] = {}
    for path in _product_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for reader, name in _attribute_reads(tree):
            readers.setdefault(name, set()).add(reader)

    def read(member: str, dead: set[str]) -> bool:
        return bool(readers.get(member.split(".")[1], set()) - {member} - dead)

    assert "PartiteGraph.nbr_mask" in members
    dead: set[str] = set()
    while more := {m for m in members if not read(m, dead)} - dead:
        dead |= more
    assert UNREAD_MEMBERS_KEPT <= dead, "an allowlisted member has a reader now: drop it"
    unread = sorted(dead - UNREAD_MEMBERS_KEPT)
    assert not unread, f"no product path reads these members: {', '.join(unread)}"


def _recursive_closures(tree: ast.Module):
    """(definer, closure) for each function nested directly in another
    function that calls itself by name."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scope = list(ast.iter_child_nodes(fn))
        while scope:
            node = scope.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {
                    n.func.id
                    for n in ast.walk(node)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                }
                if node.name in calls:
                    yield fn, node
            elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
                scope.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_recursive_closures_are_unbound_in_a_finally(path):
    # a nested function that calls itself holds its own cell, a reference
    # cycle that keeps the search state it closes over alive until a full
    # GC; `del name` in a `finally` of its definer breaks the cycle
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = []
    for fn, closure in _recursive_closures(tree):
        unbound = {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Try)
            for stmt in node.finalbody
            if isinstance(stmt, ast.Delete)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        if closure.name not in unbound:
            kept.append(f"{fn.name}.{closure.name} (line {closure.lineno})")
    assert not kept, f"{path.name}: recursive closures never unbound: {', '.join(kept)}"


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
