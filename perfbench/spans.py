"""Per-layer spans and work counts for one traced pass, from outside `src/`.

`Tracer` replaces the public functions of each transtile module with
wrappers, at the defining module and at every transtile module that
imported the function by name, and puts the originals back on exit.
Per-node hot paths (`iter_transversal_copies`, `nbr_mask`, `bits`) and
private helpers are left alone.

Each wrapped call is a span.  Spans below `lab.run` are timed with the
calling thread's CPU clock, so that worker threads taking turns on the
GIL do not count each other's time; a span's self time is its duration
minus that of its child spans on the same thread.  `lab.run` is timed
with the wall clock, and its self time is its wall time minus the time
of the top-level spans it caused on any thread: pool, glue, scenario
bodies and waiting.  The self times of one pass therefore add up to the
wall time of its `lab.run` calls.

Work counts come from each function's public return value, never from
inside the program.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (span name, module, attribute, ((count name, count from result), ...))
# The attribute names a module function or a `Class.method`.
TARGETS = (
    ("core.from_edges", "transtile.core", "PartiteGraph.from_edges", ()),
    ("core.add_edges", "transtile.core", "PartiteGraph.add_edges", ()),
    ("core.induced", "transtile.core", "PartiteGraph.induced", ()),
    (
        "holes.certify_no_hole",
        "transtile.holes",
        "certify_no_hole",
        (
            ("certified", lambda res: int(res[0])),
            ("randomized", lambda res: int(res[1] != "exact")),
        ),
    ),
    (
        "holes.alpha_star_exact",
        "transtile.holes",
        "alpha_star_exact",
        (
            ("explored_r2", lambda res: res.explored if res.witness.r == 2 else 0),
            ("explored_r3", lambda res: res.explored if res.witness.r == 3 else 0),
        ),
    ),
    ("holes.alpha_star_lower_bound", "transtile.holes", "alpha_star_lower_bound", ()),
    ("holes.verify_hole", "transtile.holes", "verify_hole", ()),
    (
        "generators.hole_suppressed_process",
        "transtile.generators",
        "hole_suppressed_process",
        (
            ("checks", lambda res: res[1]["checks"]),
            ("edges_added", lambda res: res[1]["edges_added"]),
        ),
    ),
    (
        "generators.space_barrier",
        "transtile.generators",
        "space_barrier",
        (("candidates_tried", lambda res: res[2]["candidates_tried"]),),
    ),
    (
        "generators.random_spanning_subgraph",
        "transtile.generators",
        "random_spanning_subgraph",
        (),
    ),
    (
        "tiling.factor_search",
        "transtile.tiling",
        "exact_transversal_factor_search",
        (
            ("nodes", lambda res: res[1].nodes),
            ("found", lambda res: int(res[0] is not None)),
            ("max_depth", lambda res: res[1].max_depth),
        ),
    ),
    ("tiling.greedy_clique_tiling", "transtile.tiling", "greedy_clique_tiling", ()),
    (
        "absorbing.build_absorbing_set",
        "transtile.absorbing",
        "build_absorbing_set",
        (("sample_attempts", lambda res: res.provenance["sample_attempts"]),),
    ),
    (
        "absorbing.find_absorber",
        "transtile.absorbing",
        "find_absorber",
        (("found", lambda res: int(res is not None)),),
    ),
    (
        "absorbing.find_connector",
        "transtile.absorbing",
        "find_connector",
        (("found", lambda res: int(res is not None)),),
    ),
    ("absorbing.generate_template", "transtile.absorbing", "generate_template", ()),
    ("absorbing.verify_template", "transtile.absorbing", "verify_template", ()),
    (
        "absorbing.verify_absorbing_property",
        "transtile.absorbing",
        "verify_absorbing_property",
        (("checks", lambda res: res.checks),),
    ),
    ("lab.write", "transtile.lab", "write_csv", ()),
    ("lab.write", "transtile.lab", "write_json", ()),
)

# counts folded with max instead of a sum
MAX_COUNTS = frozenset({"tiling.factor_search.max_depth", "lab.workers"})


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units: dict[str, str] = {}
    for name, _mod, _attr, counts in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for key, _fn in counts:
            units[f"{name}.{key}"] = "count"
    units["lab.run.calls"] = "count"
    units["lab.run.self_s"] = "s"
    # threads that ran the instances of one lab.run: the worker count
    units["lab.workers"] = "count"
    # set by the caller: the untraced median wall time of the reference
    # lab.run, and the traced one minus it
    units["lab.run.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def is_count(metric: str) -> bool:
    """Work counts repeat exactly; times do not."""
    return not metric.endswith("_s")


class Tracer:
    """Context manager that wraps the TARGETS while it is active."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._values: dict[str, float] = {n: 0 for n in metric_units()}
        self._restore: list[tuple[object, str, object]] = []
        # top-level span time and threads inside the current lab.run
        self._covered = 0.0
        self._threads: set[int] = set()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, metric: str, value: float) -> None:
        if metric in MAX_COUNTS:
            self._values[metric] = max(self._values[metric], value)
        else:
            self._values[metric] += value

    def _span(self, name: str, counts, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [time.thread_time(), 0.0]  # start, child time
            stack.append(frame)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                stack.pop()
                dur = time.thread_time() - frame[0]
                if stack:
                    stack[-1][1] += dur
                with self._lock:
                    self._add(f"{name}.calls", 1)
                    self._add(f"{name}.self_s", dur - frame[1])
                    if not stack:
                        self._covered += dur
                        self._threads.add(threading.get_ident())
                    if ok:
                        for key, count in counts:
                            self._add(f"{name}.{key}", count(result))

        return wrapper

    def _run_span(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = threading.get_ident()
            with self._lock:
                self._covered = 0.0
                self._threads = set()
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - started
                with self._lock:
                    self._add("lab.run.calls", 1)
                    self._add("lab.run.self_s", wall - self._covered)
                    self._add("lab.workers", len(self._threads - {caller}) or 1)

        return wrapper

    def _replace(self, original, replacement) -> None:
        """Bind `replacement` wherever a transtile module binds `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "transtile":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        import transtile  # noqa: F401  (imports every module that re-exports)

        for name, mod_name, attr, counts in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                self._restore.append((cls, meth, raw))
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._span(name, counts, raw.__func__)))
                else:
                    setattr(cls, meth, self._span(name, counts, raw))
            else:
                original = getattr(mod, attr)
                self._replace(original, self._span(name, counts, original))
        lab = sys.modules["transtile.lab"]
        self._replace(lab.run, self._run_span(lab.run))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def values(self) -> dict[str, float]:
        """Calls, self seconds and work counts by metric name."""
        with self._lock:
            return dict(self._values)
