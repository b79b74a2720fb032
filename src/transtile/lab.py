"""Batch experiment runner and its command-line surface.

A config names one scenario, one instance source, and a seed; `run`
executes the scenario over the instance list and returns one record
per instance.  Each scenario is declared once, in `SCENARIOS`: its
fixed CSV metric columns, its params (each with its kind, default and
range, parsed when the config loads) and the body that measures one
instance.
Records serialize to CSV plus a lossless JSON mirror, and `emit_plot`
renders them to SVG.  Everything derived from the same
config is byte-identical across runs: instances run one after another
in index order, each on RNG streams keyed by (seed, instance index),
and no record holds a wall-clock time.

Per-instance failures (a refused exact cap, an unsatisfiable pipeline
stage) are recorded as rows with `failed=true` and the run continues;
the CLI signals them with exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from transtile.absorbing import (
    AbsorbParams,
    build_absorbing_set,
    disjoint_absorbers,
    find_absorber,
    verify_absorbing_property,
)
from transtile.core import Param, PartiteGraph, delta_star, json_field, json_params
from transtile.generators import GenSpec, subseed
from transtile.holes import EXACT_CAP_DEFAULT, alpha_star_exact
from transtile.svg import heatmap, line_plot
from transtile.tiling import (
    check_appendix_invariants,
    cover_refutes_factor,
    exact_transversal_factor_search,
    greedy_clique_tiling,
    greedy_cycle_tiling,
    maximal_mixed_tiling,
)

ARTIFACT_VERSION = "lab-v1"
# the default size cap of every exact factor decision (see `_admit`)
FACTOR_CAP_DEFAULT = 12


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario run: instance source, scenario knobs, seed, outputs.

    The knobs stay as given in `params`, which the config hash keeps, and
    are parsed at construction into `args` by the scenario's declaration.
    """

    scenario: str
    gen: GenSpec | str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    args: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; pick from {tuple(SCENARIOS)}"
            )
        if isinstance(self.gen, str) and not os.path.exists(self.gen):
            raise ValueError(f"graph file not found: {self.gen}")
        family = "a graph file" if isinstance(self.gen, str) else self.gen.family
        if self.scenario == "threshold_sweep" and family != "complete":
            # each instance is a random spanning subgraph of the complete blow-up
            raise ValueError(f"threshold_sweep needs gen.family 'complete', got {family}")
        _, declared, _ = SCENARIOS[self.scenario]
        object.__setattr__(
            self, "args", json_params(self.params, declared, self.scenario, "params")
        )

    def gen_descriptor(self) -> dict:
        if isinstance(self.gen, str):
            return {"path": self.gen}
        return self.gen.to_json_dict()

    def config_hash(self) -> str:
        body = {
            "scenario": self.scenario,
            "gen": self.gen_descriptor(),
            "params": self.params,
            "seed": self.seed,
        }
        return hashlib.sha256(canonical_json(body).encode()).hexdigest()

    @staticmethod
    def from_json_dict(data: dict, base_dir: str = ".") -> "ExperimentConfig":
        """Load a config; any malformed field raises ValueError naming it.

        File paths in it (`gen` or `gen.path`, a `random_split` gen's
        `host_file` and the outputs) are relative to `base_dir`.
        """
        scenario = json_field(data, "scenario", str, "config")
        raw_gen = json_field(data, "gen", (str, dict), "config")
        if isinstance(raw_gen, str):
            gen: GenSpec | str = os.path.join(base_dir, raw_gen)
        elif "path" in raw_gen:
            gen = os.path.join(base_dir, json_field(raw_gen, "path", str, "config.gen"))
        else:
            gen = GenSpec.from_json_dict(raw_gen, base_dir)
        out = json_field(data, "out", dict, "config", {})
        csv_path = json_field(out, "csv", str, "config.out", None)
        json_path = json_field(out, "json", str, "config.out", None)
        return ExperimentConfig(
            scenario=scenario,
            gen=gen,
            params=dict(json_field(data, "params", dict, "config", {})),
            seed=json_field(data, "seed", int, "config", 0),
            out_csv=None if csv_path is None else os.path.join(base_dir, csv_path),
            out_json=None if json_path is None else os.path.join(base_dir, json_path),
        )


class ResultRecord(NamedTuple):
    """One instance outcome.  It holds no wall time: files must not
    depend on machine speed."""

    config_hash: str
    scenario: str
    index: int
    instance: dict
    metrics: dict

    @property
    def failed(self) -> bool:
        return bool(self.metrics.get("failed"))

    def to_json_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "scenario": self.scenario,
            "index": self.index,
            "instance": self.instance,
            "metrics": self.metrics,
            "artifact_version": ARTIFACT_VERSION,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ResultRecord":
        """Load a record; any malformed field raises ValueError naming it."""
        return ResultRecord(
            config_hash=json_field(data, "config_hash", str, "record"),
            scenario=json_field(data, "scenario", str, "record"),
            index=json_field(data, "index", int, "record"),
            instance=json_field(data, "instance", dict, "record"),
            metrics=json_field(data, "metrics", dict, "record"),
        )


# -- scenario bodies ------------------------------------------------------------


def _load_instance(desc: dict) -> tuple[PartiteGraph, Optional[tuple[int, ...]]]:
    """The instance graph and its family's cover certificate, or None."""
    if "path" in desc:
        return PartiteGraph.load(desc["path"]), None
    return GenSpec.from_json_dict(desc).build()


def _admit(G: PartiteGraph, cap: Optional[int]) -> None:
    """The size rule of every exact factor decision: refuse n above the
    cap, unless the cap is None.  It runs before any cover check, greedy
    tiling or search, so a refused instance is refused whatever would
    have answered it."""
    if cap is not None and G.n > cap:
        raise ValueError(
            f"exact mode refused: n={G.n} exceeds cap {cap}; pass a larger cap to force"
        )


def _greedy_by_pattern(G: PartiteGraph):
    if G.pattern.is_complete:
        return greedy_clique_tiling(G)
    if G.pattern.is_cycle:
        return greedy_cycle_tiling(G)
    raise ValueError("greedy tiling needs a complete or cycle pattern")


def _scn_hole_scan(G: PartiteGraph, cover, args: dict, seed: int) -> dict:
    report = alpha_star_exact(G, args["r"], cap=args["cap"])
    return {
        "r": args["r"],
        "alpha": report.alpha,
        "method": report.method,
        "explored": report.explored,
    }


def _scn_greedy_tiling(G: PartiteGraph, cover, args: dict, seed: int) -> dict:
    tiling = _greedy_by_pattern(G)
    return {"copies": len(tiling.copies), "leftover_per_part": tiling.leftover_per_part}


def _scn_factor_decision(G: PartiteGraph, cover, args: dict, seed: int) -> dict:
    _admit(G, args["cap"])
    # a cover that passes its check proves absence with no search node;
    # one that fails it is ignored, and the search decides
    if cover is not None and cover_refutes_factor(G, cover):
        return {"exists": False, "copies": 0, "nodes": 0, "max_depth": 0}
    tiling, stats = exact_transversal_factor_search(G)
    return {
        "exists": tiling is not None,
        "copies": 0 if tiling is None else len(tiling.copies),
        "nodes": stats.nodes,
        "max_depth": stats.max_depth,
    }


def _scn_absorber_census(G: PartiteGraph, cover, args: dict, seed: int) -> dict:
    target = args["target"]
    if target is None:
        target = [(p, 0) for p in range(1, G.k + 1)]
    fam = disjoint_absorbers(G, target, args["count_target"], connector_t=args["connector_t"])
    return {
        "found": len(fam),
        "requested": args["count_target"],
        "vertices_used": sum(m.bit_count() for a in fam for m in a.verts[1:]),
    }


def _scn_absorbing_pipeline(G: PartiteGraph, cover, args: dict, seed: int) -> dict:
    knobs = ("q", "tau", "beta_prime", "m", "beta_m", "connector_t")
    out = build_absorbing_set(G, AbsorbParams(seed=seed, **{key: args[key] for key in knobs}))
    verdict = verify_absorbing_property(G, out, trials=args["verify_trials"], seed=seed)
    return {
        "built": True,
        "total_size": out.total_size(),
        "per_part": out.size_per_part(),
        "verify_ok": verdict.ok,
        "verify_checks": verdict.checks,
    }


def _scn_appendix_invariants(G: PartiteGraph, cover, args: dict, seed: int) -> dict:
    tiling = maximal_mixed_tiling(G, seed=seed)
    report = check_appendix_invariants(G, tiling)
    return {
        "maximal": report.maximal,
        "vacuous": report.vacuous,
        "violations": len(report.violations),
        "copies_checked": report.copies_checked,
        "leftover_per_part": tiling.leftover_per_part,
    }


def _scn_threshold_sweep(G: PartiteGraph, cover, args: dict, seed: int) -> dict:
    # instance already carries its keep-probability; measure the
    # degree floor, the exact factor decision, and the greedy leftover.
    # A greedy tiling with no leftover is a factor, so it answers first
    _admit(G, args["cap"])
    greedy = _greedy_by_pattern(G)
    exists = greedy.leftover_per_part == 0 or exact_transversal_factor_search(G)[0] is not None
    return {
        "delta_star": delta_star(G),
        "exists": exists,
        "greedy_leftover": greedy.leftover_per_part,
    }


# name -> (fixed CSV metric columns, declared params, body); the body
# takes the instance graph, its cover certificate or None (see
# `_load_instance`), the params parsed at config load and a seed, and
# metrics it returns outside its columns stay in the JSON mirror and
# never reach the CSV
_INSTANCES = Param("instances", int, 1, low=1)
_FACTOR_CAP = Param("cap", int | None, FACTOR_CAP_DEFAULT, low=0)
SCENARIOS: dict[str, tuple[tuple[str, ...], tuple[Param, ...], Callable]] = {
    "hole_scan": (
        ("r", "alpha", "method", "explored"),
        # r <= k is checked per instance: a graph file's k is known only when it loads
        (_INSTANCES, Param("r", int, 2, low=2), Param("cap", int, EXACT_CAP_DEFAULT, low=0)),
        _scn_hole_scan,
    ),
    "greedy_tiling": (("copies", "leftover_per_part"), (_INSTANCES,), _scn_greedy_tiling),
    "factor_decision": (
        ("exists", "copies", "nodes", "max_depth"),
        (_INSTANCES, _FACTOR_CAP),
        _scn_factor_decision,
    ),
    "absorber_census": (
        ("found", "requested", "vertices_used"),
        (
            _INSTANCES,
            Param("target", list[tuple[int, int]], None),
            Param("count_target", int, 8, low=0),
            Param("connector_t", int, 1, low=1, high=2),
        ),
        _scn_absorber_census,
    ),
    "absorbing_pipeline": (
        ("built", "total_size", "per_part", "verify_ok", "verify_checks"),
        (
            _INSTANCES,
            Param("q", float, low=0, high=1),
            Param("tau", float, low=0),
            Param("beta_prime", float, low=0),
            Param("m", int, low=1),
            Param("beta_m", int, 1, low=0),
            Param("connector_t", int, 1, low=1, high=2),
            Param("verify_trials", int, 16, low=1),
        ),
        _scn_absorbing_pipeline,
    ),
    "appendix_invariants": (
        ("maximal", "vacuous", "violations", "copies_checked", "leftover_per_part"),
        (_INSTANCES,),
        _scn_appendix_invariants,
    ),
    "threshold_sweep": (
        ("p", "delta_star", "exists", "greedy_leftover"),
        (
            Param("p_grid", list[float], low=0, high=1),
            Param("seeds_per_p", int, 1, low=1),
            _FACTOR_CAP,
        ),
        _scn_threshold_sweep,
    ),
}


def _worklist(config: ExperimentConfig) -> Iterator[tuple[int, dict, dict]]:
    """(index, instance descriptor, extra metrics) triples, pre-seeded.

    A threshold sweep takes `seeds_per_p` random spanning subgraphs of
    the config's complete blow-up at each keep probability p.
    """
    args = config.args
    if config.scenario == "threshold_sweep":
        extras = [{"p": p} for p in args["p_grid"] for _ in range(args["seeds_per_p"])]
    else:
        extras = [{} for _ in range(args["instances"])]
    for index, extra in enumerate(extras):
        desc = config.gen_descriptor()
        if "path" not in desc:
            desc["seed"] = subseed(config.seed, "instance", index)
        if "p" in extra:
            desc.update(family="random_subgraph", params=dict(extra))
        yield index, desc, extra


def _check_output_dirs(config: ExperimentConfig) -> None:
    # checked when a run starts, not at load: a caller may load the
    # config first and make its output directory afterwards
    for path in (config.out_csv, config.out_json):
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"output directory not found for {path}")


def run(config: ExperimentConfig) -> list[ResultRecord]:
    """Execute the scenario; one record per instance, failures recorded.

    Raises ValueError only for configuration problems: at config load,
    or for an output path in a missing directory before any instance
    runs.  Any exception an individual instance throws, whatever its
    type, lands in that instance's metrics as a failed row.
    """
    _check_output_dirs(config)
    _, _, body = SCENARIOS[config.scenario]
    chash = config.config_hash()
    records = []
    for index, desc, extra in _worklist(config):
        try:
            G, cover = _load_instance(desc)
            metrics = {**extra, **body(G, cover, config.args, subseed(config.seed, "run", index))}
        except Exception as exc:  # per-instance boundary: record, keep running
            metrics = {**extra, "failed": True, "error": f"{type(exc).__name__}: {exc}"}
        records.append(
            ResultRecord(
                config_hash=chash,
                scenario=config.scenario,
                index=index,
                instance=desc,
                metrics=metrics,
            )
        )
    if config.out_csv:
        write_csv(records, config.out_csv)
    if config.out_json:
        write_json(records, config.out_json)
    return records


# -- serialization ---------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _scenario_of(records: Sequence[ResultRecord], use: str) -> str:
    """The one scenario all records come from; raises if there are none."""
    if not records:
        raise ValueError(f"no records to {use}")
    scenario = records[0].scenario
    if any(r.scenario != scenario for r in records):
        raise ValueError("records mix scenarios")
    return scenario


def render_csv(records: Sequence[ResultRecord]) -> str:
    columns, _, _ = SCENARIOS[_scenario_of(records, "serialize")]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["config_hash", "scenario", "index", "instance", *columns, "failed", "error"]
    )
    for r in records:
        writer.writerow(
            [
                r.config_hash,
                r.scenario,
                r.index,
                canonical_json(r.instance),
                *(_csv_cell(r.metrics.get(c)) for c in columns),
                _csv_cell(bool(r.metrics.get("failed", False))),
                _csv_cell(r.metrics.get("error", "")),
            ]
        )
    return buf.getvalue()


def write_csv(records: Sequence[ResultRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_csv(records))


def render_json(records: Sequence[ResultRecord]) -> str:
    scenario = _scenario_of(records, "serialize")
    body = {
        "artifact_version": ARTIFACT_VERSION,
        "config_hash": records[0].config_hash,
        "scenario": scenario,
        "records": [r.to_json_dict() for r in records],
    }
    return canonical_json(body) + "\n"


def write_json(records: Sequence[ResultRecord], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(render_json(records))


def load_records(path: str) -> list[ResultRecord]:
    with open(path) as fh:
        body = json.load(fh)
    return [ResultRecord.from_json_dict(d) for d in json_field(body, "records", list, "results")]


# -- plotting --------------------------------------------------------------------


def emit_plot(records: Sequence[ResultRecord], kind: str, path: str) -> str:
    """Render records to a self-contained SVG file; returns the path.

    A threshold sweep plots its factor rate per keep probability p over
    the rows that did not fail; any other scenario plots its numeric
    metric columns per instance.
    """
    scenario = _scenario_of(records, "plot")
    if kind not in ("line", "heatmap"):
        raise ValueError(f"unknown plot kind {kind!r}")
    sweep = scenario == "threshold_sweep"
    if sweep:
        by_p: dict[float, list[float]] = {}
        for r in records:
            if not r.failed:
                by_p.setdefault(float(r.metrics["p"]), []).append(
                    float(r.metrics["exists"])
                )
        cols = ["exists"] if by_p else []
    else:
        cols = [
            c
            for c in SCENARIOS[scenario][0]
            if any(isinstance(r.metrics.get(c), (bool, int, float)) for r in records)
        ]
    if not cols:
        raise ValueError("records carry no numeric metric to plot")
    if kind == "line" and sweep:
        points = [(p, sum(v) / len(v)) for p, v in sorted(by_p.items())]
        svg = line_plot(points, "keep probability p", "factor rate", scenario)
    elif kind == "line":
        col = cols[0]
        points = [
            (r.index, float(r.metrics[col]))
            for r in records
            if isinstance(r.metrics.get(col), (bool, int, float))
        ]
        svg = line_plot(points, "instance", col, scenario)
    elif sweep:
        width = max(len(v) for v in by_p.values())
        grid = [v + [0.0] * (width - len(v)) for _, v in sorted(by_p.items())]
        svg = heatmap(
            grid,
            "seed slot",
            "keep probability p",
            y_ticks=[f"{p:g}" for p in sorted(by_p)],
            title=scenario,
        )
    else:
        grid = [[float(r.metrics.get(c) or 0) for c in cols] for r in records]
        svg = heatmap(
            grid,
            "metric",
            "instance",
            x_ticks=cols,
            y_ticks=[str(r.index) for r in records],
            title=scenario,
        )
    with open(path, "w") as fh:
        fh.write(svg)
    return path


# -- CLI ------------------------------------------------------------------------


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
        config = ExperimentConfig.from_json_dict(
            data, base_dir=os.path.dirname(os.path.abspath(args.config))
        )
        _check_output_dirs(config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    records = run(config)
    failures = sum(1 for r in records if r.failed)
    print(
        f"{config.scenario}: {len(records)} instances, {failures} failed, "
        f"hash {config.config_hash()[:12]}"
    )
    for target in (config.out_csv, config.out_json):
        if target:
            print(f"wrote {target}")
    return 2 if failures else 0


def _cmd_plot(args) -> int:
    try:
        records = load_records(args.results)
        emit_plot(records, args.kind, args.out)
    except (OSError, ValueError, KeyError) as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    try:
        if args.cap < 0:
            raise ValueError(f"--cap must be >= 0, got {args.cap}")
        G = PartiteGraph.load(args.graph)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.what == "holes":
            report = alpha_star_exact(G, 2)
            print(f"holes: alpha_star_2 = {report.alpha} ({report.method})")
        elif args.what == "factor":
            _admit(G, args.cap)
            tiling, stats = exact_transversal_factor_search(G)
            verdict = "exists" if tiling is not None else "none (proof)"
            print(f"factor: {verdict}, {stats.nodes} nodes")
        else:
            target = [(p, 0) for p in range(1, G.k + 1)]
            a = find_absorber(G, target, connector_t=1)
            if a is None:
                print("absorber: none found for the lowest-index target")
            else:
                size = sum(m.bit_count() for m in a.verts[1:])
                print(f"absorber: found, {size} vertices (t={a.t})")
    except ValueError as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab", description="Batch experiments over blow-up instances."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="experiment config JSON")
    p_run.set_defaults(fn=_cmd_run)

    p_plot = sub.add_parser("plot", help="render a results file to SVG")
    p_plot.add_argument("results", help="results JSON written by `lab run`")
    p_plot.add_argument("--kind", choices=("line", "heatmap"), default="line")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(fn=_cmd_plot)

    p_verify = sub.add_parser("verify", help="one-off checks on a graph file")
    p_verify.add_argument("graph", help="graph JSON file")
    p_verify.add_argument(
        "--what", choices=("holes", "factor", "absorber"), default="factor"
    )
    p_verify.add_argument(
        "--cap",
        type=int,
        default=FACTOR_CAP_DEFAULT,
        help=f"caps n for the factor search (default {FACTOR_CAP_DEFAULT})",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
