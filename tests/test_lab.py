"""Experiment runner: config plumbing, scenarios, serialization, plots, CLI.

The sweep golden below pins the exact bytes of a full run; any change
to instance generation, metric computation, or serialization shows up
as a hash mismatch before it can silently change published results.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transtile import generators
from transtile.core import Pattern, PartiteGraph, bits
from transtile.generators import GenSpec, complete_blowup, subseed
from transtile.lab import (
    ExperimentConfig,
    ResultRecord,
    emit_plot,
    load_records,
    main,
    render_csv,
    render_json,
    run,
)
from transtile.tiling import (
    cover_refutes_factor,
    exact_transversal_factor_search,
    find_transversal_cycle,
)

K3 = Pattern.complete(3)


def sweep_config(**overrides) -> ExperimentConfig:
    base = dict(
        scenario="threshold_sweep",
        gen=GenSpec(family="complete", pattern=K3, n=4),
        params={"p_grid": [0.4, 1.0], "seeds_per_p": 3, "cap": 12},
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- config validation -----------------------------------------------------------


def test_config_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        sweep_config(scenario="mystery_scan")


def test_config_rejects_missing_graph_file():
    with pytest.raises(ValueError, match="graph file not found"):
        ExperimentConfig(scenario="hole_scan", gen="/nonexistent/g.json")


def test_config_rejects_bad_sweep_grid():
    with pytest.raises(ValueError, match="p_grid"):
        sweep_config(params={"p_grid": [], "seeds_per_p": 3})
    with pytest.raises(ValueError, match="p_grid"):
        sweep_config(params={"p_grid": [0.5, 1.4], "seeds_per_p": 3})
    with pytest.raises(ValueError, match="seeds_per_p"):
        sweep_config(params={"p_grid": [0.5], "seeds_per_p": 0})


def test_config_rejects_bad_instance_count():
    with pytest.raises(ValueError, match="instances"):
        ExperimentConfig(
            scenario="hole_scan",
            gen=GenSpec(family="complete", pattern=K3, n=3),
            params={"instances": 0},
        )


def test_config_hash_ignores_field_order():
    data_a = {
        "scenario": "hole_scan",
        "gen": {"family": "complete", "pattern": {"kind": "complete", "k": 3}, "n": 3},
        "params": {"r": 2, "instances": 2},
        "seed": 5,
    }
    data_b = {
        "seed": 5,
        "params": {"instances": 2, "r": 2},
        "gen": {"n": 3, "pattern": {"k": 3, "kind": "complete"}, "family": "complete"},
        "scenario": "hole_scan",
    }
    a = ExperimentConfig.from_json_dict(data_a)
    b = ExperimentConfig.from_json_dict(data_b)
    assert a.config_hash() == b.config_hash()


def test_config_hash_changes_with_seed():
    assert sweep_config(seed=1).config_hash() != sweep_config(seed=2).config_hash()


# -- malformed documents ----------------------------------------------------------

GEN_DOC = {
    "family": "hole_suppressed",
    "pattern": {"kind": "complete", "k": 3},
    "n": 4,
    "seed": 1,
    "params": {"r": 2, "s": 2},
}
CONFIG_DOCS = [
    {
        "scenario": "threshold_sweep",
        "gen": {"family": "complete", "pattern": {"k": 3, "edges": [[1, 2], [2, 3]]}, "n": 4},
        "params": {"p_grid": [0.5, 1.0], "seeds_per_p": 2, "cap": 12},
        "seed": 3,
        "out": {"csv": "out.csv", "json": "out.json"},
    },
    {"scenario": "hole_scan", "gen": GEN_DOC, "params": {"r": 2, "instances": 2}},
    {"scenario": "absorbing_pipeline", "gen": {"path": "g.json"},
     "params": {"q": 0.1, "tau": 3, "beta_prime": 0.01, "m": 1}},
]
GRAPH_DOC = complete_blowup(Pattern.cycle(4), 2).to_json_dict()

# small integers only: a loader that accepts k or n builds objects of
# that size, which says nothing about the load contract
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["k", "n", "kind", "path", "p", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for t, value in enumerate(doc):
            yield from _paths(value, prefix + (t,))


@st.composite
def mutated(draw, doc):
    """`doc` with one field replaced by an arbitrary JSON value or deleted."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(json_values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _loads_or_value_error(load, doc) -> None:
    try:
        load(doc)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(*(mutated(d) for d in CONFIG_DOCS)))
def test_config_loader_raises_only_value_error(doc):
    _loads_or_value_error(ExperimentConfig.from_json_dict, doc)


@settings(max_examples=200, deadline=None)
@given(mutated(GEN_DOC))
def test_genspec_loader_raises_only_value_error(doc):
    _loads_or_value_error(GenSpec.from_json_dict, doc)


@settings(max_examples=200, deadline=None)
@given(mutated(GRAPH_DOC))
def test_graph_loader_raises_only_value_error(doc):
    _loads_or_value_error(PartiteGraph.from_json_dict, doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"scenario": "hole_scan", "gen": 5}, "config.gen"),
        ({**CONFIG_DOCS[1], "gen": {**GEN_DOC, "pattern": {"kind": "complete", "k": "3"}}},
         "pattern.k"),
        ({**CONFIG_DOCS[1], "params": {"instances": None}}, "params.instances"),
        ({**CONFIG_DOCS[0], "out": {"csv": 1}}, "config.out.csv"),
        ({**CONFIG_DOCS[1], "gen": {**GEN_DOC, "n": None}}, "gen.n"),
        ({**CONFIG_DOCS[1], "seed": 2.5}, "config.seed"),
        ({**CONFIG_DOCS[1], "scenario": "absorbing_pipeline",
          "params": {"q": 10**400, "tau": 3, "beta_prime": 0.01, "m": 1}}, "params.q"),
        ({**CONFIG_DOCS[1], "gen": {**GEN_DOC, "params": {"r": 2, "s": "2"}}}, "gen.params.s"),
    ],
)
def test_config_loader_names_the_bad_field(doc, field):
    with pytest.raises(ValueError, match=field.replace(".", r"\.")):
        ExperimentConfig.from_json_dict(doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({key: v for key, v in GRAPH_DOC.items() if key != "k"}, "graph needs field 'k'"),
        ({**GRAPH_DOC, "pattern_edges": 5}, "graph.pattern_edges"),
        ({**GRAPH_DOC, "edges": [[1, 0, 2]]}, r"graph.edges\[0\]"),
    ],
)
def test_graph_loader_names_the_bad_field(doc, field):
    with pytest.raises(ValueError, match=field):
        PartiteGraph.from_json_dict(doc)


# -- scenarios --------------------------------------------------------------------


def test_hole_scan_on_complete_blowup_records_zero_alpha():
    cfg = ExperimentConfig(
        scenario="hole_scan",
        gen=GenSpec(family="complete", pattern=K3, n=3),
        params={"r": 2, "instances": 2},
    )
    records = run(cfg)
    assert len(records) == 2
    for r in records:
        assert not r.failed
        assert r.metrics["alpha"] == 0 and r.metrics["r"] == 2


def test_factor_decision_on_space_barrier_is_absence_proof():
    cfg = ExperimentConfig(
        scenario="factor_decision",
        gen=GenSpec(family="space_barrier", pattern=Pattern.cycle(4), n=8, seed=5),
        params={"instances": 1},
    )
    (record,) = run(cfg)
    assert not record.failed
    assert record.metrics["exists"] is False and record.metrics["copies"] == 0


def test_factor_decision_refutes_space_barriers_by_their_cover():
    # the generator's U passes its check, so these rows take no search
    # node; on the n=16 barrier of instance 4 the search's own greedy
    # cover strays outside U, and the search alone runs for over 10 s
    cases = [(Pattern.cycle(4), 16, 5), (Pattern.cycle(6), 60, 1), (Pattern.cycle(8), 48, 1)]
    for pattern, n, instances in cases:
        cfg = ExperimentConfig(
            scenario="factor_decision",
            gen=GenSpec(family="space_barrier", pattern=pattern, n=n),
            params={"instances": instances, "cap": None},
            seed=1,
        )
        records = run(cfg)
        assert records[-1].instance["seed"] == subseed(1, "instance", instances - 1)
        for record in records:
            assert record.metrics == {"exists": False, "copies": 0, "nodes": 0, "max_depth": 0}


def test_factor_decision_checks_a_cover_only_under_the_cap():
    # the exact search refuses n=16 under the default cap 12, and so the
    # cover, which would answer, is not asked either
    cfg = ExperimentConfig(
        scenario="factor_decision",
        gen=GenSpec(family="space_barrier", pattern=Pattern.cycle(4), n=16),
        params={"instances": 5},
        seed=1,
    )
    records = run(cfg)
    assert records[4].instance["seed"] == subseed(1, "instance", 4)
    for record in records:
        assert record.failed and "exact mode refused" in record.metrics["error"]


def _searched(G: PartiteGraph) -> dict:
    """The factor decision's metrics on G when the search decides it."""
    tiling, stats = exact_transversal_factor_search(G)
    return {
        "exists": tiling is not None,
        "copies": 0 if tiling is None else len(tiling.copies),
        "nodes": stats.nodes,
        "max_depth": stats.max_depth,
    }


@pytest.mark.parametrize("bad", ["too large", "avoided", "on a factor"])
def test_factor_decision_ignores_a_cover_that_fails_its_check(
    monkeypatch, tmp_path, capsys, bad
):
    # a generator or a graph file whose cover fails the check gets the
    # search's answer, nodes included, so "no" is never taken on trust
    real = generators.space_barrier

    def fake(pattern, n, seed=0, **kw):
        G, U, report = real(pattern, n, seed=seed, **kw)
        if bad == "too large":
            U = (0,) + (G.full_mask,) * pattern.k
        elif bad == "avoided":
            found = find_transversal_cycle(G, [0] + [G.full_mask] * pattern.k)
            U = (0, *(m & ~(1 << v) for m, v in zip(U[1:], found.verts)))
        else:
            G = complete_blowup(pattern, n)
        return G, U, report

    monkeypatch.setattr(generators, "space_barrier", fake)
    cfg = ExperimentConfig(
        scenario="factor_decision",
        gen=GenSpec(family="space_barrier", pattern=Pattern.cycle(4), n=8),
        params={"instances": 3},
        seed=1,
    )
    for record in run(cfg):
        G = GenSpec.from_json_dict(record.instance).build()
        assert not cover_refutes_factor(G, G.cover)
        assert record.metrics == _searched(G)
        assert record.metrics["exists"] is (bad == "on a factor")

    # a C4 n=8 barrier file whose cover key is edited the same way ("on a
    # factor": the file's edges are the complete blow-up's), read by a
    # `gen` path row and by `lab verify`
    G, U, _ = fake(Pattern.cycle(4), 8, seed=5)
    data = G.to_json_dict()
    data["cover"] = [[p, i] for p in range(1, G.k + 1) for i in bits(U[p])]
    path = tmp_path / "barrier.json"
    path.write_text(json.dumps(data))
    loaded = PartiteGraph.load(path)
    assert loaded.cover == U and not cover_refutes_factor(loaded, U)
    expected = _searched(loaded)
    assert expected["exists"] is (bad == "on a factor")
    (record,) = run(ExperimentConfig(scenario="factor_decision", gen=str(path)))
    assert record.metrics == expected
    assert main(["verify", str(path), "--what", "factor"]) == 0
    verdict = "exists" if expected["exists"] else "none (proof)"
    assert capsys.readouterr().out == f"factor: {verdict}, {expected['nodes']} nodes\n"


def test_a_barrier_file_keeps_its_cover(tmp_path, capsys):
    # the C4 n=16 barrier of instance 4 (config seed 1), saved: its cover
    # answers with no search node, through `lab verify` and through a
    # `gen` path row.  Saved without it, the search alone was still
    # running after 10 s
    path = str(tmp_path / "barrier16.json")
    spec = GenSpec("space_barrier", Pattern.cycle(4), 16, seed=subseed(1, "instance", 4))
    spec.build().save(path)
    assert main(["verify", path, "--what", "factor", "--cap", "16"]) == 0
    assert capsys.readouterr().out == "factor: none (proof), 0 nodes\n"
    (record,) = run(ExperimentConfig(scenario="factor_decision", gen=path, params={"cap": None}))
    assert record.metrics == {"exists": False, "copies": 0, "nodes": 0, "max_depth": 0}
    # the cap rule still runs first
    assert main(["verify", path, "--what", "factor"]) == 2
    assert "exact mode refused: n=16 exceeds cap 12" in capsys.readouterr().err


def test_a_malformed_cover_fails_like_a_malformed_graph(tmp_path, capsys):
    # `lab verify` cannot load the file (exit 1); a `gen` path row fails
    # on its own
    data = complete_blowup(Pattern.cycle(4), 4).to_json_dict()
    data["cover"] = [[1, 0], [1, 4]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--what", "factor"]) == 1
    assert "config error: graph.cover: vertex (1, 4) is not in G" in capsys.readouterr().err
    (record,) = run(ExperimentConfig(scenario="factor_decision", gen=str(path)))
    assert record.failed and "graph.cover" in record.metrics["error"]


def test_greedy_tiling_scenario_covers_complete_blowup():
    cfg = ExperimentConfig(
        scenario="greedy_tiling",
        gen=GenSpec(family="complete", pattern=K3, n=4),
    )
    (record,) = run(cfg)
    assert record.metrics == {"copies": 4, "leftover_per_part": 0}


def test_absorber_census_scenario():
    cfg = ExperimentConfig(
        scenario="absorber_census",
        gen=GenSpec(family="complete", pattern=K3, n=12),
        params={"count_target": 2, "connector_t": 1},
    )
    (record,) = run(cfg)
    assert record.metrics == {"found": 2, "requested": 2, "vertices_used": 18}


def test_absorbing_pipeline_scenario():
    cfg = ExperimentConfig(
        scenario="absorbing_pipeline",
        gen=GenSpec(family="complete", pattern=K3, n=90),
        params={"q": 1 / 45, "tau": 3.0, "beta_prime": 0.003, "m": 1, "verify_trials": 2},
        seed=7,
    )
    (record,) = run(cfg)
    assert not record.failed
    assert record.metrics["built"] and record.metrics["verify_ok"]
    assert record.metrics["verify_checks"] == 2


def test_appendix_invariants_scenario_runs():
    cfg = ExperimentConfig(
        scenario="appendix_invariants",
        gen=GenSpec(family="complete", pattern=Pattern.cycle(4), n=4),
        params={"instances": 2},
        seed=3,
    )
    records = run(cfg)
    for r in records:
        assert not r.failed
        assert r.metrics["maximal"] is True
        assert r.metrics["leftover_per_part"] == 0 and r.metrics["vacuous"] is True


def test_instance_failures_are_recorded_not_raised():
    # n=13 exceeds the default exact cap: the row records the refusal
    cfg = ExperimentConfig(
        scenario="factor_decision",
        gen=GenSpec(family="complete", pattern=K3, n=13),
        params={"instances": 2},
    )
    records = run(cfg)
    assert all(r.failed for r in records)
    assert "exact mode refused" in records[0].metrics["error"]


def test_sweep_greedy_factor_does_not_skip_the_cap_refusal():
    # at p=1.0 the greedy tiling is a factor, but n=13 exceeds the
    # default cap, so the row is still the exact search's refusal
    cfg = sweep_config(
        gen=GenSpec(family="complete", pattern=K3, n=13),
        params={"p_grid": [1.0], "seeds_per_p": 1},
    )
    (record,) = run(cfg)
    assert record.failed and "exact mode refused" in record.metrics["error"]


def test_absorber_census_bad_target_is_a_config_error():
    # a bare int target once made every instance raise TypeError; the
    # config now refuses it at load
    with pytest.raises(ValueError, match="params.target"):
        ExperimentConfig(
            scenario="absorber_census",
            gen=GenSpec(family="complete", pattern=K3, n=6),
            params={"target": 5, "instances": 2},
        )


def test_absorber_census_target_outside_the_graph_names_the_vertex():
    cfg = ExperimentConfig(
        scenario="absorber_census",
        gen=GenSpec(family="complete", pattern=K3, n=3),
        params={"target": [[1, 7], [2, 0], [3, 0]]},
    )
    (record,) = run(cfg)
    assert record.failed
    assert record.metrics["error"].startswith("ValueError: vertex (1, 7) is not in G")


def test_failed_row_error_names_the_exception_type():
    cfg = ExperimentConfig(
        scenario="factor_decision",
        gen=GenSpec(family="complete", pattern=K3, n=13),
    )
    (record,) = run(cfg)
    assert record.metrics["error"].startswith("ValueError: exact mode refused")


@pytest.mark.parametrize("missing", ["q", "tau", "beta_prime", "m"])
def test_absorbing_pipeline_missing_param_is_a_config_error(missing):
    params = {"q": 0.2, "tau": 3, "beta_prime": 0.01, "m": 1}
    del params[missing]
    with pytest.raises(ValueError, match=f"absorbing_pipeline needs params.{missing}"):
        ExperimentConfig(
            scenario="absorbing_pipeline",
            gen=GenSpec(family="complete", pattern=K3, n=12),
            params=params,
        )


def test_hole_scan_r_above_k_is_a_failed_row():
    # r <= k needs the instance's k, so it is checked per instance
    cfg = ExperimentConfig(
        scenario="hole_scan",
        gen=GenSpec(family="complete", pattern=K3, n=4),
        params={"r": 4},
    )
    (record,) = run(cfg)
    assert record.failed and "r=4 out of range [2..3]" in record.metrics["error"]
    (row,) = csv.DictReader(io.StringIO(render_csv([record])))
    assert row["failed"] == "true" and row["error"] == record.metrics["error"]


def test_sweep_instances_are_reloadable_and_recomputable():
    records = run(sweep_config())
    from transtile.core import delta_star
    for r in records:
        G = GenSpec.from_json_dict(r.instance).build()
        assert delta_star(G) == r.metrics["delta_star"]


# -- golden sweep ------------------------------------------------------------------

GOLDEN_SWEEP_CSV_SHA = "34900334a06953a1fd3ac666c7996aed5790951de0a8967f96d916a07e789c4a"
GOLDEN_SWEEP_JSON_SHA = "510c23f0e583b4c1377a53c0333ba7fd798330c40f9b40ff18c8fa48e42e03b3"


def golden_sweep_config() -> ExperimentConfig:
    grid = [round(0.5 + 0.05 * i, 2) for i in range(11)]
    return ExperimentConfig(
        scenario="threshold_sweep",
        gen=GenSpec(family="complete", pattern=K3, n=12),
        params={"p_grid": grid, "seeds_per_p": 20, "cap": 12},
        seed=2024,
    )


def test_threshold_sweep_golden_bytes_and_trend():
    records = run(golden_sweep_config())
    assert len(records) == 220 and not any(r.failed for r in records)
    csv_text = render_csv(records)
    json_text = render_json(records)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == GOLDEN_SWEEP_CSV_SHA
    assert hashlib.sha256(json_text.encode()).hexdigest() == GOLDEN_SWEEP_JSON_SHA
    rate: dict[float, list[bool]] = {}
    for r in records:
        rate.setdefault(r.metrics["p"], []).append(r.metrics["exists"])
    rates = [sum(v) / len(v) for _, v in sorted(rate.items())]
    assert rates[0] <= rates[-1] == 1.0  # keep probability 1 always factors


def test_repeated_run_is_byte_identical():
    cfg = sweep_config()
    first = run(cfg)
    second = run(cfg)
    assert render_json(first) == render_json(second)
    assert render_csv(first) == render_csv(second)


# -- serialization ------------------------------------------------------------------


def test_csv_header_is_fixed_per_scenario():
    records = run(sweep_config())
    header = render_csv(records).splitlines()[0]
    assert header == (
        "config_hash,scenario,index,instance,p,delta_star,exists,greedy_leftover,"
        "failed,error"
    )


def test_json_mirror_round_trips(tmp_path):
    cfg = sweep_config(
        out_csv=str(tmp_path / "r.csv"), out_json=str(tmp_path / "r.json")
    )
    records = run(cfg)
    again = load_records(str(tmp_path / "r.json"))
    assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in records]
    assert (tmp_path / "r.csv").read_text().splitlines()[0].startswith("config_hash")


def test_render_rejects_empty_or_mixed():
    a = run(sweep_config())[0]
    b = run(
        ExperimentConfig(
            scenario="hole_scan", gen=GenSpec(family="complete", pattern=K3, n=3)
        )
    )[0]
    for render in (render_csv, render_json):
        with pytest.raises(ValueError, match="no records to serialize"):
            render([])
        with pytest.raises(ValueError, match="mix scenarios"):
            render([a, b])


def test_wall_time_stays_out_of_serialized_records():
    record = run(sweep_config())[0]
    assert "wall" not in json.dumps(record.to_json_dict())


# -- plots --------------------------------------------------------------------------


def test_single_record_plot_is_valid_svg(tmp_path):
    records = run(
        ExperimentConfig(
            scenario="hole_scan", gen=GenSpec(family="complete", pattern=K3, n=3)
        )
    )
    out = str(tmp_path / "one.svg")
    emit_plot(records, "line", out)
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    assert sum(1 for el in root.iter() if el.tag.endswith("circle")) == 1


# SVG bytes of the sweep above and of a hole scan whose alpha varies
GOLDEN_PLOT_SHA = {
    ("threshold_sweep", "line"): (
        "79df024441eed1475ec2d6bbecb66852d285bc3bc35ab859736e6087e269f087"
    ),
    ("threshold_sweep", "heatmap"): (
        "496e0b9802bbf2eba484328e38146e6f15ffc6cb1686a18e67502778c6a76edb"
    ),
    ("hole_scan", "line"): (
        "4cd39448e3a743ba2e57fea54bac770d081e9e4c668ba09e98bf7236b6b0518e"
    ),
    ("hole_scan", "heatmap"): (
        "087ae55536dc970b13d58063edee11aeaa6c285ca54bc975629382fbdae50fd5"
    ),
}


def golden_plot_records(scenario: str) -> list[ResultRecord]:
    if scenario == "threshold_sweep":
        return run(sweep_config())
    return run(
        ExperimentConfig(
            scenario="hole_scan",
            gen=GenSpec(family="random_subgraph", pattern=K3, n=5, params={"p": 0.5}),
            params={"instances": 4},
            seed=2,
        )
    )


def test_hole_scan_golden_records():
    # the heatmap plots every metric column; its bytes follow `explored`,
    # the r=2 branch nodes, while r, alpha and method stay fixed
    metrics = [r.metrics for r in golden_plot_records("hole_scan")]
    assert [(m["r"], m["alpha"], m["method"]) for m in metrics] == [
        (2, 3, "exact"),
        (2, 2, "exact"),
        (2, 2, "exact"),
        (2, 2, "exact"),
    ]
    assert [m["explored"] for m in metrics] == [14, 9, 9, 12]


def test_sweep_line_plot_golden(tmp_path):
    out = tmp_path / "sweep.svg"
    emit_plot(golden_plot_records("threshold_sweep"), "line", str(out))
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_PLOT_SHA[("threshold_sweep", "line")]
    ET.parse(out)


@pytest.mark.parametrize(
    "scenario,kind",
    [("threshold_sweep", "heatmap"), ("hole_scan", "line"), ("hole_scan", "heatmap")],
)
def test_plot_golden_bytes(tmp_path, scenario, kind):
    out = tmp_path / "plot.svg"
    emit_plot(golden_plot_records(scenario), kind, str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PLOT_SHA[(scenario, kind)]


def test_heatmap_plot_renders(tmp_path):
    records = run(sweep_config())
    out = str(tmp_path / "hm.svg")
    emit_plot(records, "heatmap", out)
    root = ET.parse(out).getroot()
    assert sum(1 for el in root.iter() if el.tag.endswith("rect")) >= 6


def test_plot_rejects_empty_and_mixed_and_unknown(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        emit_plot([], "line", str(tmp_path / "x.svg"))
    records = run(sweep_config())
    other = ResultRecord(
        config_hash="x", scenario="hole_scan", index=0, instance={}, metrics={}
    )
    with pytest.raises(ValueError, match="mix scenarios"):
        emit_plot([records[0], other], "line", str(tmp_path / "x.svg"))
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plot(records, "pie", str(tmp_path / "x.svg"))


# -- CLI ----------------------------------------------------------------------------


def write_config(tmp_path, name="cfg.json", **kw) -> str:
    data = {
        "scenario": "threshold_sweep",
        "gen": {
            "family": "complete",
            "pattern": {"kind": "complete", "k": 3},
            "n": 4,
        },
        "params": {"p_grid": [0.5, 1.0], "seeds_per_p": 2, "cap": 12},
        "seed": 3,
        "out": {"csv": "out.csv", "json": "out.json"},
    }
    data.update(kw)
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def test_cli_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", path]) == 0
    assert (tmp_path / "out.csv").exists() and (tmp_path / "out.json").exists()
    assert "0 failed" in capsys.readouterr().out


def test_cli_run_exit_two_on_partial_failures(tmp_path):
    path = write_config(
        tmp_path,
        scenario="factor_decision",
        gen={"family": "complete", "pattern": {"kind": "complete", "k": 3}, "n": 13},
        params={"instances": 1},
    )
    assert main(["run", path]) == 2


def test_cli_run_exit_one_on_config_error(tmp_path, capsys):
    path = write_config(tmp_path, scenario="mystery")
    assert main(["run", path]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["csv", "json"])
def test_cli_run_exit_one_on_missing_output_directory(tmp_path, capsys, key):
    out = {"csv": "out.csv", "json": "out.json", key: f"missing/out.{key}"}
    path = write_config(tmp_path, out=out)
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert f"config error: output directory not found for {tmp_path / 'missing'}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out.json").exists()
    config = sweep_config(**{f"out_{key}": str(tmp_path / "missing" / f"out.{key}")})
    with pytest.raises(ValueError, match="output directory not found"):
        run(config)


@pytest.mark.parametrize(
    "gen",
    [
        5,
        {"family": "complete", "pattern": {"kind": "complete", "k": "3"}, "n": 4},
        # family params are typed at load: these once gave failed rows
        {"family": "random_subgraph", "pattern": {"kind": "complete", "k": 3}, "n": 4,
         "params": {"p": "x"}},
        {"family": "random_subgraph", "pattern": {"kind": "complete", "k": 3}, "n": 4,
         "params": {"p": 1.5}},
    ],
)
def test_cli_run_exit_one_on_malformed_gen(tmp_path, capsys, gen):
    path = write_config(tmp_path, scenario="hole_scan", gen=gen, params={})
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "config error: " in err
    if isinstance(gen, dict) and "params" in gen:
        assert "gen.params.p" in err


@pytest.mark.parametrize(
    "gen,field",
    [
        ({"family": "hole_suppressed", "pattern": {"kind": "complete", "k": 3}, "n": 4,
          "params": {"r": 2, "s": 9}}, "gen.params.s"),
        ({"family": "hole_suppressed", "pattern": {"kind": "complete", "k": 3}, "n": 4,
          "params": {"r": 4, "s": 2}}, "gen.params.r"),
        ({"family": "space_barrier", "pattern": {"kind": "cycle", "k": 4}, "n": 6}, "gen.n"),
        ({"family": "space_barrier", "pattern": {"kind": "complete", "k": 4}, "n": 8},
         "gen.pattern"),
    ],
)
def test_cli_run_exit_one_on_gen_params_that_misfit_the_spec(tmp_path, capsys, gen, field):
    # params that depend on the spec's own n or pattern are checked at
    # load: these once loaded and failed every row
    path = write_config(tmp_path, scenario="greedy_tiling", gen=gen, params={"instances": 2})
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert "config error: " in captured.err and field in captured.err
    assert captured.out == ""


def test_cli_run_reads_host_file_beside_the_config(tmp_path, monkeypatch):
    # a random_split host edge file is relative to the config, as gen.path
    # is, so the run does not depend on the working directory
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cfg" / "edges.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
    gen = {"family": "random_split", "pattern": {"kind": "complete", "k": 2}, "n": 2,
           "params": {"host_file": "edges.txt"}}
    write_config(tmp_path / "cfg", name="c.json", scenario="greedy_tiling", gen=gen,
                 params={"instances": 2})
    monkeypatch.chdir(tmp_path)
    assert main(["run", "cfg/c.json"]) == 0
    rows = load_records(str(tmp_path / "cfg" / "out.json"))
    assert [r.failed for r in rows] == [False, False]
    assert rows[0].instance["params"]["host_file"] == str(tmp_path / "cfg" / "edges.txt")


def test_cli_run_exit_one_on_missing_pipeline_param(tmp_path, capsys):
    path = write_config(
        tmp_path,
        scenario="absorbing_pipeline",
        params={"tau": 3, "beta_prime": 0.01, "m": 1},
    )
    assert main(["run", path]) == 1
    assert "absorbing_pipeline needs params.q" in capsys.readouterr().err


PIPELINE = {"q": 0.1, "tau": 3, "beta_prime": 0.01, "m": 1}
SWEEP = {"p_grid": [0.5, 1.0], "seeds_per_p": 2, "cap": 12}
# a wrong JSON type for every declared param of every scenario and, for
# integers, a non-integral number; each once ran (a string of digits or a
# truncated number was read as a number) or gave failed rows
BAD_PARAMS = [
    *(
        (scenario, base, {"instances": bad})
        for scenario, base in [
            ("hole_scan", {}),
            ("greedy_tiling", {}),
            ("factor_decision", {}),
            ("absorber_census", {}),
            ("absorbing_pipeline", PIPELINE),
            ("appendix_invariants", {}),
        ]
        for bad in ("2", 2.5)
    ),
    ("hole_scan", {}, {"r": "3"}),
    ("hole_scan", {}, {"r": 2.7}),
    ("hole_scan", {}, {"r": 2.0}),
    ("hole_scan", {}, {"cap": "12"}),
    ("hole_scan", {}, {"cap": 3.9}),
    ("factor_decision", {}, {"cap": "x"}),
    ("factor_decision", {}, {"cap": 3.9}),
    ("absorber_census", {}, {"target": [["1", "0"], [2, 0], [3, 0]]}),
    ("absorber_census", {}, {"target": [[1, 0.5], [2, 0], [3, 0]]}),
    ("absorber_census", {}, {"count_target": "2"}),
    ("absorber_census", {}, {"count_target": 2.5}),
    ("absorber_census", {}, {"connector_t": "1"}),
    ("absorber_census", {}, {"connector_t": 1.5}),
    *(
        ("absorbing_pipeline", PIPELINE, {key: bad})
        for key, bads in [
            ("q", ("a", "0.1")),
            ("tau", ("3",)),
            ("beta_prime", ("0.01",)),
            ("m", ("1", 1.5)),
            ("beta_m", ("1", 1.5)),
            ("connector_t", ("1", 1.5)),
            ("verify_trials", ("2", 2.5)),
        ]
        for bad in bads
    ),
    ("threshold_sweep", SWEEP, {"p_grid": ["0.5", 1.0]}),
    ("threshold_sweep", SWEEP, {"seeds_per_p": "2"}),
    ("threshold_sweep", SWEEP, {"seeds_per_p": 2.9}),
    ("threshold_sweep", SWEEP, {"cap": "12"}),
    ("threshold_sweep", SWEEP, {"cap": 3.9}),
    # out of the declared range: these once loaded, and verify_trials 0
    # wrote verify_ok true after no check at all
    *(
        ("absorbing_pipeline", PIPELINE, {key: bad})
        for key, bad in [
            ("m", 0), ("beta_m", -1), ("connector_t", 0), ("connector_t", 3),
            ("verify_trials", 0),
        ]
    ),
    # these once loaded too: q 1.5 failed every row at stage select-yz,
    # and a negative beta_prime ran as no fan requirement at all
    *(
        ("absorbing_pipeline", PIPELINE, {key: bad})
        for key, bad in [("q", 1.5), ("q", -0.1), ("tau", -1), ("beta_prime", -0.01)]
    ),
    # a negative cap once loaded and refused every row
    ("hole_scan", {}, {"cap": -1}),
    ("factor_decision", {}, {"cap": -1}),
    ("threshold_sweep", SWEEP, {"cap": -1}),
]


def test_bad_param_cases_cover_every_declared_param():
    from transtile.lab import SCENARIOS

    covered = {(scenario, key) for scenario, _, bad in BAD_PARAMS for key in bad}
    declared = {(name, p.key) for name, (_, params, _) in SCENARIOS.items() for p in params}
    assert covered == declared


@pytest.mark.parametrize(
    "scenario, params, field",
    [
        ("hole_scan", {"r": None}, "params.r"),
        ("hole_scan", {"r": 1}, "params.r"),
        ("hole_scan", {"cap": "big"}, "params.cap"),
        ("absorber_census", {"target": 5}, "params.target"),
        ("absorber_census", {"target": [[1, 0], [2]]}, "params.target"),
        ("absorber_census", {"target": [[1, 0], [2, None]]}, "params.target"),
        ("absorber_census", {"count_target": None}, "params.count_target"),
        ("absorber_census", {"count_target": -1}, "params.count_target"),
        ("absorber_census", {"connector_t": "x"}, "params.connector_t"),
        ("absorber_census", {"connector_t": 3}, "params.connector_t"),
        *(
            (scenario, {**base, **bad}, f"params.{next(iter(bad))}")
            for scenario, base, bad in BAD_PARAMS
        ),
    ],
)
def test_cli_run_exit_one_on_bad_scenario_param(tmp_path, capsys, scenario, params, field):
    # checked at load: these once ran, or gave a run whose every row failed
    path = write_config(tmp_path, scenario=scenario, params=params)
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert "config error: " in captured.err and field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "gen",
    [
        {"family": "space_barrier", "pattern": {"kind": "cycle", "k": 4}, "n": 8},
        {"family": "random_subgraph", "pattern": {"kind": "complete", "k": 3}, "n": 4,
         "params": {"p": 0.5}},
        "g.json",
    ],
)
def test_cli_threshold_sweep_needs_a_complete_gen(tmp_path, capsys, gen):
    # each sweep instance is a random subgraph of the complete blow-up;
    # a sweep over a space barrier once reported factors at p=1.0
    with open(tmp_path / "g.json", "w") as fh:
        json.dump(complete_blowup(K3, 4).to_json_dict(), fh)
    path = write_config(tmp_path, gen=gen)
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert "config error: threshold_sweep needs gen.family 'complete'" in captured.err
    assert captured.out == ""


def test_cli_plot_and_verify(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", cfg]) == 0
    results = str(tmp_path / "out.json")
    svg = str(tmp_path / "plot.svg")
    assert main(["plot", results, "--kind", "line", "--out", svg]) == 0
    ET.parse(svg)

    graph_path = str(tmp_path / "g.json")
    with open(graph_path, "w") as fh:
        json.dump(complete_blowup(K3, 3).to_json_dict(), fh)
    # an absorber occupies three extra vertices per part, so n=3 is too tight
    wide_path = str(tmp_path / "g6.json")
    with open(wide_path, "w") as fh:
        json.dump(complete_blowup(K3, 6).to_json_dict(), fh)
    assert main(["verify", graph_path, "--what", "factor"]) == 0
    assert main(["verify", graph_path, "--what", "holes"]) == 0
    assert main(["verify", wide_path, "--what", "absorber"]) == 0
    out = capsys.readouterr().out
    assert "factor: exists" in out and "alpha_star_2 = 0" in out
    assert "absorber: found" in out


def test_cli_verify_holes_ignores_the_factor_cap(tmp_path, capsys):
    # --cap caps the factor search; the r=2 hole search has no cap
    G = complete_blowup(K3, 14).delete_edges(
        [(1, a, 2, b) for a in (0, 5, 13) for b in (2, 7, 9)]
    )
    graph_path = str(tmp_path / "g14.json")
    with open(graph_path, "w") as fh:
        json.dump(G.to_json_dict(), fh)
    assert main(["verify", graph_path, "--what", "holes"]) == 0
    assert "holes: alpha_star_2 = 3 (exact)" in capsys.readouterr().out
    assert main(["verify", graph_path, "--what", "factor"]) == 2
    assert "exact mode refused: n=14 exceeds cap 12" in capsys.readouterr().err


def test_cli_verify_negative_cap_is_a_config_error(tmp_path, capsys):
    # exit 2 means the search refused the instance; a negative cap is a
    # bad argument, whatever the graph
    graph_path = str(tmp_path / "g.json")
    with open(graph_path, "w") as fh:
        json.dump(complete_blowup(K3, 4).to_json_dict(), fh)
    for what in ("factor", "holes"):
        assert main(["verify", graph_path, "--what", what, "--cap", "-1"]) == 1
        assert "config error: --cap must be >= 0, got -1" in capsys.readouterr().err
    assert main(["verify", graph_path, "--cap", "0"]) == 2
    assert "exact mode refused: n=4 exceeds cap 0" in capsys.readouterr().err


def test_cli_plot_error_exits_one(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "missing.json"), "--out", "x.svg"]) == 1
    assert "plot error" in capsys.readouterr().err
    # results files of the wrong shape
    for name, body in (("list.json", "[1,2]"), ("ints.json", '{"records": [5]}')):
        (tmp_path / name).write_text(body)
        assert main(["plot", str(tmp_path / name), "--out", str(tmp_path / "x.svg")]) == 1
        assert "plot error" in capsys.readouterr().err
    # well-formed records that cannot be plotted: the message names the
    # metric or the scenario
    cases = [
        ("threshold_sweep", [{"p": [1], "exists": 1}], "line", "metric 'p'"),
        ("factor_decision", [{"nodes": 3}, {"nodes": [3]}], "heatmap", "metric 'nodes'"),
        ("nope", [{"p": 0.5}], "line", "unknown scenario 'nope'"),
    ]
    for scenario, metrics, kind, named in cases:
        rows = [
            {"config_hash": "h", "scenario": scenario, "index": t, "instance": {}, "metrics": m}
            for t, m in enumerate(metrics)
        ]
        (tmp_path / "r.json").write_text(json.dumps({"records": rows}))
        out = ["--kind", kind, "--out", str(tmp_path / "x.svg")]
        assert main(["plot", str(tmp_path / "r.json"), *out]) == 1, scenario
        err = capsys.readouterr().err
        assert err.startswith("plot error: ") and named in err, err
    assert not (tmp_path / "x.svg").exists()
