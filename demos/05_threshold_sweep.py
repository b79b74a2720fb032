"""Batch experiments: a keep-probability sweep for factor existence.

The lab runs a scenario over many generated instances, one after
another, on RNG streams keyed by instance index, so rerunning the same
config reproduces every output byte for byte.  Results land in CSV
and JSON plus a hand-emitted SVG chart; instances are serialized into
the records, so any row can be rebuilt and recomputed later.  This
demo writes them to a temporary directory that is removed when it exits.

The same run works from the command line:
    lab run sweep.json
    lab plot results.json --kind line --out sweep.svg
"""

import pathlib
import tempfile

from transtile import ExperimentConfig, GenSpec, Pattern, emit_plot, run

with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
    out = pathlib.Path(tmp)
    config = ExperimentConfig(
        scenario="threshold_sweep",
        gen=GenSpec(family="complete", pattern=Pattern.complete(3), n=8),
        params={"p_grid": [round(0.2 + 0.1 * i, 1) for i in range(8)], "seeds_per_p": 12,
                "cap": 12},
        seed=42,
        out_csv=str(out / "sweep.csv"),
        out_json=str(out / "sweep.json"),
    )
    print(f"config hash {config.config_hash()[:12]}, outputs under {out} (removed on exit)")

    records = run(config)
    failures = sum(r.failed for r in records)
    print(f"{len(records)} instances, {failures} failed")

    by_p: dict[float, list[bool]] = {}
    for r in records:
        by_p.setdefault(r.metrics["p"], []).append(r.metrics["exists"])
    print()
    print("keep-probability -> factor rate")
    for p, hits in sorted(by_p.items()):
        bar = "#" * round(20 * sum(hits) / len(hits))
        print(f"  {p:.1f}  {sum(hits):2d}/{len(hits)}  {bar}")

    emit_plot(records, "line", str(out / "sweep.svg"))
    emit_plot(records, "heatmap", str(out / "grid.svg"))
    print()
    print(f"wrote {out / 'sweep.csv'}")
    print(f"wrote {out / 'sweep.json'}")
    print(f"wrote {out / 'sweep.svg'} and {out / 'grid.svg'}")
