"""One pass of a workload in a fresh process, as a `lab run` user gets it.

    python3 perfbench/one_pass.py --workload refute --seed 0 --out DIR [--trace] [--setup-only]

Set-up (import transtile, build the configs, make the output directory)
is timed first.  Then the reference config and the seeded config each
run once through `transtile.lab.run`, writing their CSV and JSON into
DIR.  Only the reference run is timed: the seeded run's cost depends on
its seed, and the exact searches are heavy-tailed, so timing it would
let the seed move run_s.  Prints one JSON object: set-up time, wall and
CPU time of the reference run, peak memory of the process, the SHA-256
of every output file and of its answers (the file without STATS), the
rows attempted and failed, invariant problems, and with --trace the
per-layer values of `spans.Tracer` for both runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# search statistics in the outputs, which a faster search may change;
# every other byte of a result file is an answer
STATS = ("nodes", "max_depth", "explored")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answers_json(text: str) -> str:
    """The result JSON without STATS, serialized as lab writes it."""
    body = json.loads(text)
    for record in body["records"]:
        for key in STATS:
            record["metrics"].pop(key, None)
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def answers_csv(text: str) -> str:
    """The result CSV without the STATS columns."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in STATS]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([[row[i] for i in keep] for row in rows])
    return buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from spans import Tracer
    from workloads import WORKLOADS

    started = time.perf_counter()
    sys.path.insert(0, SRC)
    from transtile import lab

    docs = WORKLOADS[args.workload].configs(args.seed)
    os.makedirs(args.out, exist_ok=True)
    configs = {
        role: lab.ExperimentConfig.from_json_dict(doc, base_dir=args.out)
        for role, doc in docs.items()
    }
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with Tracer() if args.trace else contextlib.nullcontext() as tracer:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        records = {"reference": lab.run(configs["reference"])}
        run_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        records["seeded"] = lab.run(configs["seeded"])

    files, answers, rows = {}, {}, []
    for config in configs.values():
        with open(config.out_csv, newline="") as fh:
            text = fh.read()
        name = os.path.basename(config.out_csv)
        files[name], answers[name] = _sha(text), _sha(answers_csv(text))
        with open(config.out_json) as fh:
            text = fh.read()
        name = os.path.basename(config.out_json)
        files[name], answers[name] = _sha(text), _sha(answers_json(text))
        rows += json.loads(text)["records"]
    check = WORKLOADS[args.workload].check
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "files": files,
        "answers": answers,
        "attempted": len(rows),
        "failed": sum(1 for r in rows if r["metrics"].get("failed")),
        "problems": check([r for r in rows if not r["metrics"].get("failed")]),
    }
    if tracer is not None:
        out["trace"] = tracer.values()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
