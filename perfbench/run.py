"""transtile benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload refute --seed 0 --seconds 15 --trace 0

Runs passes of the workload (see workloads.py), each in a fresh
process (one_pass.py), until --seconds have passed, at least one pass.
With --trace 0 it reports the end-to-end metrics:

  setup_s      median set-up time (import transtile, build the configs,
               make the output directory) over the passes and extra
               set-up-only processes, at least SETUP_SAMPLES of them
  cpu_s        median process CPU seconds of the reference config's
               lab.run
  peak_rss_mb  median peak resident memory of a pass process

It also prints run_s, the median wall seconds of the same lab.run, but
leaves it out of the result: on a shared virtual machine, time stolen by
the host and the pool's GIL hand-offs moved it by up to a third between
runs of the same inputs, more than any bound BENCHMARK.json may set.
Traced runs report it as lab.run.wall_s.

With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of spans.py: calls, self seconds and work counts per
wrapped function, plus lab.run.wall_s, the untraced median run_s, and
trace.overhead_s, the traced minus the untraced median run_s.

lab.run uses its default worker count: LAB_THREADS is removed from the
environment of every pass.  Output files go under .perfbench_out/ in the
checkout and are deleted at the end.

Correctness: every pass must meet the workload's invariants and fail no
row; all passes of a run must write identical bytes; the answers in the
reference config's CSV and JSON (the files without the search statistics
one_pass.STATS, which a faster search may change) must match the digests
in baseline.json on every run, and the seeded config's must too at the
default seed; traced passes must repeat their work counts exactly.  On
a mismatch the result says "correct": false, stderr names the workload,
and the exit code is 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 15
# a run must end within 180 s; passes get what is left of this
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
from spans import is_count, metric_units  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

E2E_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, out: str, deadline: float, *flags: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LAB_THREADS"}
    cmd = [
        sys.executable,
        os.path.join(HERE, "one_pass.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--out",
        out,
        *flags,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("out of time before the pass started")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not end within {timeout:.0f} s") from None
    if done.returncode != 0:
        raise PassFailed(f"pass exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, passes: list[dict], traced: list[dict]) -> list[str]:
    with open(os.path.join(HERE, "baseline.json")) as fh:
        recorded = json.load(fh)["workloads"][workload]["digests"]
    problems = [p for ps in passes + traced for p in ps["problems"]]
    failed = sum(ps["failed"] for ps in passes + traced)
    if failed:
        problems.append(f"{failed} rows failed")
    if any(ps["files"] != passes[0]["files"] for ps in passes + traced):
        problems.append("output bytes differ between passes of one run")
    expected = dict(recorded["reference"])
    if seed == DEFAULT_SEED:
        expected.update(recorded["seeded"])
    answers = passes[0]["answers"]
    for name, sha in expected.items():
        if answers[name] != sha:
            problems.append(f"{name}: answers sha256 {answers[name]} differ from baseline.json {sha}")
    counts = [{k: v for k, v in t["trace"].items() if is_count(k)} for t in traced]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced passes")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # on SIGTERM, unwind: subprocess.run kills and reaps the running pass
    # and the output directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "transtile", "__init__.py")):
        print(f"no transtile source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    out_root = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    passes: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            i = len(passes)
            passes.append(run_pass(args.workload, args.seed, f"{out_root}/p{i}", deadline))
            if args.trace:
                traced.append(
                    run_pass(args.workload, args.seed, f"{out_root}/t{i}", deadline, "--trace")
                )
            if time.monotonic() - started >= args.seconds:
                break
        setups = [p["setup_s"] for p in passes + traced]
        while len(setups) < SETUP_SAMPLES:
            s = run_pass(args.workload, args.seed, f"{out_root}/s", deadline, "--setup-only")
            setups.append(s["setup_s"])
    except PassFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_root))
        except OSError:
            pass

    problems = check(args.workload, args.seed, passes, traced)
    run_s = statistics.median(p["run_s"] for p in passes)
    if args.trace:
        units = metric_units()
        values = {
            name: statistics.median(t["trace"][name] for t in traced)
            for name in units
            if name not in ("lab.run.wall_s", "trace.overhead_s")
        }
        values["lab.run.wall_s"] = run_s
        values["trace.overhead_s"] = statistics.median(t["run_s"] for t in traced) - run_s
    else:
        units = E2E_UNITS
        values = {
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        # lab.run's worker count with LAB_THREADS unset; traced runs also
        # report the threads they saw as lab.workers
        "workers": min(8, os.cpu_count() or 1),
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env}))
    print(f"{'run_s':48s} {run_s:.6g} s")
    for name, value in values.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    for p in problems:
        print(f"{args.workload}: {p}", file=sys.stderr)
    every = passes + traced
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(p["attempted"] for p in every),
                "failed": sum(p["failed"] for p in every),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
