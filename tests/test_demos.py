"""Each demo runs to completion, quietly, prints the text it always has,
and leaves no temporary files."""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout, with demo 05's temporary directory
# (`<TMPDIR>/sweep-<random>`) written as `<tmp>`.
STDOUT_SHA = {
    "01_holes_and_degrees": "5e999378b860da3db342517d0ae518bd03190b8fbbf02295bdf5c0d0a2366d60",
    "02_tilings_paths_cycles": "0f01622e811a15dff379c69f3e79831bc6096973eb0e8f0a1c6fd856eb300aae",
    "03_mixed_tilings": "c081e6ccdf12d5fc335a3ae27b85296301395491df9bb165feedf6a41a1dc00f",
    "04_absorbing_pipeline": "bc58e79a316bfa71bbfbb2019ba5feaee92fdac8496d98ded710b3852a769353",
    "05_threshold_sweep": "7f223250a4a48e78bd67939472dee6120f46ca3335a87e129ec3d7622720a31a",
}


def test_all_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert list(tmp_path.iterdir()) == []
    stdout = re.sub(re.escape(str(tmp_path)) + r"/sweep-[^/\s]+", "<tmp>", proc.stdout)
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA[demo.stem], stdout
