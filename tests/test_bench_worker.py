"""The benchmark's worker reads names from the package beyond the workloads'
own calls (`_intops.HAVE_GMPY2`, `_screen.kernel_name`, `counting.PointSet.of`
among them).  Losing one fails every benchmark round and no other test, so
this runs the worker's set-up-only `probe` round for every declared workload.
"""

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_probe_round(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "1",
         str(time.monotonic_ns()), str(tmp_path), "probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "round.json").read_text())
    env = out["env"]
    assert sorted(env) == ["gmpy2", "kernel", "python"]
    assert env["kernel"] in ("compiled", "pure-python")
    assert type(env["gmpy2"]) is bool
    assert env["python"] == platform.python_version()
    assert out["ops"] == []
