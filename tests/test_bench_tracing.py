"""The benchmark's tracer rebinds module attributes of every layer by name.

Deleting or renaming one of those bindings breaks only the traced benchmark
run (`perfbench/run.py --trace 1`), so this installs the tracer in a fresh
interpreter and runs one exact-route and one ball-route certification and one
window search.  Each index's remainder is taken once, at a precision that
decides everything built from it, so no precision escalates.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from harmonicgap import construct

tracer = tracing.Tracer()
tracing.install(tracer)
construct.certify(2)
construct.certify(100)
assert tracer.counters["construct.exact_route"] == 1, tracer.counters
assert tracer.counters["construct.ball_route"] == 1, tracer.counters
construct._joint_one_k((200, 5))
assert tracer.counters.get("exactnum.escalations", 0) == 0, tracer.counters
"""


def test_tracer_installs_and_counts_routes():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
