"""The benchmark's tracer rebinds module attributes of every layer by name.

Deleting or renaming one of those bindings breaks only the traced benchmark
run (`perfbench/run.py --trace 1`), so this installs the tracer in a fresh
interpreter and runs one exact-route and one ball-route certification and one
window search.  Each index's remainder is taken once, at a precision that
decides everything built from it, so no precision escalates.  Then a
checkpointed scan runs through the scan's bindings: the screen's flag count,
exact confirmation, one connection report per emitted row and checkpoint
saves.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from harmonicgap import construct, scan

screen = scan.screen_block
tracer = tracing.Tracer()
tracing.install(tracer)
construct.certify(2)
construct.certify(100)
assert tracer.counters["construct.exact_route"] == 1, tracer.counters
assert tracer.counters["construct.ball_route"] == 1, tracer.counters
construct._joint_one_k((200, 5))
assert tracer.counters.get("exactnum.escalations", 0) == 0, tracer.counters

table = scan.scan_records(5000, checkpoint_path=sys.argv[3])
flags = sum(len(screen(*args)[0]) for args in scan._screen_args(5000, 2))
assert flags > 0 and tracer.counters["screen.flags"] == flags, (flags, tracer.counters)
called = [span[0] for span in tracer.spans]
assert {"scan.confirm_exact", "scan.checkpoint", "scan.connection"} <= set(called), set(called)
# every emitted row is classified once, through the traced ConnectionReport.build
rows = {(r.n, r.t) for r in table.records + table.below_threshold}
assert called.count("scan.connection") == len(rows) == 4, (called.count("scan.connection"), rows)
"""


def test_tracer_installs_and_counts_routes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path / "scan.ckpt")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
