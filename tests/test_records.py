"""Result records: value semantics, immutability, repr and pickling, and an
import of the package that does not load `dataclasses`.

The records are named tuples, so they pickle by import path, which is how
pool workers return `CandidatePair`s and the scan's flag tuples.
"""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from harmonicgap.construct import certify, joint_search
from harmonicgap.contfrac import e_convergent, odd_convergent
from harmonicgap.counting import (
    ApproxHit,
    PointSet,
    count_quadratic,
    erdos_turan_check,
    square_denominator_search,
)
from harmonicgap.exactnum import Ball, constants, const_e
from harmonicgap.harmonic import crossing
from harmonicgap.scan import ConnectionReport, scan_records

SRC = Path(__file__).resolve().parents[1] / "src"


def _approx_hit() -> ApproxHit:
    hits, _ = square_denominator_search(const_e, Fraction(2), 40)
    return hits[0]


# each record from the call that makes it, with its fields in order
RECORDS = {
    "CandidatePair": (
        lambda: certify(2),
        ("k", "d", "m", "n", "offset", "overshoot", "quality", "overshoot_exact", "canonical", "bound_ok"),
    ),
    "Convergent": (lambda: e_convergent(5), ("i", "a", "p", "q")),
    "OddConvergent": (lambda: odd_convergent(3), ("k", "p", "q", "remainder", "sign")),
    "ETReport": (
        lambda: erdos_turan_check(PointSet.of([Fraction(1, 2)]), Fraction(2, 5), Fraction(3, 5), 1),
        ("n_points", "count", "delta", "order", "lhs", "rhs", "holds"),
    ),
    "CountReport": (
        lambda: count_quadratic(1, 3, delta=Fraction(1, 5), n_max=200),
        ("p", "q", "shift", "delta", "n_max", "residue", "modulus", "count", "boundary_ties",
         "main_term", "eta", "error_bound", "multiplier", "within_bound"),
    ),
    "ApproxHit": (_approx_hit, ("m", "n", "error")),
    "Constants": (constants, ("critical_offset", "gap_target", "three_over_sinh1")),
    "Crossing": (lambda: crossing(10), ("n", "t", "overshoot")),
    "ConnectionReport": (
        lambda: ConnectionReport.build(107, 289),
        ("n", "m", "d", "reduced_p", "reduced_q", "is_convergent"),
    ),
    "RecordRow": (
        lambda: scan_records(1000).records[-1],
        ("n", "t", "overshoot", "scaled", "reduced_p", "reduced_q", "d", "is_convergent"),
    ),
}


def _by_value(v):
    """A Ball compares by identity; its ends and precision compare by value."""
    if isinstance(v, Ball):
        return ("Ball", v.lo, v.hi, v.prec)
    if isinstance(v, (list, tuple)):
        return type(v).__name__, [_by_value(x) for x in v]
    return v


@pytest.fixture(params=sorted(RECORDS), scope="module")
def record(request):
    make, fields = RECORDS[request.param]
    rec = make()
    assert type(rec).__name__ == request.param
    return rec, fields


class TestRecord:
    def test_fields_in_order(self, record):
        rec, fields = record
        assert rec._fields == fields
        assert tuple(rec) == tuple(getattr(rec, f) for f in fields)

    def test_equality_and_hash_by_value(self, record):
        rec, fields = record
        twin = type(rec)(**{f: getattr(rec, f) for f in fields})
        assert twin is not rec
        assert twin == rec and hash(twin) == hash(rec)
        first = getattr(rec, fields[0])
        assert rec._replace(**{fields[0]: (first, "other")}) != rec

    def test_fields_cannot_be_assigned(self, record):
        rec, fields = record
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(rec, f, None)
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_repr(self, record):
        rec, fields = record
        inner = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields)
        assert repr(rec) == f"{type(rec).__name__}({inner})"

    def test_pickle_round_trip(self, record):
        rec, _ = record
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec)
        assert _by_value(back) == _by_value(rec)


class TestPointSet:
    # equality, hash and repr by points are pinned in test_counting.py
    def test_pickles_and_refuses_assignment(self):
        ps = PointSet.of([Fraction(1, 3), Fraction(4, 3), 2])
        back = pickle.loads(pickle.dumps(ps))
        assert type(back) is PointSet and back == ps and hash(back) == hash(ps)
        assert ps != PointSet.of([Fraction(1, 3)])
        for act in (lambda: setattr(ps, "points", ()), lambda: setattr(ps, "extra", 1), lambda: delattr(ps, "points")):
            with pytest.raises(AttributeError):
                act()
        assert ps.points == (Fraction(1, 3), Fraction(1, 3), Fraction(0))


def test_joint_search_through_the_pool_matches_one_process():
    assert _by_value(joint_search(20, workers=2)) == _by_value(joint_search(20, workers=1))


IMPORT_GUARD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import harmonicgap.cli, harmonicgap.construct, harmonicgap.counting, harmonicgap.scan
print(sorted((set(sys.modules) - before) & {"dataclasses", "inspect"}))
"""


def test_import_loads_no_dataclasses():
    # dataclasses brings inspect, ast, dis and tokenize, and each decorator
    # execs generated code; a module the site already loaded is not counted
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(SRC)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
