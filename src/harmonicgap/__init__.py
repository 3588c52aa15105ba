"""Certified construction and exhaustive search of integer pairs (m, n)
whose harmonic difference 1/n + ... + 1/m lies extraordinarily close to 1."""

import sys as _sys

__version__ = "0.1.0"

# record overshoots at large horizons are exact rationals with millions of
# digits; they must survive decimal serialization (CSV schema) and Fraction
# pickling, both of which stringify
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(max(_sys.get_int_max_str_digits(), 50_000_000))

from .errors import CheckpointError, PrecisionError
from .exactnum import (
    Ball,
    Constants,
    Dyadic,
    const_e,
    const_sinh1,
    constants,
    exp_ball,
    ln_ball,
)
from .contfrac import (
    Convergent,
    OddConvergent,
    convergents,
    e_convergent,
    e_partial_quotient,
    exp_recip_partial_quotient,
    is_e_convergent,
    odd_convergent,
)
from .harmonic import (
    Crossing,
    ball_sum,
    crossing,
    exact_sum,
    iter_crossings,
    pair_offset,
    predicted_overshoot,
)
from .construct import (
    CandidatePair,
    certify,
    ideal_multiplier,
    joint_search,
    pair_from,
    pick_multiplier,
)
from .counting import (
    ApproxHit,
    CountReport,
    ETReport,
    PointSet,
    count_quadratic,
    erdos_turan_check,
    square_denominator_search,
    weyl_sum_abs,
)
from .scan import (
    ConnectionReport,
    RecordRow,
    RecordTable,
    connection_report,
    quality_threshold,
    scan_records,
)

__all__ = [
    "ApproxHit",
    "Ball",
    "CandidatePair",
    "CheckpointError",
    "ConnectionReport",
    "Constants",
    "Convergent",
    "CountReport",
    "Crossing",
    "Dyadic",
    "ETReport",
    "OddConvergent",
    "PointSet",
    "PrecisionError",
    "RecordRow",
    "RecordTable",
    "__version__",
    "ball_sum",
    "certify",
    "connection_report",
    "const_e",
    "const_sinh1",
    "constants",
    "convergents",
    "count_quadratic",
    "crossing",
    "e_convergent",
    "e_partial_quotient",
    "erdos_turan_check",
    "exact_sum",
    "exp_ball",
    "exp_recip_partial_quotient",
    "ideal_multiplier",
    "is_e_convergent",
    "iter_crossings",
    "joint_search",
    "ln_ball",
    "odd_convergent",
    "pair_from",
    "pair_offset",
    "pick_multiplier",
    "predicted_overshoot",
    "quality_threshold",
    "scan_records",
    "square_denominator_search",
    "weyl_sum_abs",
]
