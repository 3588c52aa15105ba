"""Certified construction and exhaustive search of integer pairs (m, n)
whose harmonic difference 1/n + ... + 1/m lies extraordinarily close to 1."""

import sys as _sys

__version__ = "0.1.0"

# record overshoots at large horizons are exact rationals with millions of
# digits; they must survive decimal serialization (CSV schema) and Fraction
# pickling, both of which stringify
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(max(_sys.get_int_max_str_digits(), 50_000_000))
