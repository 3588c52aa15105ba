"""Certified construction and exhaustive search of integer pairs (m, n)
whose harmonic difference 1/n + ... + 1/m lies extraordinarily close to 1."""

__version__ = "0.1.0"
