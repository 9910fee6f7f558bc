"""Exact star products of elementary multisymmetric functions on (R^2)^n/S_n."""

__version__ = "0.1.0"
