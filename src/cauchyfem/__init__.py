"""Stabilized primal-dual finite elements for the elliptic Cauchy problem."""

__version__ = "0.1.0"
