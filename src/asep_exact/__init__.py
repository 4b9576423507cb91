"""Exact contour-integral engine for the half-flat asymmetric exclusion process.

Subpackages by role:

- qfunc: q-deformed special functions (Pochhammer, q-factorial, q-binomial,
  q-exponential, and the single/pair integrand weights).
- quad: the quadrature layer: trapezoid circle axes, Gauss-Legendre
  panels, contour radii, and the tensor-product engine.
- sim: block Monte Carlo simulator and an exact finite-window CTMC oracle.
- exact: the moment and generating-function evaluators plus identity checks.
- bose: attractive delta-interaction moment formulas (continuum limit).
- airy: the crossover kernel, its Fredholm determinant, and limit oracles.
- cli: command-line front end.
"""

__version__ = "0.1.0"

from . import airy, bose, cli, exact, qfunc, quad, sim  # noqa: F401

__all__ = ["airy", "bose", "cli", "exact", "qfunc", "quad", "sim", "__version__"]
