"""Numerical verification lab for lattice alloy-type random operators.

Builds finite-volume Hamiltonians H = -Delta + lambda V with alloy-type
disorder V(x) = sum_k omega_k u(x - k), evaluates the explicit constants and
closed-form bounds of the fractional-moment and eigenvalue-count machinery,
and checks the exact identities (Schur complements, resolvent formulas,
positive combinations) and the probabilistic bounds by quadrature and
Monte Carlo at desk scale.
"""

# callers import the modules; this one re-export stays only because bench/test_layertrace.py
# reads sys.modules["alloylab"].green as the function (as spectra keeps its pinned imports)
from .green import green  # noqa: F401

__version__ = "0.1.0"
