"""Exact construction of 2D Schroedinger potentials, their decaying
eigenfunctions with exponential asymptotics, and blowing-up solutions of the
associated integrable evolution, with symbolic residual verification and
independent numeric cross-checks."""

__version__ = "1.0.0"
