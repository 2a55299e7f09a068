"""Exact construction of 2D Schroedinger potentials, their decaying
eigenfunctions with exponential asymptotics, and blowing-up solutions of the
associated integrable evolution, with symbolic residual verification and
independent numeric cross-checks."""

from .algebra import GaussianRational, MPoly, RationalFn
from .errors import (AlgebraError, AsymptoticMismatch, CoefficientOverflow, ExponentOverflow,
                     NotHolomorphic, ResidualNonzero, TemporalResidualNonzero, ZeroPolynomial)
from .exppoly import WaveFn, wave_eval
from .faddeev import (FaddeevWave, ScatteringData, build_faddeev, faddeev_superpose,
                      residual, scattering_data)
from .harness import GridSpec, fd_residual, load_seed, sample_grid, save_seed, write_grid_csv
from .moutard import (MoutardFrame, SeedPair, build_frame, double_w, harmonic_from_holomorphic,
                      kernel_functions, moutard_transform_wave, nonvanishing_certificate,
                      potential)
from .nv import (BlowupReport, NVSolution, blowup_time, extended_w, heat3_evolve,
                 kernel_mu, nv_faddeev, nv_potentials, nv_residual, temporal_residual)

__version__ = "1.0.0"
