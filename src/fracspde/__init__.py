"""Solver and verification toolkit for parabolic SPDEs driven by
infinite-dimensional fractional Brownian motion with Hurst H > 1/2.

Spatial discretization is spectral Galerkin in the eigenbasis of the
linear operator, time stepping is the linear implicit Euler scheme, and
the driving noise is sampled exactly (Cholesky or circulant embedding).
"""

__version__ = "0.1.0"

from .fbm import (
    CylindricalFbmSample,
    HurstParameter,
    IncrementGrid,
    aggregate_cylindrical,
    generate_cylindrical_fbm,
    increment_covariance,
    increment_rows,
)
from .spectral import (
    DiagonalNoiseOperator,
    NemytskiiMap,
    SpectralOperator,
    SpectralState,
    dirichlet_laplacian,
    identity_noise,
    sine_transform,
    trace_class_noise,
    zero_map,
    sine_map,
    zero_noise,
)
from .solver import (
    SolverConfig,
    linear_mild_reference,
    solve_endpoint,
)
