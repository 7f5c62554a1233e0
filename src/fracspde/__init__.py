"""Solver and verification toolkit for parabolic SPDEs driven by
infinite-dimensional fractional Brownian motion with Hurst H > 1/2.

Spatial discretization is spectral Galerkin in the eigenbasis of the
linear operator, time stepping is the linear implicit Euler scheme, and
the driving noise is sampled exactly (Cholesky or circulant embedding).
"""

__version__ = "0.1.0"

from .fbm import (
    CirculantEmbeddingError,
    CylindricalFbmSample,
    HurstParameter,
    IncrementGrid,
    aggregate_cylindrical,
    fbm_covariance,
    generate_cylindrical_fbm,
    increment_covariance,
    increment_covariance_matrix,
    increment_rows,
    kernel_phi,
)
from .spectral import (
    DiagonalNoiseOperator,
    NemytskiiMap,
    SpectralOperator,
    SpectralState,
    dirichlet_laplacian,
    identity_noise,
    inverse_sine_transform,
    l2_norm,
    noise_regularity_sum,
    sine_transform,
    sobolev_norm,
    trace_class_noise,
    zero_map,
    scaled_identity_map,
    sine_map,
    zero_noise,
)
from .solver import (
    SolverConfig,
    Trajectory,
    linear_mild_reference,
    solve_endpoint,
    solve_path,
)
