"""Solver and verification toolkit for parabolic SPDEs driven by
infinite-dimensional fractional Brownian motion with Hurst H > 1/2.

Spatial discretization is spectral Galerkin in the eigenbasis of the
linear operator, time stepping is the linear implicit Euler scheme, and
the driving noise is sampled exactly (Cholesky or circulant embedding).

The package binds only its version; import the modules by name, as in
``from fracspde import solver``.
"""

__version__ = "0.1.0"
