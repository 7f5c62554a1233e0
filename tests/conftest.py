import numpy as np
import pytest

from fracspde import fbm, solver, spectral


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Compile the numba kernels once so timed tests measure math, not JIT."""
    h = fbm.HurstParameter(0.75)
    cfg = solver.SolverConfig(
        n_modes=3, m_steps=4, horizon=1.0, hurst=h,
        operator=spectral.dirichlet_laplacian(3),
        noise=spectral.trace_class_noise(3),
        nonlinearity=spectral.sine_map(),
        initial=spectral.SpectralState(coeffs=np.zeros(3)),
        base_seed=0,
    )
    noise = fbm.generate_cylindrical_fbm(3, cfg.grid(), h, 0)
    solver.solve_endpoint(cfg, noise)
    solver.solve_path(cfg, noise)
    solver.solve_endpoint(
        solver.SolverConfig(
            n_modes=3, m_steps=4, horizon=1.0, hurst=h,
            operator=spectral.dirichlet_laplacian(3),
            noise=spectral.trace_class_noise(3),
            nonlinearity=spectral.zero_map(),
            initial=spectral.SpectralState(coeffs=np.zeros(3)),
            base_seed=0,
        ),
        noise,
    )
    yield
