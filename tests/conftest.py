import numpy as np
import pytest

from polaron1d import meanfield as mf
from polaron1d.grid import build_grid, ho_mode_basis


@pytest.fixture(scope="session")
def grid():
    return build_grid(450, 40.0)


@pytest.fixture(scope="session")
def odd_grid():
    # contains x = 0 exactly; handy for closed-form point checks
    return build_grid(451, 40.0)


@pytest.fixture(scope="session")
def default_system():
    return mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.0)


@pytest.fixture(scope="session")
def relaxed_default(grid, default_system):
    """Relaxed N_B=100, g_bb=0.5, g_bi=0 ground state shared across tests."""
    return mf.relax_ground_state(default_system, grid)


@pytest.fixture(scope="session")
def relaxed_density(relaxed_default):
    state, _ = relaxed_default
    return state.bath.density(100)


@pytest.fixture(scope="session")
def basis10(grid):
    return ho_mode_basis(grid, 10)


@pytest.fixture(scope="session")
def tensor10():
    """Contact integrals u[i, j, k, l] of the first 10 oscillator modes from
    the Gauss-Hermite rule the ED Hamiltonian is built on."""
    from polaron1d import exactdiag as ed

    _, w, phi = ed.contact_rule(10)
    return np.einsum("q,iq,jq,kq,lq->ijkl", w, phi, phi, phi, phi)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
