"""polaron1d: quench dynamics of a spinor impurity in a 1D trapped Bose gas.

Three solver tiers over a shared hard-wall grid:

* meanfield  - coupled Gross-Pitaevskii relaxation and real-time propagation
* effpot     - static effective potential for the impurity, eigensolve + dynamics
* exactdiag  - few-body exact diagonalization in a truncated oscillator basis

plus a shared observables layer (contrast/spectral function, miscibility,
energies, entanglement) and a CLI runner with manifest-tracked outputs.
"""

__version__ = "0.1.0"

from .grid import (
    Grid,
    Field,
    HOBasis,
    build_grid,
    ho_mode_basis,
    inner,
    kinetic_apply,
)

__all__ = [
    "Grid",
    "Field",
    "HOBasis",
    "build_grid",
    "ho_mode_basis",
    "inner",
    "kinetic_apply",
    "__version__",
]
