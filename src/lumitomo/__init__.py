"""Simulation and reconstruction toolkit for modulated luminescent tomography.

Photon transport from focused- or line-excited luminescent sources is
modeled by a diffusion equation with Robin boundary conditions; boundary
flux averages reduce to weighted cone or X-ray transforms of the source
concentration, which are inverted by explicit Fourier-multiplier division,
filtered backprojection, or LSQR.

Importing the package copies LUMITOMO_THREADS into the unset BLAS/OpenMP
thread-count variables, which numpy reads when it is first imported.
"""

import os as _os

if _os.environ.get("LUMITOMO_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["LUMITOMO_THREADS"])

from .errors import (ConfigError, EmptyMaskError, InvalidArgumentError,
                     InvalidOperatorError, LumitomoError,
                     SolverFailureError, StabilityViolationError,
                     WeightDegeneracyWarning)
from .fields import (Grid, OpticalMedium, PhantomSpec, ScalarField,
                     build_phantom, derived_optics, make_grid,
                     robin_coefficient)
from .diffusion import (BoundaryField, DiscreteOperator, assemble_operator,
                        boundary_flux, boundary_functional,
                        solve_adjoint_weight, solve_forward)
from .excitation import (Aperture, ConeConvolution, ConeScanData, Sinogram,
                         cone_transform, full_physics_measurements,
                         simulate_boundary_scan, xray_transform)
from .multiplier import (MarginReport, ellipticity_margin, invert_multiplier,
                         multiplier_symbol)
from .fbp import FbpFilter, divide_by_weight, fbp
from .algebraic import (LinearMap, apply_noise, lsqr, relative_error,
                        scan_linear_map)

__version__ = "0.1.0"
