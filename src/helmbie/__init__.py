"""Spectrally accurate Nystrom discretization of the 2D Helmholtz boundary
operators (single layer, double layer, its adjoint, hypersingular) on smooth
closed curves, plus direct and indirect boundary-integral formulations of the
acoustic transmission problem."""

from .geometry import (
    ParametricCurve,
    cavity,
    circle,
    ellipse,
    grid,
    grid_geometry,
    kite,
    make_curve,
)
from .fourier import (
    TrigPolynomial,
    psi_hat,
    sobolev_norm,
    weight_table,
    weighted_conv,
)
from .kernels import KernelContext
from .operators import OperatorFamily
from .linalg import gmres, lu_factor, lu_solve
from .formulations import (
    PlaneWave,
    PointSource,
    SolveResult,
    TransmissionProblem,
    assemble,
    assemble_l1,
    assemble_l2,
    assemble_l3,
    assemble_l4,
    build_data,
    solve,
)
from .fields import (
    FarFieldPattern,
    FieldEvaluator,
    far_field_linf_diff,
)

__version__ = "0.1.0"
