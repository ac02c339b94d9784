"""Strain-limited implicit constitutive models and their small-strain limits.

The package builds finite-deformation states whose Green strain solves an
implicit relation E = f_delta(E, Sbar), compares them against the leading
small-strain profile, and certifies the constants that control the error.
"""

from .analysis import (
    CertificateReport,
    CertificateRow,
    ConvergenceRecord,
    ConvergenceReport,
    certify_constants,
    fit_order,
    run_convergence,
    run_convergence_hencky,
)
from .energy import (
    complementary_energy,
    complementary_gradient,
    conjugate_stress,
    green_stress,
    legendre_transform,
)
from .errors import (
    ConfigInvalid,
    FitUnderdetermined,
    InadmissibleDelta,
    InvalidAxis,
    InvalidParameter,
    NoConvergence,
    NonpositiveModulus,
    NotPositiveDefinite,
    OutOfDomain,
    Saturation,
    Singular,
    SingularLeading,
    StrainLimError,
    StudyFailed,
)
from .families import (
    DENSITY_KINDS,
    KINDS,
    FamilySpec,
    certified_domain,
    certify_caps,
    check_ball,
    check_delta,
    delta_ceiling,
    density_line,
    family_eval,
    family_leading,
    leading_gap,
    working_domain,
)
from .kinematics import (
    DeformationState,
    RotationSpec,
    deformation_from_green,
    deformation_from_hencky,
    density_linearization_gap,
    make_rotation,
    sigma_from_cauchy,
    sigma_from_piola,
)
from .scalar1d import (
    Delta0Study,
    oned_delta0_study,
    oned_forward,
    oned_invert,
    oned_strain,
)
from .solver import SolveReport, solve_implicit, solve_implicit_hencky
from .symtensor import (
    Spectrum,
    SymTensor,
    det,
    eig_sym,
    frobenius,
    inner,
    inverse,
    is_rotation,
    spd_sqrt,
    sym_exp,
    sym_log,
    trace,
)

__version__ = "0.1.0"
