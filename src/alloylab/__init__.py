"""Numerical verification lab for lattice alloy-type random operators.

Builds finite-volume Hamiltonians H = -Delta + lambda V with alloy-type
disorder V(x) = sum_k omega_k u(x - k), evaluates the explicit constants and
closed-form bounds of the fractional-moment and eigenvalue-count machinery,
and checks the exact identities (Schur complements, resolvent formulas,
positive combinations) and the probabilistic bounds by quadrature and
Monte Carlo at desk scale.
"""

from .model import (
    BoxGeometry,
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    assemble_hamiltonian,
    build_box,
    explicit_geometry,
    exterior_boundary,
    interior_boundary,
    lambda_plus,
    load_model_config,
    potential_value,
    sample_configuration,
)
from .green import (
    annulus,
    green,
    schur_B,
    verify_resolvent_identities,
    verify_schur_identity,
    verify_two_step_schur,
)
from .averaging import (
    AverageCheck,
    det_average_check,
    detgen_check,
    graf_check,
    nonmonotone_average_check,
    resolvent_average_check,
)
from .moments import (
    DecayFit,
    MomentEstimate,
    decay_profile,
    estimate_moment,
    estimate_moments,
    finite_volume_sum,
    gap_constants,
    nonlocal_apriori_bound,
    one_d_constants,
    w_xy,
)
from .poscomb import (
    compute_R_l,
    find_I0,
    generating_derivative,
    prop1_sum,
    prop2_min,
    wegner_coefficients,
)
from .spectra import (
    RegularityReport,
    WegnerReport,
    eigenvalues,
    pair_regularity_probability,
    wegner_mc,
)
from .gaussian import (
    a_l_determinants,
    gaussian_conditional,
    conditional_oracle,
    negexample_check,
    negexample_constants,
)

__version__ = "0.1.0"
