"""Deterministic spectral theory of anisotropic sample covariance matrices,
with seeded Monte-Carlo verification of the associated central limit theorems
and the statistical procedures built on them."""

__version__ = "0.1.0"

from .errors import (
    AnisompError,
    BranchViolation,
    BudgetExceeded,
    DegenerateData,
    DegenerateDenominator,
    DegenerateVariance,
    EdgeDegeneracy,
    EigenFailure,
    NearSingular,
    NonConvergence,
    OutsideDomain,
    PositivityViolation,
    QuadratureFailure,
    ResolventDegenerate,
)
from .mp_law import (
    PopulationSpectrum,
    RegularityReport,
    SolverConfig,
    StieltjesValue,
    SupportStructure,
    anisotropic_density,
    density_rho2c,
    m2c_derivative,
    null_mp_edges,
    null_mp_m2c,
    null_mp_m2c_prime,
    read_spectrum_file,
    regularity_check,
    solve_m2c,
    solve_m2c_grid,
    support_edges,
    support_structure,
    write_spectrum_file,
)
from .populations import (
    EntryDistribution,
    FourthCumulantProfile,
    Population,
    PopulationModel,
)
from .clt_theory import (
    CovarianceValue,
    TestFunction,
    alpha_hat,
    alpha_kernel,
    beta_hat,
    beta_kernel,
    linear_stat_covariance,
    pv_double_integral,
    resolvent_covariance,
    variance_positivity,
)
from .matrix_models import (
    SampleEnsemble,
    kappa4_hat,
    m2c_hat,
    m2c_hat_prime,
    resolvent_bilinear,
    sample_ensemble,
    vesd_eval,
    y_statistic,
    z_statistic,
)
from .estimators import (
    EstimateWithInterval,
    SphericityVerdict,
    alpha_from_omega,
    confidence_from_alpha,
    estimate_population_eigenvalue,
    estimate_spike_strength,
    sphericity_test,
)
from .experiments import (
    BandResult,
    ExperimentConfig,
    ExperimentReport,
    SphericityCell,
    normality_test,
    reproduce,
    rigidity_diagnostic,
    run_clt_check,
    run_coverage,
    run_linear_stat_check,
    run_sphericity_frequencies,
)
