"""Random kernel matrix spectra: simulation, limiting laws, universality checks."""

from .ensembles import (GAUSSIAN, RADEMACHER, SPHERE, ConcentrationDiagnostic,
                        MomentDiagnostic, SampleMatrix, VectorEnsemble,
                        concentration_diagnostic, moment_diagnostic,
                        sample_matrix)
from .errors import (CapabilityError, DegeneracyError, DerivativeError,
                     EnvelopeError, KernelSpectraError, NumericalError,
                     SolverError)
from .experiments import (ExperimentConfig, ExperimentResult,
                          PerturbationReport, parse_config,
                          run_l2_perturbation, run_universality)
from .kernels import (INNER_PRODUCT, KEEP, SQUARED_DISTANCE, ZERO, Envelope,
                      KernelSpec, build, gram, linearized, parse_envelope,
                      single_entry_swap)
from .limit_solver import LimitLaw, load_limit_law, solve_grid, solve_point
from .mp_theory import (AffineMPLaw, mp_atom_mass, mp_cdf, mp_density,
                        mp_stieltjes, mp_support, predicted_law)
from .orthopoly import (AdmissibleParams, MomentSequence, OrthoBasis,
                        build_basis, envelope_coeffs, gaussian_limit_moments,
                        hermite, hermite_deviation, xi_moments)
from .spectral import (ESD, VarianceDecayReport, eigenvalues,
                       empirical_stieltjes, ks_distance, load_esd, save_esd,
                       save_limit_law, stieltjes_variance_decay, wasserstein1)

__version__ = "0.1.0"

__all__ = [
    "GAUSSIAN", "RADEMACHER", "SPHERE", "VectorEnsemble", "SampleMatrix",
    "sample_matrix", "moment_diagnostic", "concentration_diagnostic",
    "MomentDiagnostic", "ConcentrationDiagnostic",
    "Envelope", "parse_envelope", "KernelSpec",
    "INNER_PRODUCT", "SQUARED_DISTANCE", "KEEP", "ZERO",
    "gram", "build", "linearized", "single_entry_swap",
    "ESD", "eigenvalues", "empirical_stieltjes",
    "ks_distance", "wasserstein1", "stieltjes_variance_decay",
    "VarianceDecayReport", "save_esd", "load_esd",
    "AffineMPLaw", "mp_density", "mp_cdf", "mp_stieltjes", "mp_support",
    "mp_atom_mass", "predicted_law",
    "MomentSequence", "OrthoBasis", "AdmissibleParams", "xi_moments",
    "hermite", "build_basis", "envelope_coeffs",
    "hermite_deviation", "gaussian_limit_moments",
    "LimitLaw", "solve_point", "solve_grid",
    "save_limit_law", "load_limit_law",
    "ExperimentConfig", "ExperimentResult", "PerturbationReport",
    "parse_config", "run_universality", "run_l2_perturbation",
    "KernelSpectraError", "EnvelopeError", "CapabilityError",
    "DerivativeError", "DegeneracyError", "SolverError", "NumericalError",
]
