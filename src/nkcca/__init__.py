"""Nystrom kernel CCA: column-sampled kernel canonical correlation analysis
with leverage-score sampling, an incremental rank-path solver, and empirical
bound checking."""

from .kernels import KernelSpec, KernelColumns, gram, center
from .leverage import (LeverageScores, SamplingDistribution, exact_leverage,
                       approx_leverage, effective_dimension, make_distribution)
from .sampling import SamplingPlan, sample
from .nystrom import FactorState, chol_append_block
from .kcca import (KccaModel, RankPathEntry, exact_kcca, nkcca_fit,
                   nkcca_fit_direct, nkcca_coefficients, project_many,
                   total_correlation, save_model, load_model)
from .diagnostics import (BoundReport, correlation_error_check, d_matrix_norm,
                          projection_error_check, psd_ordering_check,
                          stability_check, tail_bound_check)
from .datasets import PairedDataset, synthetic_circles, load_paired_csv
from .baselines import RffMap, make_rff_map, rff_features, linear_cca, rcca_fit

__version__ = "0.1.0"
