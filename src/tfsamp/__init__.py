"""Region-local random sampling of the short-time Fourier transform.

Finite discrete signals in C^L, a periodized Gaussian (or custom)
window, and a time-frequency region Omega: build the localization
operator of the region, take its leading eigenspace V_N, draw random
STFT samples inside Omega, certify a sampling inequality for
concentrated functions, and reconstruct them by least squares.
"""

from .bounds import (
    SamplingCheck,
    admissible_params,
    exact_bessel_bound,
    lemma_lower_bound_A,
    theorem_lower_bound_A,
    verify_sampling_inequality,
)
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    DimensionError,
    InfeasibleError,
    NumericalError,
    ParameterError,
    RegionError,
    TFSampError,
)
from .locop import (
    ConcentrationValue,
    EigenSystem,
    LocalizationOperator,
    build_localization_operator,
    choose_N,
    concentration,
    concentration_from_eigs,
    eigendecompose,
    eigenvalue_count_estimate,
)
from .recon import (
    ReconstructionResult,
    cg_solve,
    error_bound,
    gram_and_rhs,
    make_concentrated_test_function,
    reconstruct,
)
from .regions import (
    CoveringReport,
    SampleSet,
    TFRegion,
    covering_excess,
    covering_index,
    default_cell_px,
    disk_region,
    mask_region,
    uniform_sample,
)
from .reports import RunReport, write_report
from .sampling import (
    TailParams,
    covering_tail,
    empirical_min_eigenvalue,
    expected_T,
    monte_carlo_failure_frequency,
    required_samples,
    subspace_failure_bound,
    success_probability,
)
from .tfcore import (
    Signal,
    TFPoint,
    Window,
    make_gaussian_window,
    stft,
)
from .witnesses import (
    AliasWitness,
    NonlinearityWitness,
    nonlinearity_witness,
    null_sample_witness,
)

__version__ = "0.1.0"
