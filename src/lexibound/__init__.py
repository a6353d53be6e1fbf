"""Lexicase selection runtime instrumentation and diversity-based bounds.

The package measures how fast lexicase parent selection runs on a given
population (exact evaluation counts and Monte Carlo estimates), computes the
population's epsilon-cluster similarity via maximum-clique analysis, and
evaluates the 4N/eps + 2kC expected-runtime bound against the N*C worst case.
"""

from .core import (
    DedupProfile,
    ErrorMatrix,
    KindMismatchError,
    LossKind,
    MatrixError,
    RngStream,
    deduplicate,
    exact_fraction,
    identity_profile,
    read_matrix_csv,
    write_matrix_csv,
)
from .engine import (
    SelectionTrace,
    lexicase_select,
    mad_thresholds,
    static_epsilon_binarize,
)
from .diversity import (
    DEFAULT_NODE_BUDGET,
    SimilarityGraph,
    SimilarityResult,
    clique_number,
    covariance_mean,
    similarity_bruteforce,
)
from .bounds import (
    BoundReport,
    best_epsilon,
    default_epsilon_grid,
    sweep,
)
from .simulate import (
    RunStats,
    estimate_runtime,
    oracle_distribution,
    pool_shrinkage,
    selection_distribution,
)
from .popgen import (
    GenKind,
    GenSpec,
    GenerationError,
    gen_adversarial_single_case,
    gen_clustered,
    gen_log_binary,
    gen_random_uniform,
    gen_two_cluster,
    generate,
    with_real_jitter,
)

__version__ = "0.1.0"
