"""sftlab: a desk-scale laboratory for diversity-preserving fine-tuning losses.

Seven token-level objectives with closed-form logit gradients, a battery of
mechanical checks that verifies their algebraic identities and every gradient
against finite differences, a tiny character-level LM trained by hand-written
backprop, diversity and quality metrics for its samples, and a CLI that ties
the pieces into reproducible experiments.
"""

from .gradcheck import (
    CheckReport,
    FiniteDiffSpec,
    OracleError,
    fd_gradient,
    rel_error,
    run_all_checks,
    verify_entropy_bounded,
    verify_finite_difference,
    verify_focal_scaling,
    verify_gem_equivalence,
    verify_tofu_scaling,
)
from .hashing import canonical_json, config_hash, content_hash
from .losses import (
    GEM_DEFAULT_BETA,
    OBJECTIVES,
    TEMPERED_DEFAULT_BETA,
    DropThresholdError,
    LossConfig,
    LossResult,
    PrConfig,
    Target,
    UnsupportedTargetError,
    batch_loss,
    drop_threshold,
    focal_scaling,
    pr_weight,
    token_loss,
)
from .metrics import (
    ArityError,
    GenerationSet,
    MetricReport,
    UndefinedMetricError,
    answer_entropy,
    completion_entropy,
    coverage_and_mean,
    distinct_n,
    extract_boxed_answer,
    self_bleu,
)
from .model import Gradients, TokenizationError, ToyModel, Vocab
from .numerics import (
    LOG_FLOOR,
    entropy_from_log_probs,
    entropy_logit_gradient,
    log_softmax,
    logsumexp,
    temper,
    tempered_log_softmax,
)
from .sampling import SamplingConfig, completion_seed, nucleus_filter, nucleus_sample
from .training import (
    Checkpoint,
    Corpus,
    CorpusExample,
    ProbeResult,
    TrainConfig,
    TrainingDivergedError,
    probe_token_distribution,
    synth_diversity_corpus,
    train,
)

__version__ = "0.1.0"
