"""Re-balancing long-tailed classifiers with randomly labeled open-set data."""

from .priors import (
    ClassPrior,
    LabelDistributionKind,
    cb_effective_weights,
    complementary,
    default_alpha,
    label_distribution,
    mcd,
    mixed_prior,
    prior_from_counts,
    required_aux_size,
)
from .data import (
    LabeledDataset,
    gen_gaussian_classes,
    gen_ood_pool,
    longtail_counts,
    read_cifar10_binary,
    read_dataset,
    subsample_longtail,
    write_dataset,
)
from .nn import LrSchedule, MlpParams, OptimState, forward, grad_check, lr_at
from .oracle import DiscreteJoint, OodMarginal, bayes_predict, mix, bayes_invariance_check
from .metrics import MetricsReport, accuracy, aupr, auroc, fpr_at_95_tpr, msp_scores
from .train import (
    RunResult,
    TrainConfig,
    sample_aux_labels,
    train_run,
    train_runs,
)

__version__ = "0.1.0"
