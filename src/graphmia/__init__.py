"""Membership-inference auditing for multi-domain graph pre-trained encoders."""

from .amplify import (
    SamplePlan,
    draw_sample_plan,
    fine_tune_augment,
    similarity_profile,
    teacher_scores,
    unlearn,
)
from .attack import (
    AttackDataset,
    AttackModel,
    Scores,
    build_attack_dataset,
    infer_membership,
    train_attack_model,
)
from .config import ExperimentConfig, SyntheticSpec, load_config, parse_config
from .graph import (
    Graph,
    graph_fingerprint,
    induced_subgraph,
    load_graph,
    partition_shadow,
    perturb_edges,
    split_half,
)
from .metrics import MetricsReport, accuracy_f1
from .nn import GCNEncoder, MLP, ParamSet, adam_step
from .pca import pca_project
from .shadow import FisherDiag, estimate_fisher, incremental_finetune
from .synth import sbm_graph
from .victim import (
    SSLObjective,
    TrainConfig,
    VictimModel,
    embed,
    pretrain_multidomain,
)

__version__ = "0.1.0"
