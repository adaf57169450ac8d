"""Edge-level graph prompt tuning for frozen pre-trained GNNs.

The package bundles a small autodiff tensor core, CSR graph handling,
GCN/GIN backbones with an edge-prompt injection point, four
self-supervised pre-training strategies, the EdgePrompt / EdgePrompt+
tuning methods (plus GPF / GPF-plus baselines), and executable
verification of the method's separation and equivalence guarantees.
"""

from .checkpoint import (
    Checkpoint,
    LearnedPrompts,
    build_model,
    load_checkpoint,
    load_prompts,
    save_checkpoint,
    save_prompts,
)
from .data import (
    CSBMParams,
    FewShotSplit,
    LabeledDataset,
    csbm_generate,
    csbm_graph_dataset,
    csbm_node_dataset,
    kshot_sample,
    load_dataset,
    save_dataset,
)
from .errors import (
    CompatibilityError,
    ConfigError,
    DatasetError,
    EdgePromptError,
    FormatError,
    InsufficientDataError,
    NonFiniteError,
    NotFittedError,
    ShapeError,
)
from .graph import Adjacency, Graph, disjoint_union, membership_from_offsets
from .models import GNNModel, LinearHead, classifier_forward, model_forward, readout
from .optim import Adam
from .pretrain import (
    GraphCLPretrainer,
    LinkPredictionPretrainer,
    NeighborContrastPretrainer,
    PRETRAINERS,
    SimGRACEPretrainer,
    augment_graph,
    ntxent_loss,
)
from .prompts import EdgePromptPlusParams, NodePromptParams
from .tensor import Tape, Tensor, finite_difference_gradient
from .tuning import METHODS, PromptTuner, evaluate_accuracy
from . import theory

__version__ = "0.1.0"
