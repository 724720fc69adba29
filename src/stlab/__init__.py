"""Desk-scale laboratory for multi-task speech translation.

A numpy implementation of the full pipeline: reverse-mode autodiff,
synthetic paired speech/text data, a three-partition transformer with
local-to-global feature extractors, alignment-driven sequence shrinking
with a looking-back mechanism, impact-scheduled auxiliary task weights,
and gradient-consistency analysis tooling.
"""

from .autograd import GroupKey, ParamGroup, ShapeError, Tensor
from .config import (ConfigError, CorpusConfig, ModelConfig, RunConfig, SchedulerConfig,
                     Toggles, TrainingConfig, default_config, load_config, save_config)
from .data import SyntheticBatch, export_corpus, make_batch
from .gradcheck import GradCheckFailure, check_gradients
from .losses import (CtcInfeasibleError, ce_loss, consistency_loss,
                     contrastive_loss, ctc_loss, task_loss, total_loss)
from .model import Model, load_checkpoint, save_checkpoint
from .optim import Adam
from .scheduler import TaskWeights, schedule_step, task_impact
from .shrink import ShrunkSequence, shrink_batch, shrink_sequence
from .train import NanAbort, TrainResult

__all__ = [
    "Adam", "ConfigError", "CorpusConfig", "CtcInfeasibleError",
    "GradCheckFailure", "GroupKey", "Model", "ModelConfig", "NanAbort",
    "ParamGroup", "RunConfig", "SchedulerConfig", "ShapeError",
    "ShrunkSequence", "SyntheticBatch", "TaskWeights", "Tensor", "Toggles",
    "TrainResult", "TrainingConfig", "ce_loss", "check_gradients",
    "consistency_loss", "contrastive_loss", "ctc_loss", "default_config",
    "export_corpus", "load_checkpoint", "load_config", "make_batch",
    "save_checkpoint", "save_config", "schedule_step", "shrink_batch",
    "shrink_sequence", "task_impact", "task_loss", "total_loss",
]
