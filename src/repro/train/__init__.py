"""Unified training subsystem: loop scheduling, budget stop, callbacks.

All seven embedding trainers (AdvSGM, SkipGramModel, AdversarialSkipGram,
DPSGM, DPASGM, DPGGAN, DPGVAE) — plus DeepWalk/Node2Vec and the decoupled
GNN baselines' projection heads — run their epochs through
:class:`TrainingLoop`, and every DP trainer's early stop goes through
:class:`PrivacyBudget`, so Algorithm 3's budget check lives in exactly one
place.
"""

from repro.train.budget import PrivacyBudget
from repro.train.heads import fit_link_prediction_head
from repro.train.loop import (
    BudgetExhausted,
    Callback,
    LoopResult,
    ProgressCallback,
    TrainingLoop,
)
from repro.train.pair_source import (
    ArrayPairSource,
    PairSource,
    SampledBatchSource,
)
from repro.train.protocol import Trainer

__all__ = [
    "ArrayPairSource",
    "BudgetExhausted",
    "Callback",
    "LoopResult",
    "PairSource",
    "PrivacyBudget",
    "ProgressCallback",
    "SampledBatchSource",
    "Trainer",
    "TrainingLoop",
    "fit_link_prediction_head",
]
