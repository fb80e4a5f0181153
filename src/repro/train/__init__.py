"""Unified training subsystem: loop scheduling, the privacy handle, callbacks.

AdvSGM (and its DP-off subclass AdversarialSkipGram), SkipGramModel,
DPSGM, DPASGM, DPGGAN and DPGVAE run their epochs through
:class:`TrainingLoop`; DeepWalk/node2vec and the GAP/DPAR projection heads
run theirs through it too.  The seven DP models (AdvSGM, DPSGM, DPASGM,
DPGGAN, DPGVAE, GAP, DPAR) each hold one :class:`PrivacyBudget`, the only
place that builds their accountant, picks the sampling rate of a charge,
checks Algorithm 3's stop rule and converts the spend.
"""

from repro.train.budget import PrivacyBudget, PrivateModelMixin
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

__all__ = [
    "ArrayPairSource",
    "BudgetExhausted",
    "Callback",
    "LoopResult",
    "PairSource",
    "PrivacyBudget",
    "PrivateModelMixin",
    "ProgressCallback",
    "SampledBatchSource",
    "TrainingLoop",
    "fit_link_prediction_head",
]
