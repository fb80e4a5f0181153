"""AdvSGM without differential privacy — the "AdvSGM (No DP)" model.

Table V of the paper compares the non-private adversarial skip-gram against
the plain skip-gram to show that the adversarial module improves utility even
before privacy enters the picture.  This class is :class:`repro.core.AdvSGM`
with ``dp_enabled`` pinned to ``False``, registered under its own name so the
example scripts and experiments can treat it like any other embedding model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.api.registry import register_model
from repro.core.advsgm import AdvSGM
from repro.core.config import AdvSGMConfig
from repro.graph.graph import Graph
from repro.utils.rng import RngLike


@register_model(
    "advsgm-nodp",
    aliases=("advsgm(no dp)", "advsgm_nodp"),
    paper="Table V, 'AdvSGM (No DP)' row",
    description="Adversarial skip-gram with DP noise and accounting off",
)
class AdversarialSkipGram(AdvSGM):
    """Non-private adversarial skip-gram (AdvSGM with the noise switched off).

    Without a privacy handle it never stops early, and ``privacy_spent()``
    and ``accountant`` are ``None``.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[AdvSGMConfig] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(graph, replace(config or AdvSGMConfig(), dp_enabled=False), rng)

    def set_params(self, **params) -> "AdversarialSkipGram":
        """Replace config fields; ``dp_enabled`` stays off."""
        super().set_params(**params)
        self.config = replace(self.config, dp_enabled=False)
        return self
