"""MTL-TLP: one shared Fig. 7 backbone, one linear head per platform.

The paper's Table 9 result: when labeled data for a target platform is
scarce, training one shared feature trunk on *several* platforms at
once — each platform scored by its own linear head — transfers what the
trunk learns about schedule quality across hardware.  The paper finds
transfer strongest between platforms of the same ISA (the simhw quirk
terms were built so within-family rank correlation is high and
cross-family is lower).  ``tests/test_mtl.py`` pins that same-ISA-aux >
cross-ISA-aux ordering on the default rng streams only; it is not
robustly reproduced at this scale, since four other stream suffixes
reverse it (EXPERIMENTS.md, Table 9).

Mixed-platform batches work by loss masking: every head scores the full
pooled batch (a full-M GEMM — the bit-stability contract from
``nn.functional`` forbids single-row slices), each head's scores are
multiplied by its platform's one-hot row mask, and the masked scores
sum into one ``[N]`` vector.  Rows of other platforms contribute
exactly 0 to each head's output *and* to its gradient, so one backward
pass trains the trunk on every row and each head only on its own.
"""

from __future__ import annotations

import numpy as np

from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import stream


class MTLTLPModel(Module):
    """Shared trunk + per-platform score heads with loss masking.

    ``platforms`` names the heads in order; :meth:`forward` takes a
    per-row head index into that tuple.  The trunk is a full
    :class:`TLPModel` built from the same config — its weights (and its
    own single-platform head, which MTL leaves untouched and therefore
    untrained) are bit-identical to a plain ``TLPModel(config)``, so
    single-task and MTL runs start from the same trunk initialization.
    MTL head weights come from the derived stream
    ``f"{config.stream_name}.mtl.heads"`` in platform order.
    """

    def __init__(
        self,
        platforms: "tuple[str, ...] | list[str]",
        config: TLPModelConfig | None = None,
    ):
        config = config if config is not None else TLPModelConfig()
        platforms = tuple(platforms)
        if not platforms:
            raise ValueError("MTLTLPModel needs at least one platform")
        if len(set(platforms)) != len(platforms):
            raise ValueError(f"duplicate platforms {platforms}")
        self.platforms = platforms
        self.config = config
        self.trunk = TLPModel(config)
        head_rng = stream(f"{config.stream_name}.mtl.heads")
        self.heads = [
            Linear(config.hidden, 1, rng=head_rng) for _ in platforms
        ]

    def head_index(self, platform: str) -> int:
        try:
            return self.platforms.index(platform)
        except ValueError:
            raise KeyError(
                f"platform {platform!r} not in model platforms {self.platforms}"
            ) from None

    def _check_pids(self, platform_ids, n: int) -> np.ndarray:
        pids = np.asarray(platform_ids).reshape(-1)
        if pids.shape[0] != n:
            raise ValueError(f"platform_ids has {pids.shape[0]} rows for batch {n}")
        if pids.size and (pids.min() < 0 or pids.max() >= len(self.heads)):
            raise IndexError(
                f"platform index out of range for {len(self.heads)} heads"
            )
        return pids.astype(np.int64)

    def forward(
        self,
        X: "np.ndarray | Tensor",
        mask: np.ndarray,
        platform_ids: np.ndarray,
    ) -> Tensor:
        """Masked multi-head scores ``[N]`` for a mixed-platform batch.

        ``platform_ids[i]`` is the head index (into ``self.platforms``)
        that owns row ``i``.  Heads with no rows in the batch are
        skipped entirely — their parameters see no forward compute and
        accumulate no grad, so the optimizer leaves them untouched.
        """
        return self._score(self.trunk.pool_features(X, mask), platform_ids)

    def _score(self, pooled: Tensor, platform_ids: np.ndarray) -> Tensor:
        n = int(pooled.shape[0])
        pids = self._check_pids(platform_ids, n)
        scores: Tensor | None = None
        for i, head in enumerate(self.heads):
            sel = (pids == i)
            if not sel.any():
                continue
            masked = head(pooled).reshape(n) * sel.astype(np.float32)
            scores = masked if scores is None else scores + masked
        if scores is None:
            raise ValueError("empty batch: no rows for any head")
        return scores

    def predict(
        self,
        X: np.ndarray,
        mask: np.ndarray,
        platform_ids: np.ndarray,
    ) -> np.ndarray:
        """Tape-free masked scores, bit-identical to eval-mode
        :meth:`forward`: the trunk's chunked no-grad pass
        (``TLPModel.pool_chunks``), then the heads once over the whole
        batch, in head order.  Dropout is skipped; the training flag is
        left alone."""
        pooled = self.trunk.pool_chunks(X, mask)
        with no_grad():
            return self._score(Tensor(pooled), platform_ids).data.copy()


__all__ = ["MTLTLPModel"]
