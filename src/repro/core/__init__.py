"""TLP's contribution: featurize the schedule sequence, not the program.

The paper's core mechanism — and the first slice of the ``core``
subsystem (DESIGN.md §3) to land: feature extraction from primitive
sequences (Fig. 4/5) with the Table 4 crop/pad geometry — plus the
first slice of the TLP cost model itself (Fig. 7, on the ``repro.nn``
autograd substrate), now joined by the offline training stack.

* ``abstract_primitive`` — canonical per-kind (one-hot ++ char tokens ++
  numerics) layout shared by every extractor implementation.
* ``extractor`` — :class:`TLPFeaturizer`: vocabulary fitting and the
  one batch encoder, ``transform_into`` over the batch's structural
  groups (``transform`` is it over fresh arrays).
* ``extractor_reference`` — the deliberately naive per-primitive oracle
  and benchmark baseline.
* ``postprocess`` — Table 4 ``seq_len x emb`` crop/pad.
* ``tlp_model`` — :class:`TLPModel`: the Fig. 7 attention backbone
  consuming ``TLPFeaturizer.transform`` output directly.
* ``mtl`` — :class:`MTLTLPModel`: shared trunk + per-platform heads
  with loss masking (Table 9's cross-hardware transfer).
* ``trainer`` — :class:`Trainer`: offline lambda-rank training over a
  shard store with exact checkpoint/resume.
* ``metrics`` — Table 6/7 top-k best-found latency ratio and its exact
  random baseline.
"""

from __future__ import annotations

from repro.core.abstract_primitive import (
    KIND_INDEX,
    KIND_ORDER,
    N_KINDS,
    AbstractPrimitive,
    abstract,
)
from repro.core.extractor import PAD_ID, UNK_ID, TLPFeaturizer
from repro.core.extractor_reference import reference_transform
from repro.core.postprocess import (
    TABLE4_CROPPED,
    TABLE4_UNCROPPED,
    PostprocessConfig,
    crop_pad,
    crop_pad_batch,
)
from repro.core.scoring import CandidateScorer, ScoredTopK
from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.core.metrics import (
    random_top_k_score,
    random_top_k_scores_grouped,
    top_k_score,
    top_k_scores_grouped,
)
from repro.core.mtl import MTLTLPModel
from repro.core.trainer import NonFiniteTrainingError, TrainConfig, Trainer
from repro.nn.module import CheckpointError

__all__ = [
    "KIND_INDEX",
    "KIND_ORDER",
    "N_KINDS",
    "PAD_ID",
    "TABLE4_CROPPED",
    "TABLE4_UNCROPPED",
    "UNK_ID",
    "AbstractPrimitive",
    "CandidateScorer",
    "CheckpointError",
    "MTLTLPModel",
    "NonFiniteTrainingError",
    "PostprocessConfig",
    "ScoredTopK",
    "TLPFeaturizer",
    "TLPModel",
    "TLPModelConfig",
    "TrainConfig",
    "Trainer",
    "abstract",
    "crop_pad",
    "crop_pad_batch",
    "random_top_k_score",
    "random_top_k_scores_grouped",
    "reference_transform",
    "top_k_score",
    "top_k_scores_grouped",
]
