"""Schedule primitives — the tokens of TLP's "tensor language".

The 11 Ansor-style primitive kinds (DESIGN.md §3) with the same syntactic
shape as Ansor's measure records: a kind tag, character parameters (axis
names, annotation tokens) and numeric parameters (extents, split factors,
step references).  TLP featurizes exactly this triple, so everything the
cost model can ever know is carried here; the static verifier
(``repro.analysis``) checks the sequence without applying it.

Per DESIGN.md §6, SP primitives carry the extent of the axis they split —
without it the features are non-identifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache


class PrimitiveKind(str, Enum):
    """The 11 schedule-primitive kinds."""

    SP = "SP"  # split: axis -> (outer, factor loops...)
    RE = "RE"  # reorder: complete permutation of the live loop order
    FU = "FU"  # fuse: merge >=2 adjacent axes
    AN = "AN"  # annotate: parallel / vectorize / unroll / GPU thread bind
    PR = "PR"  # pragma: auto_unroll_max_step etc.
    FSP = "FSP"  # follow split: reuse the factors of an earlier SP step
    CA = "CA"  # compute-at: attach the stage under an axis
    CHW = "CHW"  # cache write: add a write-cache stage
    RF = "RF"  # rfactor: factor a reduction axis out
    CI = "CI"  # compute inline
    CP = "CP"  # compute root


#: Loop-kind annotations (``AN`` attr values).  ``bind.*`` tokens are the
#: GPU thread binds; the verifier rejects them under a non-GPU target.
ANNOTATIONS: tuple[str, ...] = (
    "parallel",
    "vectorize",
    "unroll",
    "bind.blockIdx.x",
    "bind.blockIdx.y",
    "bind.threadIdx.x",
    "bind.threadIdx.y",
    "bind.vthread",
)

GPU_BIND_PREFIX = "bind."

#: Pragma tokens (``PR`` attr values).
PRAGMAS: tuple[str, ...] = ("auto_unroll_max_step", "unroll_explicit")

#: Separator used in fused-axis names, mirroring Ansor ("i.0@j.0").
FUSE_SEP = "@"

#: Structural arity per kind: (n_axes, min_ints, max_ints, needs_attr),
#: with ``None`` meaning unconstrained.  The table form of the field-use
#: matrix in :class:`Primitive`'s docstring — shared by the verifier's
#: E101 rule and the abstract interpreter so the two cannot drift.
ARITY: "dict[PrimitiveKind, tuple[int | None, int, int | None, bool]]" = {
    PrimitiveKind.SP: (1, 2, None, False),
    PrimitiveKind.RE: (None, 0, 0, False),
    PrimitiveKind.FU: (None, 0, 0, False),
    PrimitiveKind.AN: (1, 0, 0, True),
    PrimitiveKind.PR: (1, 1, 1, True),
    PrimitiveKind.FSP: (1, 2, 2, False),
    PrimitiveKind.CA: (1, 0, 0, False),
    PrimitiveKind.CHW: (0, 0, 0, False),
    PrimitiveKind.RF: (1, 0, 0, False),
    PrimitiveKind.CI: (0, 0, 0, False),
    PrimitiveKind.CP: (0, 0, 0, False),
}

#: ``PrimitiveKind`` is a str enum, so this resolves both enum members and
#: raw kind strings in one dict probe — no try/except per primitive.
KIND_BY_VALUE: "dict[str, PrimitiveKind]" = {k.value: k for k in PrimitiveKind}


@dataclass(frozen=True)
class Primitive:
    """One schedule transformation.

    ``axes`` are the character parameters (axis names), ``ints`` the
    numeric parameters, ``attr`` the annotation/pragma token.  Field use
    per kind:

    ===== ======================= ============================== ==========
    kind  axes                    ints                           attr
    ===== ======================= ============================== ==========
    SP    (axis,)                 (extent, factor, factor, ...)  —
    RE    full loop order         —                              —
    FU    >=2 adjacent axes       —                              —
    AN    (axis,)                 —                              annotation
    PR    (axis,)                 (value,)                       pragma
    FSP   (axis,)                 (extent, src_step_index)       —
    CA    (axis,)                 —                              —
    CHW   —                       —                              —
    RF    (axis,)                 —                              —
    CI    —                       —                              —
    CP    —                       —                              —
    ===== ======================= ============================== ==========
    """

    kind: PrimitiveKind
    axes: tuple[str, ...] = field(default=())
    ints: tuple[int, ...] = field(default=())
    attr: str = ""

    def __hash__(self) -> int:
        # Computed lazily and cached: primitives key the feature
        # extractor's row memo and sequence LRU (repro.core.extractor),
        # where re-hashing the field tuple on every probe dominated the
        # batch hot path.  Frozen dataclasses permit the setattr bypass.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.kind, self.axes, self.ints, self.attr))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        # A raw-string kind ("SP") prints like its enum member; an unknown
        # one (an E101 sequence) prints as given.
        kind = KIND_BY_VALUE.get(self.kind)
        parts = [kind.value if kind is not None else str(self.kind)]
        if self.axes:
            parts.append(",".join(self.axes))
        if self.ints:
            parts.append(",".join(str(i) for i in self.ints))
        if self.attr:
            parts.append(self.attr)
        return "(" + "; ".join(parts) + ")"


@lru_cache(maxsize=4096)
def split_names(axis: str, n_parts: int) -> tuple[str, ...]:
    """The axis names an SP/FSP with ``n_parts`` result loops defines.

    Memoized (the sampler, verifier and abstract interpreter each ask for
    the same few splits on every candidate); the result is an immutable
    tuple, so sharing it between callers is safe.
    """
    return tuple(f"{axis}.{i}" for i in range(n_parts))


def fused_name(axes: tuple[str, ...] | list[str]) -> str:
    return FUSE_SEP.join(axes)


# -- convenience constructors -------------------------------------------------


def split(axis: str, extent: int, factors: tuple[int, ...]) -> Primitive:
    return Primitive(PrimitiveKind.SP, axes=(axis,), ints=(extent, *factors))


def reorder(order: tuple[str, ...] | list[str]) -> Primitive:
    return Primitive(PrimitiveKind.RE, axes=tuple(order))


def fuse(axes: tuple[str, ...] | list[str]) -> Primitive:
    return Primitive(PrimitiveKind.FU, axes=tuple(axes))


def annotate(axis: str, annotation: str) -> Primitive:
    return Primitive(PrimitiveKind.AN, axes=(axis,), attr=annotation)


def pragma(axis: str, name: str, value: int) -> Primitive:
    return Primitive(PrimitiveKind.PR, axes=(axis,), ints=(value,), attr=name)


def follow_split(axis: str, extent: int, src_step: int) -> Primitive:
    return Primitive(PrimitiveKind.FSP, axes=(axis,), ints=(extent, src_step))


def compute_at(axis: str) -> Primitive:
    return Primitive(PrimitiveKind.CA, axes=(axis,))


def cache_write() -> Primitive:
    return Primitive(PrimitiveKind.CHW)


def rfactor(axis: str) -> Primitive:
    return Primitive(PrimitiveKind.RF, axes=(axis,))


def compute_inline() -> Primitive:
    return Primitive(PrimitiveKind.CI)


def compute_root() -> Primitive:
    return Primitive(PrimitiveKind.CP)


__all__ = [
    "ANNOTATIONS",
    "ARITY",
    "FUSE_SEP",
    "GPU_BIND_PREFIX",
    "KIND_BY_VALUE",
    "PRAGMAS",
    "Primitive",
    "PrimitiveKind",
    "annotate",
    "cache_write",
    "compute_at",
    "compute_inline",
    "compute_root",
    "follow_split",
    "fuse",
    "fused_name",
    "pragma",
    "reorder",
    "rfactor",
    "split",
    "split_names",
]
