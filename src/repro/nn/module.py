"""Parameter registry and module tree.

:class:`Parameter` is a :class:`~repro.nn.tensor.Tensor` that always
requires grad; :class:`Module` discovers parameters by walking its
attribute dict (submodules, parameters, and lists/tuples of either), so
layers register state just by assigning ``self.weight = Parameter(...)``
— no explicit registration calls, no hidden globals (DESIGN.md §7).
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor, TensorLike


class CheckpointError(ValueError):
    """A checkpoint file is not a readable ``.npz`` archive."""


def read_archive(path: Path) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` archive at ``path``, read in full.

    A file that is not a readable archive (truncated, corrupted, not an
    archive) raises :class:`CheckpointError` naming it, so a bad file
    fails before anything validates or assigns its contents.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc


def write_archive(path: Path, arrays: dict[str, np.ndarray]) -> Path:
    """Write ``arrays`` as an ``.npz`` archive at ``path``, atomically.

    The archive goes to a ``.tmp`` sibling first and is renamed over
    ``path`` only once complete, so a save that fails or is killed
    partway through leaves the last good file as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


class Parameter(Tensor):
    """A trainable tensor — ``requires_grad`` is always on."""

    def __init__(self, data: TensorLike):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class: parameter discovery, train/eval mode, state dicts."""

    #: Training-mode flag; ``train()``/``eval()`` set an instance attribute
    #: on every module in the tree.
    training: bool = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- tree walking ----------------------------------------------------

    def _children(self) -> Iterator[tuple[str, "Module | Parameter"]]:
        for name, value in vars(self).items():
            if isinstance(value, (Parameter, Module)):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, (Parameter, Module)):
                        yield f"{name}.{i}", item

    def modules(self) -> Iterator["Module"]:
        """This module and every descendant, depth-first."""
        yield self
        for _, child in self._children():
            if isinstance(child, Module):
                yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, child in self._children():
            path = f"{prefix}{name}"
            if isinstance(child, Parameter):
                yield path, child
            else:
                yield from child.named_parameters(f"{path}.")

    def parameters(self) -> list[Parameter]:
        seen: set[int] = set()
        params: list[Parameter] = []
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                params.append(p)
        return params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- training state --------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def check_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Raise unless ``state`` holds exactly this module's parameters,
        each at its shape; assigns nothing."""
        own = dict(self.named_parameters())
        missing = sorted(own.keys() - state.keys())
        extra = sorted(state.keys() - own.keys())
        if missing or extra:
            raise ValueError(f"state dict mismatch: missing {missing}, unexpected {extra}")
        for name, p in own.items():
            shape = np.shape(state[name])
            if shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name!r}: {shape} vs {p.data.shape}")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Replace every parameter, once :meth:`check_state_dict` accepts
        the whole of ``state``."""
        self.check_state_dict(state)
        for name, p in self.named_parameters():
            p.data = np.array(state[name], dtype=np.float32)

    def save(self, path: str | Path) -> Path:
        """Write the state dict to ``path`` as an ``.npz`` archive,
        atomically (:func:`write_archive`).

        The serving warm-restart format: ``load`` on a freshly
        constructed module of the same architecture restores bit-identical
        weights (float32 round-trips exactly through ``np.savez``).
        """
        return write_archive(Path(path), self.state_dict())

    def load(self, path: str | Path) -> "Module":
        """Restore a state dict written by :meth:`save`; returns ``self``.

        Validates names and shapes through ``load_state_dict``, so an
        architecture mismatch fails loudly instead of mis-assigning; a
        file that is not a readable archive raises
        :class:`CheckpointError` naming it.
        """
        self.load_state_dict(read_archive(Path(path)))
        return self


__all__ = ["CheckpointError", "Module", "Parameter", "read_archive", "write_archive"]
