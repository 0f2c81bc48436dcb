"""Which OpenBLAS kernel numpy's float32 GEMMs run on.

The wheel's scipy-openblas is built for several CPUs and picks its
kernel at load time (``OPENBLAS_CORETYPE`` forces one).  The row rule
the packed and distinct-row forwards of :mod:`repro.nn.functional` rest
on was measured per kernel: it holds on SkylakeX and Sandybridge and
fails on Haswell.  CI logs the kernel, ``benchmarks/save.py`` records it
in every report's ``config``, and ``tests/test_blas_rows.py`` names it
when the rule fails.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np


@functools.lru_cache(maxsize=None)
def openblas_core() -> str:
    """The kernel name OpenBLAS reports (``SkylakeX``, ``Haswell``, ...),
    read with ctypes from numpy's scipy-openblas library; ``unknown``
    when numpy ships no such library."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                         "numpy.libs", "libscipy_openblas*")))
    if not libs:
        return "unknown"
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


__all__ = ["openblas_core"]
