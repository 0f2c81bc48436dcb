"""One SHA-256 over what the 11 primitive kinds mean.

Every subgraph of the five network pools, on cpu and gpu: 8 unverified
``generate_many`` samples each, plus every ``tests/corruptions.py``
mutation that applies to them.  For every sequence the digest takes the
collect-all and the ``stop_on_error`` diagnostics as
``(code, primitive_index, axis)`` (messages are free to change); for
every verifier-clean one it also takes the ``Schedule.apply()`` nest,
each profile loop's trip interval, and the bytes of the static feature
row.  The constant was computed before the verifier, the applier and the
abstract interpreter became one pass, so any change in validity, loop
structure or static profile moves it.
"""

from __future__ import annotations

import hashlib

from corruptions import CORRUPTIONS
from repro.analysis import absint, verify_many
from repro.tensorir import Schedule, SketchConfig, SketchGenerator
from repro.tensorir.networks import NETWORK_POOLS
from repro.utils.rng import stream

SEMANTICS_DIGEST = "9ab3964c0c531044244f79eb4ff7ba787018c687e66722120f5cd8a79d455da3"


def _corpus():
    subgraphs = list(
        dict.fromkeys(sg for pool in NETWORK_POOLS.values() for sg in pool.subgraphs)
    )
    for target in ("cpu", "gpu"):
        generator = SketchGenerator(SketchConfig(target))
        for i, sg in enumerate(subgraphs):
            rng = stream(f"test.semantics_digest.{target}.{i}")
            sequences = []
            for schedule in generator.generate_many(sg, 8, rng, verify=False):
                sequences.append(schedule.primitives)
                for _code, _name, mutator in CORRUPTIONS:
                    mutated = mutator(schedule)
                    if mutated is not None:
                        sequences.append(mutated)
            yield sg, target, sequences


def semantics_digest() -> str:
    h = hashlib.sha256()

    def put(*parts) -> None:
        h.update(repr(parts).encode())

    for sg, target, sequences in _corpus():
        full = verify_many(sg, sequences, target)
        stopped = verify_many(sg, sequences, target, stop_on_error=True)
        for seq, diags, early in zip(sequences, full, stopped):
            put("full", [(d.code, d.primitive_index, d.axis) for d in diags])
            put("stop", [(d.code, d.primitive_index, d.axis) for d in early])
            if any(d.is_error for d in diags):
                continue
            nest = Schedule(sg, seq, target).apply()
            put(
                "nest",
                [
                    (l.name, l.extent, l.kind.value, l.thread_tag, l.pragmas, l.rfactored)
                    for l in nest.loops
                ],
                nest.cache_write,
                nest.inlined,
                nest.compute_at_axis,
                nest.compute_root,
            )
            prof = absint.profile(sg, seq, target)
            put("trips", [(l.trip.lo, l.trip.hi) for l in prof.loops])
            h.update(prof.features().tobytes())
    return h.hexdigest()


def test_primitive_semantics_digest_is_pinned():
    assert semantics_digest() == SEMANTICS_DIGEST
