"""End-to-end index construction: the host-side steps of BWaveR.

The paper's workflow (§III-D, Fig. 4) has three steps; the first two run
on the host CPU and build the index:

1. **BWT and SA computation** — reference text → suffix array → BWT;
2. **BWT encoding** — BWT → wavelet tree of RRR sequences.

(The third step, sequence mapping, is :mod:`repro.mapper` /
:mod:`repro.fpga`.)

:func:`build_index` returns the finished :class:`~repro.index.fm_index.FMIndex`
together with a :class:`BuildReport` carrying per-step wall-clock times
and structure sizes — the exact quantities plotted in Figs. 5 and 6.
Both are defined with the build stages in :mod:`repro.index.build_stream`,
which also writes out-of-core builds.
"""

from __future__ import annotations

import time

from ..core.bwt_structure import BWTStructure
from ..core.rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR
from ..sequence.bwt import BWT
from .build_stream import Backend, BuildReport, Locate, build_index

__all__ = ["Backend", "BuildReport", "Locate", "build_index", "encode_existing_bwt"]


def encode_existing_bwt(
    bwt: BWT,
    b: int = DEFAULT_BLOCK_SIZE,
    sf: int = DEFAULT_SUPERBLOCK_FACTOR,
) -> tuple[BWTStructure, float]:
    """Step 2 alone: encode a precomputed BWT, returning (structure, seconds).

    This isolates exactly what Fig. 6 measures — the succinct-encoding
    time as a function of ``b`` and ``sf`` — without re-running suffix
    sorting.
    """
    t0 = time.perf_counter()
    struct = BWTStructure(bwt, b=b, sf=sf)
    return struct, time.perf_counter() - t0
