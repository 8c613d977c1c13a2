"""The paper's primary contribution: succinct rank structures.

Layering (bottom to top):

* :mod:`~repro.core.bitvector` — packed plain bit-vectors (construction
  intermediate, oracle, and "no compression" ablation arm);
* :mod:`~repro.core.global_tables` — the shared Global Rank Table and
  combinadic block coding;
* :mod:`~repro.core.rrr` — RRR sequences (Fig. 3 layout, Algorithm 1);
* :mod:`~repro.core.wavelet_tree` — balanced wavelet trees of pluggable
  bit-vectors (Figs. 1-2);
* :mod:`~repro.core.bwt_structure` — the composed BWaveR structure with
  the separate-``$`` optimization and the FM-index ``C``/``Occ`` queries;
* :mod:`~repro.core.counters` — run-scoped operation counting that
  feeds the analytic CPU/FPGA cost models.
"""

from .bitvector import BitVector
from .bwt_structure import BWTStructure
from .counters import CounterScope, OpCounters, current_counters
from .global_tables import GlobalRankTables, get_global_tables
from .interleaved import InterleavedRankVector, interleaved_factory
from .rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR, RRRVector
from .wavelet_tree import WaveletTree, wavelet_tree_from_string

__all__ = [
    "BWTStructure",
    "BitVector",
    "CounterScope",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_SUPERBLOCK_FACTOR",
    "GlobalRankTables",
    "InterleavedRankVector",
    "OpCounters",
    "RRRVector",
    "WaveletTree",
    "current_counters",
    "get_global_tables",
    "interleaved_factory",
    "wavelet_tree_from_string",
]
