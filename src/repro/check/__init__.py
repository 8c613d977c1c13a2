"""Differential self-check harness for the succinct stack.

``repro selfcheck`` drives every fast implementation (RRR vectors,
wavelet trees, FM-index scalar and batch search, the FPGA functional
model, the flat mmap container, the worker pool, the k-mer jump-start
table, the request coalescer, the shard router) against slow oracles on
seeded adversarial inputs, shrinks any mismatch to a minimal
counterexample, and stores it under ``tests/corpus/`` as a permanent
regression guard.  See DESIGN.md §9.
"""

from .differential import (
    ALL_CHECKS,
    CHECKS_BY_NAME,
    Check,
    SelfCheck,
    get_check,
)
from .generators import PROFILES, CheckProfile, rng_for
from .oracles import (
    naive_occ,
    naive_rank0,
    naive_rank1,
    naive_select1,
    normalize,
    oracle_mapping,
    oracle_occurrences,
)
from .report import (
    CheckOutcome,
    Counterexample,
    SelfCheckReport,
    load_corpus,
    write_corpus_file,
)
from .shrink import shrink_bits, shrink_list, shrink_string

__all__ = [
    "ALL_CHECKS",
    "CHECKS_BY_NAME",
    "Check",
    "CheckOutcome",
    "CheckProfile",
    "Counterexample",
    "PROFILES",
    "SelfCheck",
    "SelfCheckReport",
    "get_check",
    "load_corpus",
    "naive_occ",
    "naive_rank0",
    "naive_rank1",
    "naive_select1",
    "normalize",
    "oracle_mapping",
    "oracle_occurrences",
    "rng_for",
    "shrink_bits",
    "shrink_list",
    "shrink_string",
    "write_corpus_file",
]
