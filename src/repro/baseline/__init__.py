"""Software competitors and brute-force oracles."""

from .bowtie2_like import Bowtie2Like, Bowtie2RunReport, assert_same_accuracy
from .hash_mapper import HashMapperStats, KmerHashMapper, ReadIndexedHashMapper
from .naive import (
    NaiveRank,
    count_occurrences,
    find_all,
    find_all_both_strands,
    find_with_mismatches,
)
from .threading_model import DEFAULT_THREAD_MODEL, PAPER_FITTED_SERIAL_FRACTION, AmdahlModel

__all__ = [
    "AmdahlModel",
    "Bowtie2Like",
    "Bowtie2RunReport",
    "DEFAULT_THREAD_MODEL",
    "HashMapperStats",
    "KmerHashMapper",
    "NaiveRank",
    "PAPER_FITTED_SERIAL_FRACTION",
    "ReadIndexedHashMapper",
    "assert_same_accuracy",
    "count_occurrences",
    "find_all",
    "find_all_both_strands",
    "find_with_mismatches",
]
