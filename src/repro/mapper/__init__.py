"""Read mapping: exact (both strands), batched, approximate, seed-extend."""

from .batch import BatchRunReport, run_mapping_batch, run_mapping_multiprocess
from .mapper import Mapper
from .paired import (
    PairedEndMapper,
    PairMapping,
    ProperPair,
    simulate_read_pairs,
)
from .stream import StreamSummary, map_fastq_to_tsv, map_stream
from .mismatch import (
    ApproxHit,
    RescueResult,
    count_with_mismatches,
    locate_with_mismatches,
    map_with_rescue,
    search_with_mismatches,
)
from .query import (
    MAX_QUERY_BASES,
    QUERY_BITS,
    QUERY_WORDS,
    QueryRecord,
    QueryTooLongError,
    pack_queries,
    pack_query,
    unpack_queries,
    unpack_query,
)
from .results import (
    MappedBatch,
    MappingResult,
    StrandHit,
    mapping_ratio,
    to_sam_lines,
    write_hits_tsv,
)
from .sam import paired_end_records, write_sam_multiref, write_sam_single
from .seed_extend import SeedExtendAligner, SeedExtendConfig, SeedExtendHit
from .smith_waterman import Alignment, ScoringScheme, smith_waterman, sw_score_only

__all__ = [
    "Alignment",
    "ApproxHit",
    "BatchRunReport",
    "PairMapping",
    "PairedEndMapper",
    "ProperPair",
    "StreamSummary",
    "map_fastq_to_tsv",
    "map_stream",
    "paired_end_records",
    "simulate_read_pairs",
    "write_sam_multiref",
    "write_sam_single",
    "MAX_QUERY_BASES",
    "MappedBatch",
    "Mapper",
    "MappingResult",
    "QUERY_BITS",
    "QUERY_WORDS",
    "QueryRecord",
    "QueryTooLongError",
    "RescueResult",
    "ScoringScheme",
    "SeedExtendAligner",
    "SeedExtendConfig",
    "SeedExtendHit",
    "StrandHit",
    "count_with_mismatches",
    "locate_with_mismatches",
    "map_with_rescue",
    "mapping_ratio",
    "pack_queries",
    "pack_query",
    "run_mapping_batch",
    "run_mapping_multiprocess",
    "search_with_mismatches",
    "smith_waterman",
    "sw_score_only",
    "to_sam_lines",
    "unpack_queries",
    "unpack_query",
    "write_hits_tsv",
]
