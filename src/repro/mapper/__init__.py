"""Read mapping: exact (both strands), batched, approximate."""

from .batch import BatchRunReport, run_mapping_batch
from .mapper import Mapper
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
    write_hits_tsv,
)
from .sam import write_sam_multiref, write_sam_single

__all__ = [
    "ApproxHit",
    "BatchRunReport",
    "StreamSummary",
    "map_fastq_to_tsv",
    "map_stream",
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
    "StrandHit",
    "count_with_mismatches",
    "locate_with_mismatches",
    "map_with_rescue",
    "mapping_ratio",
    "pack_queries",
    "pack_query",
    "run_mapping_batch",
    "search_with_mismatches",
    "unpack_queries",
    "unpack_query",
    "write_hits_tsv",
]
