"""Read mapping: exact (both strands), batched, approximate."""

from .._lazy import lazy_exports

# Names resolve on first access: exact mapping never loads the mismatch
# search.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".batch": ("BatchRunReport", "run_mapping_batch"),
    ".mapper": ("Mapper", "StackedMapper"),
    ".stream": ("StreamSummary", "map_fastq_to_tsv", "map_stream"),
    ".mismatch": ("ApproxHit", "RescueResult", "count_with_mismatches",
                  "locate_with_mismatches", "map_with_rescue", "search_with_mismatches"),
    ".query": ("MAX_QUERY_BASES", "QUERY_BITS", "QUERY_WORDS", "QueryRecord",
               "QueryTooLongError", "pack_queries", "pack_query", "unpack_queries",
               "unpack_query"),
    ".results": ("MappedBatch", "MappingResult", "StrandHit", "mapping_ratio",
                 "write_hits_tsv"),
    ".sam": ("write_sam_multiref", "write_sam_single"),
})
