"""FM-index layer: backward search over pluggable rank backends."""

from .._lazy import lazy_exports

# Names resolve on first access: mapping never loads the builders.  The
# flat container is the one on-disk format, so it supplies the public
# persistence names; ``load_index`` opens lazily (``verify=True`` checks
# segment CRCs).
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bidirectional": ("BidirectionalFMIndex", "BiInterval"),
    ".build_stream": ("BuildResumeError", "StreamingRRREncoder", "build_index_blockwise"),
    ".builder": ("BuildReport", "build_index", "encode_existing_bwt"),
    ".extract": ("TextExtractor",),
    ".flat": (
        "FlatWriter",
        "IndexFormatError",
        "attach_index_from_buffer",
        "load_any_index_auto",
        "load_index_flat",
        "load_multiref_index_flat",
        "save_index_flat",
        "save_multiref_index_flat",
        "verify_flat_index",
        "save_index=save_index_flat",
        "load_index=load_index_flat",
    ),
    ".fm_index": ("FMIndex", "SearchResult"),
    ".ftab": ("DEFAULT_FTAB_K", "Ftab", "build_ftab"),
    ".multiref": ("MultiReferenceIndex", "MultiRefMapping", "ReferenceHit"),
    ".occ_table": ("OccTable", "pack_2bit", "unpack_2bit"),
    ".stacked": ("StackedIndex", "stack_groups", "stack_key"),
    ".partitioned": ("Chunk", "PartitionedIndex"),
    ".validate": ("IndexValidationError", "ValidationReport", "validate_index"),
})
