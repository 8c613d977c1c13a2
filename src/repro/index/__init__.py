"""FM-index layer: backward search over pluggable rank backends."""

from .bidirectional import BidirectionalFMIndex, BiInterval
from .build_stream import (
    BuildResumeError,
    StreamingRRREncoder,
    build_index_blockwise,
)
from .builder import BuildReport, build_index, encode_existing_bwt
from .extract import TextExtractor
from .flat import (
    FlatWriter,
    IndexFormatError,
    attach_index_from_buffer,
    load_any_index_auto,
    load_index_flat,
    load_multiref_index_flat,
    save_index_flat,
    save_multiref_index_flat,
    verify_flat_index,
)
from .fm_index import FMIndex, SearchResult
from .ftab import DEFAULT_FTAB_K, Ftab, build_ftab
from .multiref import MultiReferenceIndex, MultiRefMapping, ReferenceHit
from .occ_table import OccTable, pack_2bit, unpack_2bit
from .partitioned import Chunk, PartitionedIndex
from .validate import IndexValidationError, ValidationReport, validate_index

# The public persistence names: the flat container is the one on-disk format.
# ``load_index`` opens lazily; pass ``verify=True`` to check segment CRCs.
save_index = save_index_flat
load_index = load_index_flat

__all__ = [
    "BiInterval",
    "BidirectionalFMIndex",
    "BuildReport",
    "BuildResumeError",
    "Chunk",
    "DEFAULT_FTAB_K",
    "FMIndex",
    "FlatWriter",
    "Ftab",
    "IndexFormatError",
    "IndexValidationError",
    "MultiRefMapping",
    "MultiReferenceIndex",
    "OccTable",
    "PartitionedIndex",
    "ReferenceHit",
    "SearchResult",
    "StreamingRRREncoder",
    "TextExtractor",
    "ValidationReport",
    "attach_index_from_buffer",
    "build_ftab",
    "build_index",
    "build_index_blockwise",
    "encode_existing_bwt",
    "load_any_index_auto",
    "load_index",
    "load_index_flat",
    "load_multiref_index_flat",
    "pack_2bit",
    "save_index",
    "save_index_flat",
    "save_multiref_index_flat",
    "unpack_2bit",
    "validate_index",
    "verify_flat_index",
]
