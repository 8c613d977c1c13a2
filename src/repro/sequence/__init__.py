"""Sequence substrate: alphabets, suffix arrays, BWT, locate structures."""

from .._lazy import lazy_exports

# Names resolve on first access, except ``suffix_array``, which is also a
# submodule's name and is bound at import (see ``lazy_exports``).
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".alphabet": ("DNA_ALPHABET", "SENTINEL", "SIGMA", "AlphabetError", "decode",
                  "encode", "gc_fraction", "is_valid", "random_sequence",
                  "reverse_complement"),
    ".bwt": ("BWT", "bwt_from_codes", "bwt_from_string", "count_array", "entropy0",
             "inverse_bwt", "run_length_stats"),
    ".sampled_sa": ("FullSA", "SampledSA"),
    ".suffix_array": ("lcp_array", "naive_suffix_array", "rank_array", "suffix_array",
                      "verify_suffix_array"),
})
