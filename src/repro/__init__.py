"""BWaveR reproduction: succinct DNA sequence mapping with a simulated FPGA.

Public API tour
---------------

Build an index and map reads::

    from repro import build_index, Mapper

    index, report = build_index("ACGTACGTTTAGGC...")
    mapper = Mapper(index)
    hits = mapper.map_read("ACGTT")          # forward + reverse complement

Offload the mapping step to the simulated FPGA::

    from repro.fpga import FPGAAccelerator

    acc = FPGAAccelerator.for_index(index)
    result = acc.map_batch(reads)
    print(result.modeled_seconds, result.energy_joules)

Subpackages
-----------

``repro.core``
    The paper's contribution: RRR sequences, wavelet trees, the composed
    BWT structure.
``repro.sequence``
    Substrate: alphabet codes, suffix arrays (naive / doubling / SA-IS),
    BWT, sampled suffix arrays.
``repro.index``
    FM-index (backward search, Eq. 4-5), the checkpointed-Occ baseline
    backend, build pipeline, the flat on-disk index container.
``repro.mapper``
    Read mapping (both strands), 512-bit query packing, batching,
    mismatch extension, SAM and TSV output.
``repro.fpga``
    Transaction-level Alveo U200 model: BRAM, kernel, OpenCL-like
    runtime, cycle/power models.
``repro.io``
    FASTA/FASTQ (plain and gzip), read simulator, synthetic reference
    generator.
``repro.baseline``
    Bowtie2-like exact matcher and naive oracles.
``repro.web``
    The three-step BWaveR web workflow as a stdlib WSGI app.
``repro.bench``
    Calibration constants and the table/figure regeneration harness.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Names resolve on first access, so ``import repro`` loads no subpackage.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": ("BitVector", "BWTStructure", "CounterScope", "OpCounters",
              "RRRVector", "WaveletTree"),
    ".index": ("FMIndex", "build_index", "load_index", "save_index"),
    ".mapper": ("Mapper", "MappingResult"),
    ".sequence": ("bwt_from_string", "encode", "decode", "reverse_complement",
                  "suffix_array"),
})
__all__ = sorted([*__all__, "__version__"])
