"""I/O substrate: FASTA/FASTQ (plain + gzip), read simulation, refgen."""

from .._lazy import lazy_exports

# Names resolve on first access: reading FASTQ never loads the simulators.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fasta": ("FastaError", "FastaRecord", "parse_fasta", "read_fasta",
               "read_fasta_str", "validate_record", "write_fasta"),
    ".fastq": ("FastqError", "FastqRecord", "parse_fastq", "read_fastq",
               "read_fastq_str", "sequences", "write_fastq"),
    ".qc": ("ReadSetQC", "qc_reads"),
    ".readsim": ("ReadTruth", "SimulatedReadSet", "mutate_reads", "simulate_reads"),
    ".refgen": ("CHR21_LIKE", "DEFAULT_SCALE", "E_COLI_LIKE", "ReferenceProfile",
                "generate_reference", "repeat_content_estimate"),
})
