"""Runtime-reconfigurable two-pass mapping (Arram et al., paper §II).

The paper's related work describes a "runtime reconfigurable architecture
... entirely based on FM-index": all reads first pass through a fast
exact-alignment module, then "the FPGA fabric is reconfigured and any
unaligned read is processed by the slower one- and two-mismatches
alignment modules".  BWaveR itself stops at exact matching; this module
models the two-pass extension so the design space the paper situates
itself in is executable:

* **pass 1** — the existing exact kernel over all reads (modeled as
  usual);
* **reconfiguration** — a fixed fabric-reprogram overhead (partial
  bitstream load, ~100 ms class) plus reloading the BWT structure;
* **pass 2** — the k-mismatch module over the unmapped remainder only.
  Functionally it is :func:`repro.mapper.mismatch.search_with_mismatches`
  (both strands); its cost model charges the measured extension steps at
  the same pipeline rate (backtracking hardware explores one branch
  extension per cycle per lane, like the exact module).

The reported trade mirrors the related work's: rescue recovers reads at
the price of reconfiguration latency + the slower pass — worth it only
when enough reads need rescuing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bwt_structure import BWTStructure
from ..core.counters import CounterScope
from ..index.fm_index import FMIndex
from ..mapper.mismatch import search_with_mismatches
from ..sequence.alphabet import reverse_complement
from .accelerator import FPGAAccelerator
from .cost_model import DEFAULT_COST_MODEL, FPGACostModel

#: Fixed fabric-reconfiguration overhead (partial bitstream load).
DEFAULT_RECONFIG_SECONDS = 0.100


@dataclass
class TwoPassRun:
    """Outcome of an exact + k-mismatch rescue run."""

    n_reads: int
    exact_mapped: int
    rescued: int
    pass1_seconds: float
    reconfig_seconds: float
    pass2_seconds: float
    rescue_steps: int

    @property
    def total_seconds(self) -> float:
        return self.pass1_seconds + self.reconfig_seconds + self.pass2_seconds

    @property
    def total_mapped(self) -> int:
        return self.exact_mapped + self.rescued

    @property
    def exact_only_accuracy(self) -> float:
        return self.exact_mapped / self.n_reads if self.n_reads else 0.0

    @property
    def two_pass_accuracy(self) -> float:
        return self.total_mapped / self.n_reads if self.n_reads else 0.0


class TwoPassAccelerator:
    """Exact pass + reconfigure + k-mismatch rescue pass.

    Parameters
    ----------
    structure:
        The succinct BWT structure (shared by both passes).
    k:
        Mismatch budget of the rescue module (1 or 2, as in the related
        work).
    reconfig_seconds:
        Fabric reprogram overhead charged between passes.
    """

    def __init__(
        self,
        structure: BWTStructure,
        k: int = 1,
        cost_model: FPGACostModel = DEFAULT_COST_MODEL,
        reconfig_seconds: float = DEFAULT_RECONFIG_SECONDS,
    ):
        if k < 1 or k > 2:
            raise ValueError("the rescue module supports k in {1, 2}")
        if reconfig_seconds < 0:
            raise ValueError("reconfiguration overhead must be >= 0")
        self.structure = structure
        self.k = int(k)
        self.cost_model = cost_model
        self.reconfig_seconds = float(reconfig_seconds)
        self.accelerator = FPGAAccelerator(structure, cost_model=cost_model)
        self._index = FMIndex(structure, locate_structure=None)

    def map_batch(self, reads) -> TwoPassRun:
        """Run both passes; returns timing + accuracy accounting."""
        reads = list(reads)
        pass1 = self.accelerator.map_batch(reads, include_load=True)
        unmapped = [
            reads[i]
            for i, o in enumerate(pass1.kernel_run.outcomes)
            if not o.mapped
        ]
        rescued = 0
        rescue_steps = 0
        pass2_seconds = 0.0
        reconfig = 0.0
        if unmapped:
            reconfig = self.reconfig_seconds + self.cost_model.load_seconds(
                self.accelerator.structure_bytes
            )
            with CounterScope() as scope:
                for read in unmapped:
                    hit = False
                    for seq in (read, reverse_complement(read)):
                        if any(
                            h.count
                            for h in search_with_mismatches(self._index, seq, self.k)
                        ):
                            hit = True
                            break
                    if hit:
                        rescued += 1
            rescue_steps = scope.delta["bs_steps"]
            # The rescue module retires one branch extension per cycle per
            # lane, like the exact pipeline.
            pass2_seconds = self.cost_model.kernel_seconds(
                rescue_steps, len(unmapped)
            )
        return TwoPassRun(
            n_reads=len(reads),
            exact_mapped=pass1.kernel_run.mapped_reads,
            rescued=rescued,
            pass1_seconds=pass1.modeled_seconds,
            reconfig_seconds=reconfig,
            pass2_seconds=pass2_seconds,
            rescue_steps=rescue_steps,
        )

    def break_even_unmapped_fraction(self, n_reads: int, read_length: int) -> float:
        """Unmapped fraction above which the second pass costs more than
        it would cost to simply re-run exact mapping on everything.

        A rough planning number: pass-2 branch factors make each rescued
        read ~``3 * read_length`` times the steps of an exact read at
        k=1; the reconfiguration overhead amortizes over the batch.
        """
        exact_steps = n_reads * read_length
        exact_seconds = self.cost_model.kernel_seconds(exact_steps, n_reads)
        overhead = self.reconfig_seconds + self.cost_model.load_seconds(
            self.accelerator.structure_bytes
        )
        per_unmapped_steps = 3 * read_length * read_length  # k=1 branch cost
        per_unmapped_seconds = self.cost_model.kernel_seconds(per_unmapped_steps, 1)
        if per_unmapped_seconds <= 0:
            return 1.0
        frac = (exact_seconds - overhead) / (n_reads * per_unmapped_seconds)
        return max(0.0, min(1.0, frac))
