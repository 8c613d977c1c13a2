"""Functional model of the backward-search kernel (paper §III-C).

The kernel is the device-side half of BWaveR: it holds the succinct BWT
structure in on-chip memory, fetches 512-bit query records, computes each
query's reverse complement on the fly, runs both backward searches in
parallel pipelines, and streams back ``[start, end]`` interval pairs for
both strands.

This model is **functionally exact** — the intervals it produces are
asserted bit-identical to the software :class:`~repro.mapper.mapper.Mapper`
by the equivalence tests — and **instrumented**: it records the hardware
step count per query (the *max* of the two strands' steps, because the
strand pipelines run in lockstep) and attributes the rank structures'
memory operations to BRAM banks.  The cycle model converts those
statistics to modeled time; nothing here sleeps or fakes latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bwt_structure import BWTStructure
from ..core.counters import CounterScope
from ..core.rrr import RRRVector
from ..faults import FaultInjector, KernelHangError
from ..index.fm_index import FMIndex
from ..index.ftab import Ftab
from ..mapper.mapper import Mapper
from ..mapper.query import unpack_queries
from ..mapper.results import MappedBatch
from ..telemetry import get_telemetry
from .bram import BramModel
from .device import ALVEO_U200, DeviceSpec


@dataclass(frozen=True)
class QueryOutcome:
    """Device output for one query record: both strands' intervals.

    ``fwd_steps``/``rc_steps`` are *logical* backward-search steps — one
    per consumed pattern symbol — and stay bit-identical whether or not
    the kernel carries a k-mer jump-start table.  ``fwd_exec_steps`` /
    ``rc_exec_steps`` are the steps the pipeline actually executes: with
    an ftab the first ``k`` symbols collapse into one BRAM LUT burst,
    which counts as a single step-equivalent.  A negative value means
    "no ftab: executed == logical".
    """

    query_id: int
    fwd_start: int
    fwd_end: int
    rc_start: int
    rc_end: int
    fwd_steps: int
    rc_steps: int
    fwd_exec_steps: int = -1
    rc_exec_steps: int = -1

    @property
    def hw_steps(self) -> int:
        """Pipeline occupancy: the slower strand bounds the record."""
        f = self.fwd_exec_steps if self.fwd_exec_steps >= 0 else self.fwd_steps
        r = self.rc_exec_steps if self.rc_exec_steps >= 0 else self.rc_steps
        return max(f, r)

    @property
    def mapped(self) -> bool:
        return self.fwd_end > self.fwd_start or self.rc_end > self.rc_start


@dataclass
class KernelRun:
    """Aggregate result of one kernel invocation."""

    outcomes: list[QueryOutcome]
    hw_steps_total: int
    sw_steps_total: int
    op_counts: dict[str, int] = field(default_factory=dict)
    bram_traffic: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def n_reads(self) -> int:
        return len(self.outcomes)

    @property
    def mapped_reads(self) -> int:
        return sum(1 for o in self.outcomes if o.mapped)

    def result_array(self) -> np.ndarray:
        """The (n, 4) int64 interval buffer the device would DMA back."""
        return np.array(
            [[o.fwd_start, o.fwd_end, o.rc_start, o.rc_end] for o in self.outcomes],
            dtype=np.int64,
        ).reshape(-1, 4)


def executed_steps(ftab: Ftab | None, seq_len, steps):
    """Pipeline slots one strand occupies for ``steps`` logical steps
    (scalars or arrays, elementwise).

    With an ftab, a query of length >= k replaces its first k iterations
    with one LUT burst (one step-equivalent); entries that emptied inside
    the seed region (steps < k) also cost exactly the one burst.
    """
    if ftab is None:
        return steps
    return np.where(seq_len < ftab.k, steps, np.maximum(steps - (ftab.k - 1), 1))


def batch_outcomes(
    batch: MappedBatch, query_ids, ftab: Ftab | None
) -> tuple[list[QueryOutcome], int, int]:
    """Device outcomes of a mapped batch, one per query id, with the
    batch's hardware (slower strand per record) and software step totals."""
    exec_steps = executed_steps(ftab, batch.lengths[:, None], batch.steps)
    rows = np.column_stack(
        [batch.lo[:, 0], batch.hi[:, 0], batch.lo[:, 1], batch.hi[:, 1],
         batch.steps, exec_steps]
    ).tolist()
    outcomes = [QueryOutcome(qid, *row) for qid, row in zip(query_ids, rows)]
    return outcomes, int(exec_steps.max(axis=1, initial=0).sum()), int(batch.steps.sum())


class BackwardSearchKernel:
    """The device kernel: succinct structure + dual search pipelines.

    Parameters
    ----------
    structure:
        The :class:`BWTStructure` to keep on-chip.  Construction *places*
        every array of the structure into the BRAM model, raising
        :class:`~repro.fpga.device.CapacityError` when the reference is
        too large for the card — the simulated analogue of failing to
        fit at synthesis.
    spec:
        Device description (capacity, port width, clock).
    injector:
        Optional :class:`~repro.faults.FaultInjector`; when attached, the
        kernel is subject to injected hangs and garbage result records,
        and its BRAM banks to bit upsets.  The kernel's own CRC check on
        bank access is the detection side.
    ftab:
        Optional k-mer jump-start table.  When given, it is placed as an
        on-chip ``ftab_lut`` bank and each strand's first ``k`` pipeline
        iterations are replaced by one LUT burst; reported intervals and
        logical step counts stay bit-identical.
    """

    def __init__(
        self,
        structure: BWTStructure,
        spec: DeviceSpec = ALVEO_U200,
        injector: FaultInjector | None = None,
        ftab: Ftab | None = None,
    ):
        self.structure = structure
        self.spec = spec
        self.injector = injector
        self.ftab = ftab
        self.bram = BramModel(spec=spec)
        self._place_structure()
        self._index = FMIndex(structure, locate_structure=None, ftab=ftab)
        self.mapper = Mapper(self._index, locate=False)

    def _place_structure(self) -> None:
        """Allocate one bank per logical array of the structure.

        Arrays with a host-side byte image seed the bank contents (and
        thereby the bank's CRC word); packed streams without one get a
        zero image of the right size — the integrity check works the
        same either way.
        """
        tree = self.structure.tree
        for i, node in enumerate(tree.nodes()):
            bits = node.bits
            if isinstance(bits, RRRVector):
                self.bram.allocate(f"node{i}_classes", (bits.n_blocks + 1) // 2)
                self.bram.allocate(
                    f"node{i}_psums", bits.partial_sums.nbytes, data=bits.partial_sums
                )
                self.bram.allocate(
                    f"node{i}_osums", bits.offset_sums.nbytes, data=bits.offset_sums
                )
                self.bram.allocate(f"node{i}_offsets", (bits.offset_bits + 7) // 8)
            else:
                self.bram.allocate(f"node{i}_bits", bits.size_in_bytes())
        # Shared tables (one copy, the paper's sharing) + C array + $ pos.
        root = tree.root.bits
        if isinstance(root, RRRVector):
            self.bram.allocate("global_rank_table", root.tables.size_in_bytes())
        self.bram.allocate("c_array", self.structure.C.nbytes, data=self.structure.C)
        self.bram.allocate("meta", 16)
        if self.ftab is not None:
            # K-mer jump-start LUT: one bank holding the table's bounds,
            # steps and short-suffix starts, read as a single burst at
            # pipeline entry.
            image = np.concatenate(
                [
                    np.frombuffer(arr.tobytes(), dtype=np.uint8)
                    for arr in self.ftab.export_arrays()[1].values()
                ]
            )
            self.bram.allocate("ftab_lut", image.nbytes, data=image)

    @property
    def n_rows(self) -> int:
        """Rows of the BWT matrix (the bound result intervals live in)."""
        return self._index.n_rows

    def reprogram(self) -> int:
        """Reload every bank from the host's golden copy (device reset +
        reprogram recovery rung); returns the number of banks restored."""
        return self.bram.reprogram()

    # -- execution ------------------------------------------------------------

    def execute(self, records: np.ndarray) -> KernelRun:
        """Process a buffer of packed 512-bit query records.

        Decodes the records (as the device does) and runs both strands'
        backward searches through the same batch contract as the CPU
        mapper (:meth:`~repro.mapper.mapper.Mapper.map_reads`; the reverse
        complement is derived from the codes, as the device derives it on
        the fly), then charges BRAM traffic from the operation counts of
        that search, taken in its own ``CounterScope``.
        """
        if self.injector is not None and self.injector.hang_kernel():
            raise KernelHangError(
                "kernel produced no completion within the watchdog deadline "
                "(simulated hang)"
            )
        # On-access integrity: the succinct structure is read start to end
        # every invocation, so the CRC words are checked here, before any
        # interval leaves the device.
        self.bram.verify_integrity()
        queries = unpack_queries(records)
        with CounterScope() as scope:
            batch = self.mapper.map_reads([q.sequence for q in queries])
        outcomes, hw_total, sw_total = batch_outcomes(
            batch, [q.query_id for q in queries], self.ftab
        )
        if self.injector is not None:
            gi = self.injector.garble_index(len(outcomes))
            if gi is not None:
                bad = outcomes[gi]
                outcomes[gi] = QueryOutcome(
                    query_id=bad.query_id,
                    fwd_start=-1,
                    fwd_end=self._index.n_rows + 17,
                    rc_start=bad.rc_end,
                    rc_end=bad.rc_start,
                    fwd_steps=bad.fwd_steps,
                    rc_steps=bad.rc_steps,
                    fwd_exec_steps=bad.fwd_exec_steps,
                    rc_exec_steps=bad.rc_exec_steps,
                )
        self._charge_bram(scope.delta)
        tel = get_telemetry()
        if tel.enabled:
            m = tel.metrics
            m.counter(
                "fpga_kernel_invocations_total", "Kernel executions on the model"
            ).inc()
            m.counter(
                "fpga_kernel_reads_total", "Query records processed by the kernel"
            ).inc(len(outcomes))
            m.counter(
                "fpga_hw_steps_total",
                "Hardware pipeline steps (max of the two strands per record)",
            ).inc(hw_total)
        return KernelRun(
            outcomes=outcomes,
            hw_steps_total=hw_total,
            sw_steps_total=sw_total,
            op_counts=scope.delta,
            bram_traffic=self.bram.traffic(),
        )

    def _charge_bram(self, delta: dict[str, int]) -> None:
        """Attribute counter deltas to bank traffic.

        Placement is per-node but traffic attribution is aggregate (the
        counters do not distinguish nodes); the root node's banks act as
        the ledger, which is sufficient for the invariants the tests
        check (reads-per-rank bounds).
        """
        t = self.bram.banks
        if "node0_classes" in t:
            t["node0_classes"].read(delta.get("class_sum_iterations", 0))
            t["node0_psums"].read(delta.get("superblock_reads", 0))
            t["node0_offsets"].read(delta.get("offset_reads", 0))
        if "global_rank_table" in t:
            t["global_rank_table"].read(delta.get("table_lookups", 0))
        t["c_array"].read(2 * delta.get("bs_steps", 0))
        if "ftab_lut" in t:
            # One burst per jump-start lookup; the counter's bs_steps is
            # already net of the k iterations the burst replaces.
            t["ftab_lut"].read(delta.get("ftab_lookups", 0))

    def structure_bytes(self) -> int:
        """On-chip footprint as placed (what the load overhead transfers)."""
        return self.bram.allocated_bytes
