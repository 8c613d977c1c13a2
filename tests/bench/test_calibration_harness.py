"""Unit tests for calibration models, paper data, and the harness."""

import pytest

from repro.bench.calibration import (
    DEFAULT_BOWTIE2_MODEL,
    DEFAULT_CPU_MODEL,
    PAPER_FIG5,
    PAPER_TABLE1,
    PAPER_TABLE2,
    NativeBowtie2CostModel,
    NativeCPUCostModel,
)
from repro.bench.harness import (
    experiment_fig5,
    experiment_fig6,
    experiment_fig7,
    get_index,
    get_reference,
)
from repro.bench.reporting import (
    fmt_bytes,
    fmt_ms,
    fmt_ratio,
    render_table,
)

SCALE = 0.002  # tiny scale so harness tests stay fast


class TestCostModels:
    def test_cpu_model_linear_in_counts(self):
        m = NativeCPUCostModel()
        one = m.seconds({"binary_ranks": 100, "class_sum_iterations": 1000})
        two = m.seconds({"binary_ranks": 200, "class_sum_iterations": 2000})
        assert two == pytest.approx(2 * one)

    def test_cpu_model_paper_anchor(self):
        """~2.47 us/read for 35 bp reads, sf=50 (Table I's CPU row)."""
        # Per read, both strands, all mapped: 70 steps, 280 binary ranks,
        # 280 * (sf/2 = 25) class iterations.
        per_read = DEFAULT_CPU_MODEL.seconds(
            {
                "bs_steps": 70,
                "binary_ranks": 280,
                "class_sum_iterations": 280 * 25,
                "queries": 2,
            }
        )
        assert per_read == pytest.approx(2.47e-6, rel=0.3)

    def test_bowtie2_model_paper_anchor(self):
        """~1.77 us/read for the same workload (Table I's Bowtie2 row).

        Per read: 70 steps across both strands, 2 Occ calls per step
        (lo and hi) = 140 checkpoint ranks, each scanning ~64 bases on
        average at the default checkpoint spacing of 128 rows.
        """
        per_read = DEFAULT_BOWTIE2_MODEL.seconds(
            {
                "bs_steps": 70,
                "occ_checkpoint_ranks": 140,
                "occ_scan_chars": 140 * 64,
                "queries": 2,
            }
        )
        assert per_read == pytest.approx(1.77e-6, rel=0.3)

    def test_bowtie2_model_zero_counts(self):
        assert NativeBowtie2CostModel().seconds({}) == 0.0


class TestPaperData:
    def test_table1_internally_consistent(self):
        t = PAPER_TABLE1["times_ms"]
        s = PAPER_TABLE1["speedup_vs_fpga"]
        for name, speedup in s.items():
            assert t[name] / t["fpga"] == pytest.approx(speedup, rel=0.01)

    def test_table2_internally_consistent(self):
        for n, row in PAPER_TABLE2["rows"].items():
            t = row["times_ms"]
            for name, speedup in row["speedup_vs_fpga"].items():
                assert t[name] / t["fpga"] == pytest.approx(speedup, rel=0.01)

    def test_fig5_saving_consistent(self):
        # The paper's "up to 68.3 %" saving corresponds to the Chr21 run
        # (12.73 / 40.1 MB); E. coli saves ~62.9 %.
        c = PAPER_FIG5["chr21"]
        saving = 100 * (1 - c["b15_sf100_mb"] / c["uncompressed_mb"])
        assert saving == pytest.approx(
            PAPER_FIG5["max_space_saving_percent"], abs=1.0
        )


class TestHarness:
    def test_reference_cached(self):
        a = get_reference("ecoli", SCALE)
        b = get_reference("ecoli", SCALE)
        assert a is b

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_reference("mars_genome", SCALE)

    def test_index_cached(self):
        a, _ = get_index("ecoli", scale=SCALE)
        b, _ = get_index("ecoli", scale=SCALE)
        assert a is b

    def test_fig5_rows_and_trends(self):
        rows = experiment_fig5(
            profiles=("ecoli",), b_values=(5, 15), sf_values=(50, 200), scale=SCALE
        )
        assert len(rows) == 4
        by_key = {(r["b"], r["sf"]): r for r in rows}
        # Fig. 5 trend: larger b and sf compress better.  The comparison
        # is at paper scale — on tiny test references the constant shared
        # table (which grows with b) dominates the measurement.
        assert by_key[(15, 200)]["paper_scale_mb"] < by_key[(5, 50)]["paper_scale_mb"]
        # Within a fixed b, larger sf always shrinks the measured bytes.
        assert by_key[(15, 200)]["structure_bytes"] < by_key[(15, 50)]["structure_bytes"]
        assert all("paper_scale_mb" in r for r in rows)

    def test_fig6_rows(self):
        rows = experiment_fig6(
            profiles=("ecoli",), b_values=(5, 15), sf_values=(50,), scale=SCALE, repeats=1
        )
        assert len(rows) == 2
        assert all(r["encode_seconds"] > 0 for r in rows)

    def test_fig7_rows_and_ratio_trend(self):
        rows = experiment_fig7(
            profiles=("ecoli",),
            configs=((15, 50),),
            ratios=(0.0, 1.0),
            n_reads=60,
            read_length=50,
            scale=SCALE,
        )
        assert len(rows) == 4  # 2 ratios x jump-start table off/on
        by = {(r["ftab"], r["mapping_ratio"]): r for r in rows}
        # Fig. 7 trend: mapped reads do more backward-search work.
        for use_ftab in (False, True):
            r0, r1 = by[(use_ftab, 0.0)], by[(use_ftab, 1.0)]
            assert r1["bs_steps_per_read"] > r0["bs_steps_per_read"]
            assert r1["native_cpu_ms_240k"] > r0["native_cpu_ms_240k"]
        # The table strictly reduces executed work at every point.
        for ratio in (0.0, 1.0):
            assert (
                by[(True, ratio)]["bs_steps_per_read"]
                < by[(False, ratio)]["bs_steps_per_read"]
            )


class TestReporting:
    def test_fmt_ms(self):
        assert fmt_ms(3.623) == "3,623"

    def test_fmt_ratio(self):
        assert fmt_ratio(68.234) == "68.23x"
        assert fmt_ratio(float("nan")) == "-"
        assert fmt_ratio(float("inf")) == "-"

    def test_fmt_bytes(self):
        assert fmt_bytes(12_730_000) == "12.73 MB"
        assert fmt_bytes(1_720) == "1.72 KB"
        assert fmt_bytes(12) == "12 B"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5
