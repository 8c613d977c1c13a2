"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload map_bulk --seed 1 --seconds 20 --trace 0

Builds the workload's seeded inputs (cached per workload and seed), runs
it against the program in ``src/``, checks every output with an oracle
that does not use the FM-index, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run is made twice, untraced and then through the
tracing launcher, and the metrics are the per-layer table plus the
tracing overhead (traced minus untraced) of each end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from procs import ROOT, SRC, WORK, BenchError, require_program  # noqa: E402

WORKLOADS = ("map_bulk", "http_catalog", "index_build")
OVERHEAD = "trace_overhead."


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """``(end-to-end, per-layer)`` metric name -> unit, in the order
    ``BENCHMARK.json`` declares them; the ``trace_overhead.*`` entries
    are derived from the end-to-end ones and left out of the second."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"] if not m["name"].startswith(OVERHEAD)}
    return e2e, layer


def _run_once(workload: str, seconds: float, d: Path, doc: dict, run_dir: Path,
              trace: Path | None):
    import workloads

    run_dir.mkdir(parents=True, exist_ok=True)
    res = getattr(workloads, workload)(d, doc, seconds, run_dir, trace)
    t = res.tally
    res.metrics["ok_share"] = (t.attempted - t.failed) / t.attempted if t.attempted else 0.0
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        require_program()
        e2e_units, layer_units = declared_units()
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import prepare
    from stats import host_calibration_ms

    d, doc = prepare(args.workload, args.seed)
    runs_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(runs_dir, ignore_errors=True)
    calib = [host_calibration_ms()]
    plain = _run_once(args.workload, args.seconds, d, doc, runs_dir / "plain", None)
    results = [plain]
    if args.trace:
        traced = _run_once(args.workload, args.seconds, d, doc, runs_dir / "traced",
                           runs_dir / "spans")
        results.append(traced)
    calib.append(host_calibration_ms())
    calib_ms = sum(calib) / len(calib)

    attempted = sum(r.tally.attempted for r in results)
    failed = sum(r.tally.failed for r in results)
    if args.trace:
        from layers import layer_table

        table = layer_table(traced, calib_ms, list(layer_units))
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in table.items()}
        for k, unit in e2e_units.items():
            metrics[f"{OVERHEAD}{k}"] = {
                "value": traced.metrics[k] - plain.metrics[k], "unit": unit,
            }
    else:
        metrics = {k: {"value": plain.metrics[k], "unit": u} for k, u in e2e_units.items()}
    notes = [n for r in results for n in r.tally.notes]
    for n in notes:
        print(f"failure: {n}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} host.calib_ms={calib_ms:.1f} "
        f"client={json.dumps(plain.client)}"
    )
    if failed == 0:
        shutil.rmtree(runs_dir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
