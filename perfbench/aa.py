"""Same-code (A/A) runs and their comparison against the benchmark's bounds.

Collect a set of runs, one seed each, appending every run's result line
to a JSON-lines file::

    python3 perfbench/aa.py collect --workload http_catalog --seeds 1-10 --out a.jsonl

Compare one set (spread only) or two sets of the same code::

    python3 perfbench/aa.py compare a.jsonl [b.jsonl]

For each workload and end-to-end metric it prints the median, the
quartile spread (Q3 - Q1 over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) and, with two sets, how
far the second median moved in the metric's worse direction.  A spread
of either set above the metric's ``bound`` in BENCHMARK.json, or a move
worse than the bound, fails; a spread above a third of the bound
is flagged as not yet steady.  Exit code 1 when anything fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from procs import ROOT  # noqa: E402
from stats import median, quartile_spread  # noqa: E402


def _seeds(spec: str) -> list[int]:
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(workload: str, seeds: list[int], seconds: int, out: Path) -> int:
    bad = 0
    for seed in seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            bad += 1
            continue
        doc = json.loads(lines[-1])
        calib = [w for w in lines[-2].split() if w.startswith("host.calib_ms=")] if len(lines) > 1 else []
        doc.update(workload=workload, seed=seed, wall_s=round(time.perf_counter() - t0, 1),
                   calib_ms=float(calib[0].split("=")[1]) if calib else None)
        with open(out, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items())
        print(f"{workload} seed {seed}: correct={doc['correct']} wall={doc['wall_s']}s "
              f"calib={doc['calib_ms']} {vals}", flush=True)
    return 1 if bad else 0


def _load(path: Path) -> dict[str, dict[str, list[float]]]:
    table: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if line.strip():
            doc = json.loads(line)
            for k, v in doc["metrics"].items():
                table[doc["workload"]][k].append(v["value"])
    return table


def compare(first: Path, second: Path | None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a = _load(first)
    b = _load(second) if second else {}
    failed = False
    for workload in sorted(a):
        for name, m in metrics.items():
            va = a[workload].get(name, [])
            if not va:
                continue
            bound = m["bound"]
            vb = b.get(workload, {}).get(name, []) if b else []
            spreads = [quartile_spread(v) for v in (va, vb) if v]
            line = f"{workload:13s} {name:15s} n={len(va):2d} median={median(va):<12.5g} spread={spreads[0]:6.3f}"
            verdict = []
            if max(spreads) > bound:
                verdict.append("SPREAD>BOUND")
                failed = True
            elif max(spreads) > bound / 3:
                verdict.append("spread>bound/3")
            if vb:
                ma, mb = median(va), median(vb)
                worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
                line += f" | median2={mb:<12.5g} spread2={spreads[1]:6.3f} worse={worse:+.3f}"
                if worse > bound:
                    verdict.append("MOVED>BOUND")
                    failed = True
            print(f"{line}  bound={bound} {' '.join(verdict) or 'ok'}")
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,9")
    c.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    c.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("compare")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path, nargs="?")
    args = ap.parse_args()
    if args.cmd == "collect":
        seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        return collect(args.workload, _seeds(args.seeds), seconds, args.out)
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
