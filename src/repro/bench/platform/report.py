"""Lazily-computed report context + dependency-free HTML rendering.

Modeled on fuzzbench's ``ExperimentResults``: the :class:`ReportContext`
is the template's namespace, every section is a ``cached_property``
computed on first access, so rendering a partial report (or unit-testing
one property) never pays for the rest.  Plots are hand-rolled inline
SVG — no matplotlib in the serving image, and the report must open from
a CI artifact with zero extra files.
"""

from __future__ import annotations

import html
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from .gate import GateReport, run_gate
from .stats import bootstrap_ci
from .store import ResultsStore, TrialRecord

_SVG_W, _SVG_H, _PAD = 520, 180, 36


def _svg_series(
    xs_labels: list[str], ys: list[float], cis: list[tuple[float, float]], unit: str
) -> str:
    """One trajectory polyline with CI whiskers, labeled by git hash."""
    if not ys:
        return "<p><em>no data</em></p>"
    n = len(ys)
    y_all = [v for lo, hi in cis for v in (lo, hi)] + list(ys)
    y_min, y_max = min(y_all), max(y_all)
    span = (y_max - y_min) or max(abs(y_max), 1e-12)
    y_min -= 0.1 * span
    y_max += 0.1 * span

    def sx(i: int) -> float:
        usable = _SVG_W - 2 * _PAD
        return _PAD + (usable * i / max(1, n - 1) if n > 1 else usable / 2)

    def sy(v: float) -> float:
        return _SVG_H - _PAD - (_SVG_H - 2 * _PAD) * (v - y_min) / (y_max - y_min)

    parts = [
        f'<svg viewBox="0 0 {_SVG_W} {_SVG_H}" width="{_SVG_W}" height="{_SVG_H}" '
        'xmlns="http://www.w3.org/2000/svg" style="background:#fff">',
        f'<line x1="{_PAD}" y1="{_SVG_H - _PAD}" x2="{_SVG_W - _PAD}" '
        f'y2="{_SVG_H - _PAD}" stroke="#999"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_SVG_H - _PAD}" '
        'stroke="#999"/>',
        f'<text x="4" y="{_PAD - 8}" font-size="10" fill="#555">{unit}</text>',
    ]
    pts = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(ys))
    for i, (lo, hi) in enumerate(cis):
        parts.append(
            f'<line x1="{sx(i):.1f}" y1="{sy(lo):.1f}" x2="{sx(i):.1f}" '
            f'y2="{sy(hi):.1f}" stroke="#7aa6d8" stroke-width="2"/>'
        )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>'
    )
    for i, v in enumerate(ys):
        parts.append(
            f'<circle cx="{sx(i):.1f}" cy="{sy(v):.1f}" r="3" fill="#1f5fa8"/>'
        )
        parts.append(
            f'<text x="{sx(i):.1f}" y="{_SVG_H - _PAD + 12}" font-size="9" '
            f'fill="#555" text-anchor="middle">{html.escape(xs_labels[i][:8])}</text>'
        )
    hi_lab = f"{y_max:.4g}"
    lo_lab = f"{y_min:.4g}"
    parts.append(
        f'<text x="{_PAD - 4}" y="{_PAD + 4}" font-size="9" fill="#555" '
        f'text-anchor="end">{hi_lab}</text>'
    )
    parts.append(
        f'<text x="{_PAD - 4}" y="{_SVG_H - _PAD}" font-size="9" fill="#555" '
        f'text-anchor="end">{lo_lab}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


class ReportContext:
    """Lazily-computed analysis over one results store.

    Every property is computed once on first access and memoized —
    using the context for a one-line summary touches none of the plot
    machinery.
    """

    def __init__(self, store: ResultsStore, host: str | None = None):
        self._store = store
        self._host = host

    # -- raw slices --------------------------------------------------------

    @cached_property
    def trials(self) -> list[TrialRecord]:
        return self._store.query(phase="steady")

    @cached_property
    def workloads(self) -> list[str]:
        return self._store.workloads()

    @cached_property
    def git_hashes(self) -> list[str]:
        return self._store.git_hashes()

    @cached_property
    def latest_git_hash(self) -> str | None:
        return self._store.latest_git_hash()

    # -- derived sections --------------------------------------------------

    @cached_property
    def summary_rows(self) -> list[dict]:
        """Per (workload, git hash): median, 95% bootstrap CI, n, flags."""
        rows = []
        for workload in self.workloads:
            for git_hash in self.git_hashes:
                recs = [
                    r for r in self.trials
                    if r.workload == workload and r.git_hash == git_hash
                ]
                if not recs:
                    continue
                xs = [r.wall_seconds for r in recs]
                lo, hi = bootstrap_ci(xs)
                rows.append(
                    {
                        "workload": workload,
                        "git_hash": git_hash,
                        "n": len(xs),
                        "median_ms": float(np.median(xs)) * 1e3,
                        "ci_lo_ms": lo * 1e3,
                        "ci_hi_ms": hi * 1e3,
                        "baseline": all(r.is_baseline for r in recs),
                        "degraded": any(
                            r.metrics.get("degraded") or
                            r.metrics.get("fpga_cpu_fallbacks_total")
                            for r in recs
                        ),
                        "ftab_hits": sum(
                            float(r.metrics.get("ftab_hits_total", 0)) for r in recs
                        ),
                        "ftab_steps_saved": sum(
                            float(r.metrics.get("ftab_steps_saved", 0)) for r in recs
                        ),
                    }
                )
        return rows

    @cached_property
    def gate_report(self) -> GateReport:
        return run_gate(self._store, host=self._host)

    def trajectory(self, workload: str) -> tuple[list[str], list[float], list[tuple[float, float]]]:
        """(git hash labels, median seconds, CI) across history for a workload."""
        labels, meds, cis = [], [], []
        for git_hash in self.git_hashes:
            xs = [
                r.wall_seconds for r in self.trials
                if r.workload == workload and r.git_hash == git_hash
            ]
            if not xs:
                continue
            labels.append(git_hash)
            meds.append(float(np.median(xs)))
            cis.append(bootstrap_ci(xs))
        return labels, meds, cis

    @cached_property
    def plots(self) -> dict[str, str]:
        """Per-workload trajectory SVG (lazily built all at once)."""
        out = {}
        for workload in self.workloads:
            labels, meds, cis = self.trajectory(workload)
            out[workload] = _svg_series(
                labels, [m * 1e3 for m in meds],
                [(lo * 1e3, hi * 1e3) for lo, hi in cis], "ms",
            )
        return out


_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 64em;
       color: #222; }
h1, h2 { color: #1f3a5f; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccd; padding: 4px 10px; text-align: right; }
th { background: #eef2f7; }
td.name, th.name { text-align: left; font-family: ui-monospace, monospace; }
.fail { color: #a22; font-weight: 600; }
.pass { color: #2a7; font-weight: 600; }
.flag { color: #a60; }
figure { margin: 1em 0; }
figcaption { font-size: 12px; color: #555; }
"""


def render_html(context: ReportContext) -> str:
    """Render the full report (touches every lazy section)."""
    e = html.escape
    gate = context.gate_report
    rows_html = []
    for r in context.summary_rows:
        flags = []
        if r["baseline"]:
            flags.append("baseline")
        if r["degraded"]:
            flags.append("degraded")
        rows_html.append(
            "<tr>"
            f'<td class="name">{e(r["workload"])}</td>'
            f'<td class="name">{e(r["git_hash"][:12])}</td>'
            f'<td>{r["n"]}</td>'
            f'<td>{r["median_ms"]:.3f}</td>'
            f'<td>[{r["ci_lo_ms"]:.3f}, {r["ci_hi_ms"]:.3f}]</td>'
            f'<td>{r["ftab_hits"]:.0f}</td>'
            f'<td>{r["ftab_steps_saved"]:.0f}</td>'
            f'<td class="flag">{e(", ".join(flags))}</td>'
            "</tr>"
        )
    gate_html = [
        f'<p class="{"pass" if gate.ok else "fail"}">'
        f'gate: {"PASS" if gate.ok else "FAIL"} '
        f"({gate.evaluated}/{len(gate.verdicts)} hot paths evaluated)</p>",
        "<ul>",
        *(f"<li>{e(v.describe())}</li>" for v in gate.verdicts),
        "</ul>",
    ]
    plots_html = [
        f"<figure>{svg}<figcaption>{e(w)} — median wall ms per git hash "
        "(whiskers: 95% bootstrap CI)</figcaption></figure>"
        for w, svg in context.plots.items()
    ]
    return f"""<!doctype html>
<html><head><meta charset="utf-8">
<title>bench report @ {e((context.latest_git_hash or "?")[:12])}</title>
<style>{_CSS}</style></head>
<body>
<h1>Continuous-benchmarking report</h1>
<p>generated {e(time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()))} ·
latest run {e((context.latest_git_hash or "unknown")[:12])} ·
{len(context.trials)} steady trials over {len(context.git_hashes)} revisions</p>
<h2>Regression gate</h2>
{"".join(gate_html)}
<h2>Summary</h2>
<table>
<tr><th class="name">workload</th><th class="name">git hash</th><th>n</th>
<th>median ms</th><th>95% CI</th><th>ftab hits</th><th>steps saved</th>
<th>flags</th></tr>
{"".join(rows_html)}
</table>
<h2>Trajectories</h2>
{"".join(plots_html)}
</body></html>
"""


def write_report(store: ResultsStore, out_path: str | Path, host: str | None = None) -> Path:
    out_path = Path(out_path)
    out_path.write_text(render_html(ReportContext(store, host=host)))
    return out_path
