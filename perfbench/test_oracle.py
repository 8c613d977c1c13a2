"""The oracle passes the program's real output and counts planted errors.

Run from the repository root::

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import (  # noqa: E402
    check_catalog_json,
    check_tsv,
    expected_catalog_hits,
    expected_tsv_row,
)


def _reference_and_reads() -> tuple[str, list[str]]:
    from repro.io.readsim import simulate_reads
    from repro.io.refgen import E_COLI_LIKE, generate_reference

    ref = generate_reference(E_COLI_LIKE, scale=0.001, seed=3)
    return ref, simulate_reads(ref, 40, 30, mapping_ratio=0.5, seed=4).reads


def _index(ref: str):
    from repro.index.builder import build_index

    return build_index(ref)[0]


def test_tsv_check_counts_a_planted_row():
    from repro.mapper.stream import map_fastq_to_tsv

    ref, reads = _reference_and_reads()
    out = io.StringIO()
    map_fastq_to_tsv(_index(ref), reads, out, batch_size=16)
    expected = {i: expected_tsv_row(i, ref, r) for i, r in enumerate(reads)}
    assert check_tsv(out.getvalue(), len(reads), expected) == 0

    lines = out.getvalue().splitlines()
    row = next(i for i in expected if expected[i].split("\t")[4] != ".") + 1
    cols = lines[row].split("\t")
    cols[4] = str(int(cols[4].split(",")[0]) + 1)  # shift one reported position
    lines[row] = "\t".join(cols)
    assert check_tsv("\n".join(lines) + "\n", len(reads), expected) == 1


def test_catalog_check_counts_a_planted_count():
    from repro.serving.router import RouterMappingService, ShardCatalog, ShardRouter
    from repro.telemetry import Telemetry
    from repro.web.server import BWaveRApp

    ref, reads = _reference_and_reads()
    shards = [("q0", ref[: len(ref) // 2]), ("q1", ref[len(ref) // 2 :])]
    catalog = ShardCatalog()
    for name, seq in shards:
        catalog.register_sequence(name, seq)
    service = RouterMappingService(ShardRouter(catalog))
    try:
        app = BWaveRApp(router_service=service, telemetry=Telemetry(enabled=False))
        body = json.dumps({"reads": reads}).encode()
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/map",
            "QUERY_STRING": "catalog",
            "CONTENT_TYPE": "application/json",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        doc = json.loads(b"".join(app(environ, lambda status, headers: None)))
    finally:
        service.close()
    expected = {i: expected_catalog_hits(shards, r) for i, r in enumerate(reads)}
    assert check_catalog_json(doc, len(reads), expected) == 0

    hit = next(i for i, want in expected.items() if want)
    doc["results"][hit]["n_hits"] += 1
    assert check_catalog_json(doc, len(reads), expected) == 1
