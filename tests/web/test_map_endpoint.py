"""``POST /map``: the served-index mapping endpoint over the coalescer.

Covers routing (404 without a served index), JSON and FASTQ request
bodies, TSV output (including the chunked streaming ingest path),
coalescer backpressure surfacing as 503 + Retry-After, requests past
the admission cap as 413, dispatch failures as 503 with a reason, and
the ``/healthz`` coalescer stats block.
"""

import io
import json

import pytest

from repro.bench.fixtures import make_dna
from repro.index.builder import build_index
from repro.mapper.mapper import Mapper
from repro.serving.coalescer import (
    CoalescerConfig,
    CoalescerError,
    MappingService,
)
from repro.web.server import BWaveRApp

TEXT = make_dna(600, seed=11)
READS = [TEXT[i : i + 24] for i in range(0, 120, 17)] + [
    "ACGTNNACGT",  # invalid base -> unmapped, reason invalid_base
    "",  # empty pattern -> matches everywhere
]


@pytest.fixture(scope="module")
def index():
    idx, _ = build_index(TEXT, b=15, sf=8)
    return idx


@pytest.fixture()
def service(index):
    svc = MappingService(
        index,
        locate=True,
        config=CoalescerConfig(window_seconds=0.001, max_batch_reads=64),
    )
    yield svc
    svc.close()


@pytest.fixture()
def app(service):
    a = BWaveRApp(mapping_service=service)
    yield a
    a.jobs.shutdown()


def call(app, method, path, body=b"", ctype=""):
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    env = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(body)),
        "CONTENT_TYPE": ctype,
        "wsgi.input": io.BytesIO(body),
    }
    payload = b"".join(app(env, start_response))
    return captured["status"], captured["headers"], payload


def post_map(app, doc):
    return call(app, "POST", "/map", json.dumps(doc).encode(), "application/json")


def fastq_text(reads):
    return "".join(
        f"@r{i}\n{seq}\n+\n{'I' * len(seq)}\n" for i, seq in enumerate(reads)
    )


class TestRouting:
    def test_404_without_served_index(self):
        app = BWaveRApp()
        try:
            status, _, body = post_map(app, {"reads": ["ACGT"]})
            assert status.startswith("404")
            assert b"--map-index" in body
        finally:
            app.jobs.shutdown()

    def test_requires_json_content_type(self, app):
        status, _, _ = call(app, "POST", "/map", b"ACGT", "text/plain")
        assert status.startswith("400")

    def test_requires_reads_field(self, app):
        status, _, body = post_map(app, {"tenant": "t"})
        assert status.startswith("400")
        assert b"reads" in body

    def test_rejects_unknown_format(self, app):
        status, _, _ = post_map(app, {"reads": ["ACGT"], "format": "xml"})
        assert status.startswith("400")

    def test_oversized_body_413(self, service):
        app = BWaveRApp(mapping_service=service, max_body_bytes=64)
        try:
            status, _, _ = post_map(app, {"reads": ["A" * 200]})
            assert status.startswith("413")
        finally:
            app.jobs.shutdown()


class TestJsonMapping:
    def test_results_match_direct_mapper(self, app, index):
        status, _, body = post_map(app, {"reads": READS, "tenant": "t1"})
        assert status.startswith("200")
        doc = json.loads(body)
        direct = Mapper(index, locate=True).map_reads(READS)
        assert doc["n_reads"] == len(READS)
        assert doc["n_mapped"] == sum(1 for r in direct if r.mapped)
        assert doc["tenant"] == "t1"
        assert doc["degraded"] is False
        for got, want in zip(doc["results"], direct):
            assert got["read"] == want.read_name
            assert got["mapped"] == want.mapped
            assert got["fwd_count"] == want.forward.count
            assert got["rc_count"] == want.reverse.count
            assert got["reason"] == want.reason

    def test_fastq_body(self, app):
        valid = [r for r in READS if r]
        status, _, body = post_map(app, {"reads_fastq": fastq_text(valid)})
        assert status.startswith("200")
        assert json.loads(body)["n_reads"] == len(valid)

    def test_empty_reads(self, app):
        status, _, body = post_map(app, {"reads": []})
        assert status.startswith("200")
        assert json.loads(body)["n_reads"] == 0

    def test_coalescer_full_is_503_with_retry_after(self, index):
        config = CoalescerConfig(max_batch_reads=4, max_queue_reads=8)
        with MappingService(index, config=config) as service:
            app = BWaveRApp(mapping_service=service)
            try:
                with service.coalescer._cv:  # freeze the flusher: queue holds
                    service.coalescer.submit(["ACGT"] * 8)
                    status, headers, body = post_map(app, {"reads": ["ACGT"]})
            finally:
                app.jobs.shutdown()
        assert status.startswith("503")
        assert headers["Retry-After"] == "1"
        assert b"> cap 8" in body

    def test_request_over_cap_is_413_naming_the_cap(self, index):
        config = CoalescerConfig(max_batch_reads=16, max_queue_reads=16)
        with MappingService(index, config=config) as service:
            app = BWaveRApp(mapping_service=service)
            try:
                status, headers, body = post_map(app, {"reads": ["ACGT"] * 17})
                assert status.startswith("413")
                assert "Retry-After" not in headers
                assert b"cap of 16 reads" in body
                status, _, _ = post_map(app, {"reads": ["ACGT"] * 16})
                assert status.startswith("200")
            finally:
                app.jobs.shutdown()

    @pytest.mark.parametrize(
        "exc",
        [
            TimeoutError("not completed within 60.0s"),
            CoalescerError("merged batch failed; fallback also failed: boom"),
        ],
    )
    def test_dispatch_failure_is_503_with_reason(self, app, monkeypatch, exc):
        def fail(*a, **k):
            raise exc

        monkeypatch.setattr(app.mapping_service, "map_request", fail)
        status, headers, body = post_map(app, {"reads": ["ACGT"]})
        assert status.startswith("503")
        assert "Retry-After" not in headers
        assert type(exc).__name__ in json.loads(body)["error"]

    def test_failed_dispatch_and_fallback_is_503(self, index):
        def boom(reads):
            raise RuntimeError("device lost")

        with MappingService(index) as service:
            service.coalescer.dispatch = service.coalescer.fallback = boom
            app = BWaveRApp(mapping_service=service)
            try:
                status, _, body = post_map(app, {"reads": ["ACGT"]})
            finally:
                app.jobs.shutdown()
        assert status.startswith("503")
        assert b"device lost" in body


class TestTsvMapping:
    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_malformed_fastq_is_400_naming_the_record(self, app, fmt):
        body = fastq_text([r for r in READS if r]) + "@broken\nACGT\n"
        status, _, raw = post_map(app, {"reads_fastq": body, "format": fmt})
        assert status.startswith("400")
        error = json.loads(raw)["error"]
        assert "truncated FASTQ record" in error and "'broken'" in error

    def test_streaming_chunks_fit_a_small_admission_cap(self, index):
        """FASTQ+TSV chunks are sized so the chunks in flight fit the
        cap: 300 reads stream through a 128-read cap, byte-identical to
        the CLI's TSV, while the same reads as one list are too large."""
        from repro.mapper.results import write_hits_tsv

        reads = [TEXT[i % 500 : i % 500 + 24] for i in range(300)]
        want = io.StringIO()
        write_hits_tsv(Mapper(index).map_reads(reads), want)
        config = CoalescerConfig(max_batch_reads=16, max_queue_reads=128)
        with MappingService(index, config=config) as service:
            app = BWaveRApp(mapping_service=service)
            try:
                status, _, body = post_map(
                    app, {"reads_fastq": fastq_text(reads), "format": "tsv"}
                )
                assert status.startswith("200"), body
                assert body == want.getvalue().encode()
                status, _, _ = post_map(app, {"reads": reads, "format": "tsv"})
                assert status.startswith("413")
            finally:
                app.jobs.shutdown()

    def test_tsv_from_reads_list(self, app, index):
        status, headers, body = post_map(app, {"reads": READS, "format": "tsv"})
        assert status.startswith("200")
        assert "tab-separated" in headers["Content-Type"]
        lines = body.decode().splitlines()
        assert len(lines) == len(READS) + 1  # header + one row per read

    def test_streaming_fastq_tsv_matches_list_path(self, app):
        """FASTQ+TSV takes the chunked streaming ingest path; its rows
        must be identical to the non-streaming reads-list TSV."""
        valid = [r for r in READS if r]
        _, _, via_list = post_map(app, {"reads": valid, "format": "tsv"})
        status, _, via_stream = post_map(
            app, {"reads_fastq": fastq_text(valid), "format": "tsv"}
        )
        assert status.startswith("200")

        def rows(raw):
            # Drop read names (stream renumbers globally; list path uses
            # request-local ids) — compare the mapping payload columns.
            return [ln.split("\t")[1:] for ln in raw.decode().splitlines()[1:]]

        assert rows(via_stream) == rows(via_list)


class TestHealthz:
    def test_coalescer_stats_present(self, app):
        post_map(app, {"reads": ["ACGT"]})
        _, _, body = call(app, "GET", "/healthz")
        doc = json.loads(body)
        co = doc["coalescer"]
        assert co is not None
        assert co["requests_total"] >= 1
        assert co["window_ms"] == pytest.approx(1.0)
        assert "added_wait_p95_ms" in co

    def test_coalescer_null_without_service(self):
        app = BWaveRApp()
        try:
            _, _, body = call(app, "GET", "/healthz")
            assert json.loads(body)["coalescer"] is None
        finally:
            app.jobs.shutdown()
