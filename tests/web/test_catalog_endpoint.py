"""``POST /map?catalog=...``: the sharded multi-genome endpoint.

Covers routing (404 without a served catalog), full-catalog fan-out,
shard-subset selection, unknown-shard errors, the ``/healthz``
per-shard state block, and the one admission path: subsets and
whole-catalog requests share the cap, the 413/503 answers and
concurrent pooled traffic.
"""

import io
import json
import threading
import time

import numpy as np
import pytest

from repro.index.multiref import MultiReferenceIndex
from repro.serving.coalescer import CoalescerConfig
from repro.serving.router import RouterMappingService, ShardCatalog, ShardRouter
from repro.web.server import BWaveRApp


def make_seq(n, seed):
    rng = np.random.default_rng(seed)
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


RECORDS = [("refB", make_seq(500, 5)), ("refA", make_seq(300, 6))]
READS = [RECORDS[0][1][40:70], RECORDS[1][1][10:40], "ACGTNNACGT"]


@pytest.fixture(scope="module")
def oracle():
    return MultiReferenceIndex(RECORDS, b=15, sf=4)


def make_service(config=None, **catalog_kwargs):
    catalog = ShardCatalog(**catalog_kwargs)
    for name, seq in RECORDS:
        catalog.register_sequence(name, seq, b=15, sf=4)
    return RouterMappingService(ShardRouter(catalog), config=config)


@pytest.fixture()
def router_service():
    svc = make_service()
    yield svc
    svc.close()


@pytest.fixture()
def app(router_service):
    a = BWaveRApp(router_service=router_service)
    yield a
    a.jobs.shutdown()


def call(app, method, path, body=b"", ctype="", query=""):
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    env = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(body)),
        "CONTENT_TYPE": ctype,
        "wsgi.input": io.BytesIO(body),
    }
    payload = b"".join(app(env, start_response))
    return captured["status"], captured["headers"], payload


def post_map(app, doc, query="catalog"):
    return call(
        app, "POST", "/map", json.dumps(doc).encode(), "application/json", query
    )


class TestCatalogRouting:
    def test_404_without_served_catalog(self):
        app = BWaveRApp()
        try:
            status, _, body = post_map(app, {"reads": READS})
            assert status.startswith("404")
            assert b"--catalog" in body
        finally:
            app.jobs.shutdown()

    def test_full_fanout_matches_oracle(self, app, oracle):
        status, _, body = post_map(app, {"reads": READS})
        assert status.startswith("200")
        doc = json.loads(body)
        assert doc["n_reads"] == len(READS)
        assert doc["shards"] == ["refB", "refA"]
        want = oracle.map_reads(READS)
        for row, mapping in zip(doc["results"], want):
            assert row["n_hits"] == len(mapping.hits)
            assert row["hits"] == [
                {"ref": h.name, "position": h.position, "strand": h.strand}
                for h in mapping.hits
            ]

    def test_repeated_and_reordered_names_map_each_shard_once(self, app):
        status, _, full = post_map(app, {"reads": READS})
        assert status.startswith("200")
        status, _, body = post_map(app, {"reads": READS}, query="catalog=refA,refB,refA")
        assert status.startswith("200")
        doc = json.loads(body)
        assert doc["shards"] == ["refB", "refA"]
        assert doc["results"] == json.loads(full)["results"]

    def test_shard_subset(self, app):
        status, _, body = post_map(app, {"reads": READS}, query="catalog=refA")
        assert status.startswith("200")
        doc = json.loads(body)
        assert doc["shards"] == ["refA"]
        assert all(
            h["ref"] == "refA" for row in doc["results"] for h in row["hits"]
        )

    def test_unknown_shard_400(self, app):
        status, _, body = post_map(app, {"reads": READS}, query="catalog=nope")
        assert status.startswith("400")
        assert b"nope" in body

    def test_requires_reads(self, app):
        status, _, _ = post_map(app, {"tenant": "t"})
        assert status.startswith("400")

    def test_fastq_body(self, app, oracle):
        fastq = "".join(
            f"@r{i}\n{seq}\n+\n{'I' * len(seq)}\n"
            for i, seq in enumerate(READS)
            if seq  # FASTQ cannot carry empty sequences
        )
        status, _, body = post_map(app, {"reads_fastq": fastq})
        assert status.startswith("200")
        doc = json.loads(body)
        assert doc["n_reads"] == len(READS)

    def test_healthz_shards_block(self, app):
        post_map(app, {"reads": READS})
        status, _, body = call(app, "GET", "/healthz")
        assert status.startswith("200")
        doc = json.loads(body)
        shards = doc["shards"]
        assert shards["n_shards"] == 2
        assert [s["name"] for s in shards["shards"]] == ["refB", "refA"]
        assert all(s["state"] == "active" for s in shards["shards"])
        assert shards["degraded"] is False
        assert "coalescer" in shards

    def test_healthz_without_catalog(self):
        app = BWaveRApp()
        try:
            _, _, body = call(app, "GET", "/healthz")
            assert json.loads(body)["shards"] is None
        finally:
            app.jobs.shutdown()


def hits_doc(mapping):
    return [
        {"ref": h.name, "position": h.position, "strand": h.strand}
        for h in mapping.hits
    ]


class TestOneAdmissionPath:
    def test_format_tsv_rejected(self, app):
        status, _, body = post_map(app, {"reads": READS, "format": "tsv"})
        assert status.startswith("400")
        assert b"JSON only" in body

    def test_over_cap_same_status_for_subset_and_catalog(self):
        config = CoalescerConfig(max_batch_reads=16, max_queue_reads=16)
        with make_service(config) as service:
            app = BWaveRApp(router_service=service)
            try:
                reads = {"reads": [READS[0]] * 17}
                whole = post_map(app, reads)
                subset = post_map(app, reads, query="catalog=refA")
                assert whole[0].startswith("413") and subset[0].startswith("413")
                assert b"cap of 16 reads" in whole[2]
                assert b"cap of 16 reads" in subset[2]
                status, _, _ = post_map(
                    app, {"reads": READS}, query="catalog=refA"
                )
                assert status.startswith("200")
            finally:
                app.jobs.shutdown()
            assert service.stats()["coalescer"]["requests_total"] == 1

    def test_corrupt_shard_is_503_naming_it(self):
        with make_service() as service:
            app = BWaveRApp(router_service=service)
            try:
                path = service.router.catalog.shard("refA").flat_path
                with open(path, "r+b") as fh:  # overwrite the magic
                    fh.write(b"NOTAFLAT")
                for query in ("catalog", "catalog=refA"):
                    status, _, body = post_map(app, {"reads": READS}, query=query)
                    assert status.startswith("503"), query
                    error = json.loads(body)["error"]
                    assert "'refA' failed to activate" in error
                    assert "IndexFormatError" in error
                status, _, _ = post_map(app, {"reads": READS}, query="catalog=refB")
                assert status.startswith("200")
                _, _, body = call(app, "GET", "/healthz")
                shards = json.loads(body)["shards"]
                bad = next(d for d in shards["shards"] if d["name"] == "refA")
                assert bad["degraded"] is True
                assert "IndexFormatError" in bad["last_error"]
                assert shards["degraded"] is True
            finally:
                app.jobs.shutdown()

    def test_corrupt_shard_activation_is_attempted_once(self, monkeypatch):
        """A lone request whose dispatch failed is not re-run through
        that same dispatch: one activation attempt, one reason."""
        from repro.serving.router import Shard

        attempts = []
        activate = Shard.activate

        def counted(shard):
            attempts.append(shard.name)
            return activate(shard)

        monkeypatch.setattr(Shard, "activate", counted)
        with make_service() as service:
            app = BWaveRApp(router_service=service)
            try:
                path = service.router.catalog.shard("refA").flat_path
                with open(path, "r+b") as fh:
                    fh.write(b"NOTAFLAT")
                status, _, body = post_map(app, {"reads": READS})
            finally:
                app.jobs.shutdown()
        assert status.startswith("503")
        assert attempts.count("refA") == 1
        assert json.loads(body)["error"].count("failed to activate") == 1

    def test_mixed_traffic_over_pooled_shards(self, oracle):
        """Whole-catalog and subset requests at once over one-worker
        shard pools: every answer equals the multi-reference oracle,
        within seconds, and no healthy shard is flagged degraded."""
        want = oracle.map_reads(READS)
        want_whole = [hits_doc(m) for m in want]
        want_subset = [[h for h in hits if h["ref"] == "refA"] for hits in want_whole]
        with make_service(pool_workers=1) as service:
            app = BWaveRApp(router_service=service)
            failures: list = []

            def client(query, expected):
                for _ in range(6):
                    status, _, body = post_map(app, {"reads": READS}, query=query)
                    if not status.startswith("200"):
                        failures.append((query, status, body))
                        return
                    got = [row["hits"] for row in json.loads(body)["results"]]
                    if got != expected:
                        failures.append((query, "wrong answer", got))

            threads = [
                threading.Thread(target=client, args=args, daemon=True)
                for args in [("catalog", want_whole), ("catalog=refA", want_subset)] * 2
            ]
            t0 = time.monotonic()
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads), "requests hung"
                assert failures == []
                assert time.monotonic() - t0 < 30.0
                doc = service.stats()
                assert doc["degraded"] is False
                assert all(not d["degraded"] for d in doc["shards"])
                assert doc["coalescer"]["requests_total"] == 24
            finally:
                app.jobs.shutdown()
