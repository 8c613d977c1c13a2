"""The level arena of RRR-backed wavelet trees.

An RRR tree answers a batch descent from one :class:`BlockRankCache`
spanning all its nodes, one gather per level.  Its oracle is the same
tree descending node by node (one ``rank1_many`` per visited node): the
values and the ``OpCounters`` deltas must match, for even (σ = 4) and
uneven (σ = 5, the sentinel-in-tree ablation) trees, with the block rank
table (b <= 16) and without it (b = 20).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.counters import CounterScope
from repro.core.rrr import BlockRankCache, RRRVector
from repro.core.wavelet_tree import WaveletTree


def _trees(sigma: int, b: int, n: int, seed: int):
    codes = np.random.default_rng(seed).integers(0, sigma, n)
    arena = WaveletTree(codes, sigma=sigma, b=b, sf=3)
    nodes = WaveletTree(codes, sigma=sigma, b=b, sf=3)
    nodes._arena_sf = None  # the per-node descent, as for non-RRR nodes
    return codes, arena, nodes


def _both(arena, nodes, call):
    with CounterScope() as got_scope:
        got = call(arena)
    with CounterScope() as want_scope:
        want = call(nodes)
    return got, want, got_scope.delta, want_scope.delta


@pytest.mark.parametrize("b", [8, 15, 20])
@pytest.mark.parametrize("sigma", [4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_arena_matches_per_node_oracle(sigma, b, seed):
    n = 12 * b  # the root's p == n falls on a block edge
    codes, arena, nodes = _trees(sigma, b, n, seed)
    rng = np.random.default_rng(seed + 100)
    edges = np.arange(0, n + 1, b)
    positions = np.concatenate([edges, rng.integers(0, n + 1, 60)])
    mixed = rng.integers(0, sigma, positions.size)
    for sym in [*range(sigma), mixed]:
        got, want, got_delta, want_delta = _both(
            arena, nodes, lambda t: t.rank_many(sym, positions)
        )
        assert got.tolist() == want.tolist()
        assert got_delta == want_delta
        syms = np.broadcast_to(sym, positions.shape)
        assert got.tolist() == [
            int(np.count_nonzero(codes[:p] == a)) for a, p in zip(syms, positions)
        ]
        (glo, ghi), (wlo, whi), got_delta, want_delta = _both(
            arena, nodes, lambda t: t.rank2_many(sym, positions, positions[::-1])
        )
        assert glo.tolist() == wlo.tolist() and ghi.tolist() == whi.tolist()
        assert got_delta == want_delta


@pytest.mark.parametrize("sigma", [4, 5])
def test_empty_batch(sigma):
    _, arena, nodes = _trees(sigma, 15, 100, 3)
    empty = np.zeros(0, dtype=np.int64)
    for sym in (2, empty):
        got, want, got_delta, want_delta = _both(
            arena, nodes, lambda t: t.rank_many(sym, empty)
        )
        assert got.size == 0 and want.size == 0
        assert got_delta == want_delta


@pytest.mark.parametrize("sigma", [4, 5])
def test_invalid_input_still_raises(sigma):
    _, arena, _ = _trees(sigma, 15, 100, 4)
    with pytest.raises(IndexError):
        arena.rank_many(1, np.array([0, 101]))
    with pytest.raises(IndexError):
        arena.rank_many(np.array([0, 1]), np.array([-1, 5]))
    for bad in (sigma, -1):
        with pytest.raises(ValueError):
            arena.rank_many(bad, np.array([3]))
    with pytest.raises(ValueError):
        arena.rank_many(np.array([0, -1]), np.array([3, 4]))
    with pytest.raises(ValueError):
        arena.rank_many(np.array([0, 1, 2]), np.array([3, 4]))


def test_arena_spans_every_node_without_per_node_caches():
    codes = np.random.default_rng(5).integers(0, 4, 2000)
    tree = WaveletTree(codes, sigma=4, b=15, sf=8)
    tree.rank_many(np.array([0, 1, 2, 3]), np.array([10, 500, 1000, 2000]))
    cache = tree._arena.cache
    nodes = tree.nodes()
    assert cache.cum.size == sum(node.bits.n_blocks + 1 for node in nodes)
    assert all(node.bits._block_cache is None for node in nodes)


@pytest.mark.parametrize("b", [8, 15, 16, 20, 24])
def test_cache_bytes_per_block_at_most_eight(b):
    bits = np.random.default_rng(b).integers(0, 2, 50_000).astype(np.uint8)
    vec = RRRVector(bits, b=b, sf=50)
    cache = BlockRankCache([vec])
    assert cache.nbytes / (vec.n_blocks + 1) <= 8
    positions = np.arange(bits.size + 1)
    want = np.concatenate(([0], np.cumsum(bits)))
    assert vec.rank1_many(positions).tolist() == want.tolist()


def test_concurrent_first_use_builds_a_consistent_arena():
    """Threads racing through the lazy arena build all get the oracle's
    ranks: the arena is published as one (cache, bases) pair."""
    codes = np.random.default_rng(6).integers(0, 4, 5000)
    tree = WaveletTree(codes, sigma=4, b=15, sf=8)
    rng = np.random.default_rng(7)
    positions = rng.integers(0, 5001, 400)
    syms = rng.integers(0, 4, 400)
    want = [int(np.count_nonzero(codes[:p] == a)) for a, p in zip(syms, positions)]
    results, errors = [], []

    def work():
        try:
            for _ in range(5):
                results.append(tree.rank_many(syms, positions).tolist())
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 40 and all(r == want for r in results)
