"""The differential runner: every fast backend against its slow oracle.

Each check is one row of the :data:`ALL_CHECKS` table, a frozen
:class:`Check` record holding

* ``generate(rng, profile)`` — a JSON-able adversarial input;
* ``probe(inputs)`` — a lazy stream of ``(what, want, got)`` triples,
  the oracle's fingerprint of one answer next to the fast side's;
* ``shrink_plan(inputs, fails)`` — its shrink plan, built from :func:`_cut`;
* the ``heavy`` / ``once`` scheduling flags.

:meth:`Check.mismatch` turns the first disagreeing triple (or a crash —
exceptions are findings, which is how a reintroduced crash-on-``N`` bug
surfaces as a shrunk counterexample instead of killing the run) into
the ``(expected, actual)`` pair.  The generate/probe split is what makes
corpus replay work: a stored counterexample is just an ``inputs``
document fed straight back into ``mismatch``.

The check pairs, in fixed registry order (the order feeds the per-check
RNG stream, so rows are appended, never reordered):

======== ======================================================
rrr      ``RRRVector`` and ``BitVector`` vs popcount loops
wavelet  ``WaveletTree`` vs direct numpy counting
fm       ``FMIndex.search/count/locate`` vs literal string scan
batch    ``FMIndex.search_batch`` vs the scalar search (ftab off/on, counts)
mapper   ``Mapper.map_read``/``map_reads`` vs both-strand scan
kernel   FPGA functional model vs the CPU mapper (bit-identical)
flat     flat-container round-trip vs the in-memory index
pool     ``MapperPool`` workers vs the in-process mapper
ftab     jump-start-table-primed search vs the stepwise search + scan
coalesce merged-batch (coalesced) dispatch vs per-request ``map_reads``
router   sharded scatter-gather routing vs the multi-reference index
locate   text-sampled SA locate, after a flat round trip, vs string scan
======== ======================================================
"""

from __future__ import annotations

import tempfile
import traceback
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..core.bitvector import BitVector
from ..core.counters import CounterScope
from ..core.rrr import RRRVector
from ..core.wavelet_tree import WaveletTree
from ..index.builder import build_index
from ..index.flat import load_index_flat, save_index_flat
from ..index.multiref import MultiReferenceIndex
from ..mapper.mapper import Mapper
from ..mapper.results import REASON_INVALID_BASE, MappingResult
from ..sequence.alphabet import AlphabetError, encode
from ..telemetry import get_telemetry
from .generators import (
    PROFILES,
    CheckProfile,
    gen_bitvector_case,
    gen_pattern_corpus,
    gen_read_corpus,
    gen_text,
    rng_for,
)
from .oracles import (
    naive_occ,
    naive_rank0,
    naive_rank1,
    naive_select1,
    oracle_mapping,
    oracle_occurrences,
)
from .report import (
    CheckOutcome,
    Counterexample,
    SelfCheckReport,
    load_corpus,
    write_corpus_file,
)
from .shrink import DEFAULT_BUDGET, shrink_bits, shrink_list, shrink_string

#: A mismatch description: (expected, actual) rendered as strings.
Mismatch = tuple[str, str]
#: One probe: what was asked, the oracle's fingerprint, the fast side's.
Probe = tuple[str, Any, Any]
#: "Does this (smaller) input still fail?"
Fails = Callable[[dict], bool]


def _render(what: str, want: Any, got: Any) -> Mismatch:
    """The one place a disagreement becomes an ``(expected, actual)`` pair."""
    return (f"{what} == {want}", f"{got}")


def _crash(exc: Exception) -> Probe:
    tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return ("exception", "none", f"crash: {tb}")


@dataclass(frozen=True)
class Check:
    """One differential pair: a row of the check table."""

    name: str
    generate: Callable[[np.random.Generator, CheckProfile], dict]
    probe: Callable[[dict], Iterator[Probe]]
    shrink_plan: Callable[[dict, Fails], dict]
    #: Heavy checks (index rebuild + device model / file round-trip) run
    #: every ``profile.heavy_every`` rounds.
    heavy: bool = False
    #: Once-per-run checks (process-spawning ones) run in round 0 only.
    once: bool = False

    def mismatch(self, inputs: dict) -> Mismatch | None:
        """Compare backend vs oracle on ``inputs``; ``None`` == agree."""
        probes = self.probe(inputs)
        try:
            found = next(((w, a, b) for w, a, b in probes if b != a), None)
        except Exception as exc:  # noqa: BLE001 - crashes are findings here
            found = _crash(exc)
        finally:
            probes.close()
        return None if found is None else _render(*found)

    def shrink(self, inputs: dict) -> dict:
        """Reduce a failing ``inputs`` while it keeps failing."""
        return self.shrink_plan(inputs, lambda small: self.mismatch(small) is not None)

    def snippet(self, inputs: dict) -> str:
        """Ready-to-paste pytest body replaying ``inputs``."""
        return (
            f"def test_{self.name}_regression():\n"
            f"    from repro.check.differential import get_check\n"
            f"    assert get_check({self.name!r}).mismatch({inputs!r}) is None\n"
        )

    def verify(self, inputs: dict) -> Counterexample | None:
        found = self.mismatch(inputs)
        if found is None:
            return None
        small = self.shrink(inputs)
        result = self.mismatch(small)
        if result is None:  # shrinking over-shrank (flaky predicate): keep raw
            small, result = inputs, found
        return _counterexample(self.name, small, result, snippet=self.snippet(small))


def _counterexample(
    name: str, inputs: dict, found: Mismatch, seed: int = -1, round_index: int = -1, **kw
) -> Counterexample:
    expected, actual = found
    return Counterexample(
        check=name, seed=seed, round_index=round_index, inputs=inputs,
        expected=expected, actual=actual, **kw,
    )


# -- shared pieces: shrinking, generation, fingerprints -----------------------


def _cut(
    inputs: dict, key: str, fails: Fails, budget: int = DEFAULT_BUDGET, lone: bool = False
) -> dict:
    """One ddmin pass over ``inputs[key]`` while ``fails`` holds.

    With ``lone``, the pass cuts the only entry of the list at ``key``
    (and does nothing unless there is exactly one).  A text or a list
    never shrinks to empty; a lone read or pattern may, since the empty
    sequence is an edge case of its own.
    """
    value = inputs[key]
    if lone:
        if len(value) != 1:
            return inputs
        value = value[0]

    def place(v):
        return {**inputs, key: [v] if lone else v}

    def still_fails(v) -> bool:
        return (bool(v) or (lone and isinstance(v, str))) and fails(place(v))

    cut = shrink_string if isinstance(value, str) else shrink_list
    return place(cut(value, still_fails, budget))


def _shrink_bits(inputs: dict, fails: Fails) -> dict:
    def still_fails(bits: np.ndarray) -> bool:
        return fails({**inputs, "bits": bits.tolist()})

    bits = shrink_bits(np.array(inputs["bits"], dtype=np.uint8), still_fails)
    return {**inputs, "bits": bits.tolist()}


def _shrink_text(inputs: dict, fails: Fails) -> dict:
    return _cut(inputs, "text", fails)


def _shrink_text_corpus(key: str) -> Callable[[dict, Fails], dict]:
    """Corpus, then text; a lone survivor is cut itself, which may free
    the text for further cuts (an empty read pins no substring)."""

    def plan(inputs: dict, fails: Fails) -> dict:
        out = _cut(_cut(inputs, key, fails), "text", fails)
        if len(out[key]) == 1:
            out = _cut(out, key, fails, budget=80, lone=True)
            out = _cut(out, "text", fails, budget=120)
        return out

    return plan


def _shrink_requests(inputs: dict, fails: Fails) -> dict:
    """Requests, the reads of a lone survivor, then the text."""
    out = _cut(inputs, "requests", fails)
    out = _cut(out, "requests", fails, budget=40, lone=True)
    return _cut(out, "text", fails)


def _shrink_reads_only(inputs: dict, fails: Fails) -> dict:
    # Every probe spawns worker processes or rebuilds one container per
    # sequence: keep the budget tiny and cut only the read list.
    return _cut(inputs, "reads", fails, budget=20)


def _text_with(
    key: str,
    corpus: Callable[[np.random.Generator, CheckProfile, str], list],
    backend: str | None = None,
    **extra: Callable[[np.random.Generator], int],
) -> Callable[[np.random.Generator, CheckProfile], dict]:
    """Generator of a reference text plus a ``key`` corpus drawn from it.

    ``backend`` pins the structure (the draw still happens, so pinning
    never shifts the RNG stream); ``extra`` draws trailing knobs.
    """

    def generate(rng: np.random.Generator, profile: CheckProfile) -> dict:
        text = gen_text(rng, profile)
        b = int(rng.choice([5, 15]))
        sf = int(rng.choice([4, 8]))
        drawn = str(rng.choice(["rrr", "occ"]))
        inputs = {
            "text": text,
            key: corpus(rng, profile, text),
            "b": b,
            "sf": sf,
            "backend": backend or drawn,
        }
        inputs.update((name, draw(rng)) for name, draw in extra.items())
        return inputs

    return generate


def _patterns(rng, profile, text):
    return gen_pattern_corpus(rng, text, profile.n_patterns)


def _valid_patterns(rng, profile, text):
    # Raw-index contract: invalid patterns raise, so corpora compared
    # index-to-index hold only encodable ones.
    return gen_pattern_corpus(rng, text, profile.n_patterns, include_invalid=False)


def _reads(rng, profile, text):
    return gen_read_corpus(rng, text, profile.n_reads)


def _ftab_k(rng) -> int:
    return int(rng.integers(1, 5))  # <= 256 table entries per round


def _max_batch_reads(rng) -> int:
    return int(rng.integers(1, 33))


def _sa_sample_rate(rng) -> int:
    return int(rng.choice([1, 2, 5, 32]))


def _requests(rng, profile, text):
    reads = gen_read_corpus(rng, text, profile.n_reads)
    requests: list[list[str]] = []
    i = 0
    while i < len(reads):
        take = int(rng.integers(1, 5))
        requests.append(reads[i : i + take])
        i += take
    return requests


def _structure(inputs: dict) -> dict:
    """The index-structure knobs of an input document."""
    return dict(
        b=int(inputs.get("b", 15)),
        sf=int(inputs.get("sf", 8)),
        backend=inputs.get("backend", "rrr"),
    )


def _build(inputs: dict, **kw):
    index, _ = build_index(inputs["text"], **_structure(inputs), **kw)
    return index


def _located(index, pattern: str) -> list[int]:
    return sorted(int(p) for p in index.locate(pattern))


def _search_fp(res) -> tuple:
    return (res.start, res.end, res.steps)


def _batch_fp(lo, hi, steps) -> list[tuple]:
    return list(zip(*(np.asarray(col).tolist() for col in (lo, hi, steps))))


def _positions(hit) -> list[int]:
    return sorted(int(p) for p in (hit.positions if hit.positions is not None else []))


def _mapping_fp(r: MappingResult) -> tuple:
    f, v = r.forward, r.reverse

    def located(h):
        return None if h.positions is None else tuple(int(p) for p in h.positions)

    return (
        r.read_id, r.read_name, r.length, r.reason,
        (f.interval.start, f.interval.end), (v.interval.start, v.interval.end),
        located(f), located(v),
    )


def _mapping_fps(results) -> list[tuple]:
    return [_mapping_fp(r) for r in results]


def _multiref_fps(mappings) -> list[tuple]:
    return [
        (m.read_id, tuple((h.name, h.position, h.strand) for h in m.hits))
        for m in mappings
    ]


def _each(
    what: str, want: Sequence, got: Sequence, keys: Sequence | None = None
) -> Iterator[Probe]:
    """Element-wise probes of two answer lists (the length first)."""
    yield f"{what} length", len(want), len(got)
    for i, (a, b) in enumerate(zip(want, got)):
        label = f"{what}[{i}]" if keys is None else f"{what}[{i}] ({keys[i]!r})"
        yield label, a, b


def _rejects(fn: Callable[[str], Any], pattern: str) -> str:
    try:
        return f"returns {fn(pattern)}"
    except AlphabetError:
        return "raises AlphabetError"


# -- probes, one per check ----------------------------------------------------


def _probe_rrr(inputs: dict) -> Iterator[Probe]:
    bits = np.array(inputs["bits"], dtype=np.uint8)
    b, sf = int(inputs["b"]), int(inputs["sf"])
    n = bits.size
    rrr = RRRVector(bits, b=b, sf=sf)
    ones = int(np.count_nonzero(bits))
    cumulative = np.cumsum(np.concatenate(([0], bits.astype(np.int64)))).tolist()
    for label, vec in (("RRRVector", rrr), ("BitVector", BitVector(bits))):
        yield f"{label}.count()", ones, vec.count()
        for p in range(n + 1):
            yield f"{label}.rank1({p})", naive_rank1(bits, p), vec.rank1(p)
            yield f"{label}.rank0({p})", naive_rank0(bits, p), vec.rank0(p)
        many = np.asarray(vec.rank1_many(np.arange(n + 1, dtype=np.int64)), dtype=np.int64)
        yield from _each(f"{label}.rank1_many", cumulative, many.tolist())
        for k in range(1, ones + 1):
            yield f"{label}.select1({k})", naive_select1(bits, k), vec.select1(k)
    for i in range(n):
        yield f"RRRVector.access({i})", int(bits[i]), rrr.access(i)


def _probe_positions(n: int) -> list[int]:
    """Deterministic probe positions: exhaustive when small, a strided
    sample plus both ends otherwise (replay needs no RNG here)."""
    if n <= 300:
        return list(range(n + 1))
    ps = set(range(0, n + 1, max(1, n // 256)))
    ps.update((0, 1, n - 1, n))
    return sorted(ps)


def _probe_wavelet(inputs: dict) -> Iterator[Probe]:
    codes = encode(inputs["text"])
    tree = WaveletTree(codes, sigma=4, b=int(inputs["b"]), sf=int(inputs["sf"]))
    n = codes.size
    for sym in range(4):
        for p in _probe_positions(n):
            yield f"rank({sym}, {p})", naive_occ(codes, sym, p), tree.rank(sym, p)
        total = naive_occ(codes, sym, n)
        yield f"symbol_counts()[{sym}]", total, int(tree.symbol_counts()[sym])
        at = np.flatnonzero(codes == sym)
        for k in (1, max(1, total // 2), total) if total else ():
            yield f"select({sym}, {k})", int(at[k - 1]), tree.select(sym, k)
    for i in _probe_positions(n)[:-1]:
        if i < n:
            yield f"access({i})", int(codes[i]), tree.access(i)
    # The batch descent, one symbol per position: four rotations of a
    # mixed symbol column put every symbol at every probe position.
    ps = np.array(_probe_positions(n), dtype=np.int64)
    for shift in range(4):
        syms = (np.arange(ps.size) + shift) % 4
        want = [naive_occ(codes, int(a), int(p)) for a, p in zip(syms, ps)]
        yield from _each(f"rank_many(mixed+{shift})", want, tree.rank_many(syms, ps).tolist())
        lo, hi = tree.rank2_many(syms, ps, ps[::-1])
        yield from _each(f"rank2_many(mixed+{shift}) lo", want, lo.tolist())
        want_hi = [naive_occ(codes, int(a), int(p)) for a, p in zip(syms, ps[::-1])]
        yield from _each(f"rank2_many(mixed+{shift}) hi", want_hi, hi.tolist())


def _probe_fm(inputs: dict) -> Iterator[Probe]:
    index, text = _build(inputs), inputs["text"]
    for pat in inputs["patterns"]:
        want = oracle_occurrences(text, pat)
        if want is None:
            # Raw index queries must reject invalid patterns loudly (the
            # forgiving path lives in the mapper, not here).
            yield f"count({pat!r})", "raises AlphabetError", _rejects(index.count, pat)
            continue
        yield f"count({pat!r})", len(want), index.count(pat)
        res = index.search(pat)
        yield f"search({pat!r}) interval width", len(want), res.end - res.start
        bounded = (max(res.start, 0), min(res.end, index.n_rows))
        yield f"search({pat!r}) within [0, {index.n_rows}]", bounded, (res.start, res.end)
        yield f"locate({pat!r})", want, _located(index, pat)


#: Counts a batch search charges exactly as the scalar search does (the
#: scalar wavelet rank skips levels once a position reaches 0, so the
#: binary-rank counts may differ).
_SEARCH_COUNTS = (
    "queries", "bs_steps", "ftab_lookups", "wt_ranks",
    "occ_checkpoint_ranks", "occ_scan_chars",
)


def _probe_batch(inputs: dict) -> Iterator[Probe]:
    """The compacted batch step loop vs the scalar search, with the
    k-mer table off and on: the same ``(start, end, steps)`` for every
    pattern, a batch's counts equal to its patterns' counts searched one
    per call, and the scalar search's query, step, lookup and rank
    counts."""
    patterns = list(inputs["patterns"])
    k = int(inputs.get("ftab_k", 3))
    for label, index in (("", _build(inputs)), (f"ftab k={k} ", _build(inputs, ftab_k=k))):
        with CounterScope() as batch_scope:
            batched = _batch_fp(*index.search_batch(patterns))
        with CounterScope() as single_scope:
            for p in patterns:
                index.search_batch([p])
        with CounterScope() as scalar_scope:
            scalar = [_search_fp(index.search(p)) for p in patterns]
        yield from _each(f"{label}search_batch vs scalar", scalar, batched, patterns)
        got = batch_scope.delta
        yield f"{label}search_batch counts vs one pattern per call", single_scope.delta, got
        yield (
            f"{label}search_batch counts vs scalar",
            {key: scalar_scope.delta[key] for key in _SEARCH_COUNTS},
            {key: got[key] for key in _SEARCH_COUNTS},
        )


def _probe_mapper(inputs: dict) -> Iterator[Probe]:
    mapper = Mapper(_build(inputs), locate=True)
    text, reads = inputs["text"], list(inputs["reads"])
    scalar = [mapper.map_read(s, read_id=i) for i, s in enumerate(reads)]
    for read, res in zip(reads, scalar):
        want = oracle_mapping(text, read)
        if want is None:
            got = (res.reason, res.mapped)
            yield f"map_read({read!r}) (reason, mapped)", (REASON_INVALID_BASE, False), got
        else:
            got = (_positions(res.forward), _positions(res.reverse))
            yield f"map_read({read!r}) (forward, reverse) positions", want, got
    # One invalid read must never poison the batch path, and batching
    # must not change any answer.
    batched = mapper.map_reads(reads, batch=True)
    yield from _each(
        "map_reads vs map_read", _mapping_fps(scalar), _mapping_fps(batched), reads
    )


def _probe_kernel(inputs: dict) -> Iterator[Probe]:
    from ..fpga.accelerator import FPGAAccelerator

    index = _build(inputs)
    mapper = Mapper(index, locate=False)
    reads = list(inputs["reads"])
    run = FPGAAccelerator.for_index(index).map_batch(reads)
    outcomes = sorted(run.kernel_run.outcomes, key=lambda o: o.query_id)
    got = [(o.query_id, o.fwd_start, o.fwd_end, o.rc_start, o.rc_end) for o in outcomes]
    want = []
    for i, read in enumerate(reads):  # invalid reads: the all-zero outcome
        res = mapper.map_read(read, read_id=i)
        f, v = res.forward.interval, res.reverse.interval
        want.append((i, f.start, f.end, v.start, v.end))
    yield from _each("kernel (id, intervals) vs CPU", want, got, reads)


def _reopened(index, probes_of: Callable[[Any], list[Probe]]) -> list[Probe]:
    """``probes_of`` the index saved to a flat container and reopened
    with its checksums verified."""
    with tempfile.TemporaryDirectory(prefix="selfcheck-flat-") as tmp:
        path = Path(tmp) / "index.bwvr"
        save_index_flat(index, path)
        mapped = load_index_flat(path, verify=True)
        probes = probes_of(mapped)
        del mapped  # release the memmap before the directory goes away
    return probes


def _probe_flat(inputs: dict) -> Iterator[Probe]:
    mem = _build(inputs)

    def probes_of(mapped) -> list[Probe]:
        probes = []
        for pat in inputs["patterns"]:
            want, got = mem.search(pat), mapped.search(pat)
            probes.append((f"mmap search({pat!r})", _search_fp(want), _search_fp(got)))
            probes.append((f"mmap locate({pat!r})", _located(mem, pat), _located(mapped, pat)))
        return probes

    yield from _reopened(mem, probes_of)


def _probe_pool(inputs: dict) -> Iterator[Probe]:
    from ..serving.pool import MapperPool

    index = _build(inputs)
    mapper = Mapper(index, locate=True)
    reads = list(inputs["reads"])
    local = [mapper.map_read(s, read_id=i) for i, s in enumerate(reads)]
    with MapperPool(index=index, workers=2) as pool:
        remote = sorted(pool.map_reads(reads, locate=True), key=lambda r: r.read_id)
    yield from _each("pool vs local", _mapping_fps(local), _mapping_fps(remote), reads)


def _probe_ftab(inputs: dict) -> Iterator[Probe]:
    """Jump-start table vs the stepwise chain it replaces: the same
    index built with and without an ftab must agree on the full
    ``(start, end, steps)`` triple for every pattern, scalar and
    batched, and on all 4^k k-mers, whose counts also match the scan."""
    k = int(inputs.get("ftab_k", 3))
    plain, primed = _build(inputs), _build(inputs, ftab_k=k)
    text, patterns = inputs["text"], list(inputs["patterns"])
    for pat in patterns:
        want, got = plain.search(pat), primed.search(pat)
        yield f"primed search({pat!r})", _search_fp(want), _search_fp(got)
    if patterns:
        want, got = plain.search_batch(patterns), primed.search_batch(patterns)
        yield from _each("primed search_batch", _batch_fp(*want), _batch_fp(*got), patterns)
    for kmer in map("".join, product("ACGT", repeat=k)):
        res = primed.search(kmer)
        yield f"table entry {kmer!r}", _search_fp(plain.search(kmer)), _search_fp(res)
        occurrences = oracle_occurrences(text, kmer) or []
        yield f"table entry {kmer!r} interval width", len(occurrences), res.end - res.start


def _probe_coalesce(inputs: dict) -> Iterator[Probe]:
    """Merging is invisible: slicing a shared kernel batch back apart and
    renumbering reproduces each request's independent results bit for
    bit (request-local ``read_id``/``read_name``, ``N`` reads, empty
    patterns); a random ``max_batch_reads`` moves the chunk boundaries."""
    from ..serving.coalescer import CoalescerConfig, RequestCoalescer

    mapper = Mapper(_build(inputs), locate=True)
    requests = [list(reads) for reads in inputs["requests"]]
    independent = [mapper.map_reads(reads) for reads in requests]
    config = CoalescerConfig(max_batch_reads=int(inputs.get("max_batch_reads", 8)))
    merged = RequestCoalescer(mapper.map_reads, config=config).map_many(requests)
    yield "request results", len(independent), len(merged)
    for i, (alone, shared) in enumerate(zip(independent, merged)):
        yield from _each(
            f"coalesced request {i}", _mapping_fps(alone), _mapping_fps(shared), requests[i]
        )


def _probe_router(inputs: dict) -> Iterator[Probe]:
    """Scatter-gather over per-sequence shards, merged by ``(catalog
    ordinal, position, strand)``, answers what one concatenated
    :class:`~repro.index.multiref.MultiReferenceIndex` answers, hit for
    hit, in three passes: plain fan-out, a budget squeezed to one-shard
    waves (LRU eviction between waves), and a coalesced ``map_many``."""
    from ..serving.coalescer import CoalescerConfig, RequestCoalescer
    from ..serving.router import ShardCatalog, ShardRouter

    opts = _structure(inputs)
    records = [(f"seq{i}", str(s)) for i, s in enumerate(inputs["sequences"])]
    reads = list(inputs["reads"])
    want = _multiref_fps(MultiReferenceIndex(records, **opts).map_reads(reads))
    with ShardCatalog() as catalog:
        for name, seq in records:
            catalog.register_sequence(name, seq, **opts)
        router = ShardRouter(catalog)
        yield from _each("routed", want, _multiref_fps(router.map_reads(reads)), reads)
        # The tightest budget that still fits each shard alone forces
        # one-shard waves with evictions between them.
        catalog.deactivate_all()
        catalog.memory_budget_bytes = max(catalog.shard(n).bytes for n in catalog.names)
        yield from _each("budgeted", want, _multiref_fps(router.map_reads(reads)), reads)
        if len(records) > 1:
            yield "budgeted fan-out evicts between waves", True, catalog.evictions > 0
        catalog.memory_budget_bytes = None
        requests = [reads[i : i + 3] for i in range(0, len(reads), 3)]
        config = CoalescerConfig(max_batch_reads=int(inputs.get("max_batch_reads", 8)))
        merged = RequestCoalescer(router.map_reads, config=config).map_many(requests)
        independent = [router.map_reads(req) for req in requests]
        yield from _each(
            "coalesced request vs independent",
            [_multiref_fps(r) for r in independent],
            [_multiref_fps(r) for r in merged],
        )


def _probe_locate(inputs: dict) -> Iterator[Probe]:
    """A sampled index reopened from its flat container locates every
    pattern at exactly the positions a literal scan finds."""
    k = int(inputs.get("sa_sample_rate", 32))
    mem = _build(inputs, locate="sampled", sa_sample_rate=k)
    yield from _reopened(mem, lambda mapped: [
        (f"sampled (k={k}) locate({pat!r})",
         oracle_occurrences(inputs["text"], pat), _located(mapped, pat))
        for pat in inputs["patterns"]
    ])


def _generate_rrr(rng, profile) -> dict:
    bits, b, sf = gen_bitvector_case(rng)
    return {"bits": bits.tolist(), "b": b, "sf": sf}


def _generate_wavelet(rng, profile) -> dict:
    _, b, sf = gen_bitvector_case(rng)  # reuse the boundary b/sf draw
    return {"text": gen_text(rng, profile), "b": b, "sf": sf}


def _generate_router(rng, profile) -> dict:
    n_seqs = int(rng.integers(2, 5))
    sequences = [gen_text(rng, profile) for _ in range(n_seqs)]
    reads: list[str] = []
    for seq in sequences:  # every shard gets reads aimed at it
        reads.extend(gen_read_corpus(rng, seq, max(3, profile.n_reads // n_seqs)))
    return {
        "sequences": sequences,
        "reads": reads,
        "b": int(rng.choice([5, 15])),
        "sf": int(rng.choice([4, 8])),
        "backend": str(rng.choice(["rrr", "occ"])),
        "max_batch_reads": int(rng.integers(1, 17)),
    }


#: The check table.  Row order is load-bearing: it feeds ``rng_for``'s
#: check index, so a new check is appended, never inserted or reordered.
ALL_CHECKS: tuple[Check, ...] = (
    Check("rrr", _generate_rrr, _probe_rrr, _shrink_bits),
    Check("wavelet", _generate_wavelet, _probe_wavelet, _shrink_text),
    Check("fm", _text_with("patterns", _patterns), _probe_fm,
          _shrink_text_corpus("patterns")),
    Check("batch", _text_with("patterns", _valid_patterns, ftab_k=_ftab_k), _probe_batch,
          _shrink_text_corpus("patterns")),
    Check("mapper", _text_with("reads", _reads), _probe_mapper,
          _shrink_text_corpus("reads")),
    # The kernel holds the succinct structure.
    Check("kernel", _text_with("reads", _reads, backend="rrr"), _probe_kernel,
          _shrink_text_corpus("reads"), heavy=True),
    Check("flat", _text_with("patterns", _valid_patterns), _probe_flat,
          _shrink_text_corpus("patterns"), heavy=True),
    Check("pool", _text_with("reads", _reads, backend="rrr"), _probe_pool,
          _shrink_reads_only, once=True),
    # Two index builds and a 4^k table per round.
    Check("ftab", _text_with("patterns", _valid_patterns, ftab_k=_ftab_k), _probe_ftab,
          _shrink_text_corpus("patterns"), heavy=True),
    Check("coalesce", _text_with("requests", _requests, max_batch_reads=_max_batch_reads),
          _probe_coalesce, _shrink_requests),
    # One flat container per sequence plus the oracle per round.
    Check("router", _generate_router, _probe_router, _shrink_reads_only, heavy=True),
    Check("locate", _text_with("patterns", _valid_patterns, sa_sample_rate=_sa_sample_rate),
          _probe_locate, _shrink_text_corpus("patterns")),
)

CHECKS_BY_NAME: dict[str, Check] = {c.name: c for c in ALL_CHECKS}


def get_check(name: str) -> Check:
    """Registry lookup (used by replay and by emitted pytest snippets)."""
    try:
        return CHECKS_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown check {name!r}; have {sorted(CHECKS_BY_NAME)}"
        ) from None


def _tally(outcome: CheckOutcome, cx: Counterexample | None) -> None:
    """Count one round (and its failure, if any) on the outcome and in
    the ``selfcheck_*`` metrics."""
    tel = get_telemetry()
    outcome.rounds += 1
    if tel.enabled:
        tel.metrics.counter(
            "selfcheck_rounds_total",
            "Differential self-check rounds executed",
            labelnames=("check",),
        ).inc(check=outcome.name)
    if cx is None:
        return
    outcome.failures.append(cx)
    if tel.enabled:
        tel.metrics.counter(
            "selfcheck_failures_total",
            "Differential self-check mismatches found",
            labelnames=("check",),
        ).inc(check=outcome.name)


class SelfCheck:
    """The differential self-check runner behind ``repro selfcheck``."""

    def __init__(
        self,
        seed: int = 0,
        profile: str | CheckProfile = "default",
        checks: Sequence[str] | None = None,
        corpus_dir: str | Path | None = None,
        max_failures_per_check: int = 1,
    ):
        self.seed = int(seed)
        self.profile = (
            profile if isinstance(profile, CheckProfile) else PROFILES[profile]
        )
        names = list(checks) if checks else [c.name for c in ALL_CHECKS]
        self.checks = [get_check(n) for n in names]
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.max_failures_per_check = max_failures_per_check

    def _due(self, check: Check, round_index: int) -> bool:
        if check.once:
            return round_index == 0 and self.profile.include_pool
        if check.heavy:
            return round_index % self.profile.heavy_every == 0
        return True

    def run(
        self, rounds: int, progress: Callable[[str], None] | None = None
    ) -> SelfCheckReport:
        report = SelfCheckReport(
            seed=self.seed, rounds=rounds, profile=self.profile.name
        )
        outcomes = {c.name: CheckOutcome(name=c.name) for c in self.checks}
        report.outcomes = list(outcomes.values())
        check_index = {c.name: i for i, c in enumerate(ALL_CHECKS)}
        for r in range(rounds):
            for check in self.checks:
                out = outcomes[check.name]
                if not self._due(check, r):
                    continue
                if len(out.failures) >= self.max_failures_per_check:
                    continue
                rng = rng_for(self.seed, r, check_index[check.name])
                cx = _guarded_round(check, rng, self.profile)
                _tally(out, cx)
                if cx is None:
                    continue
                cx.seed, cx.round_index = self.seed, r
                if self.corpus_dir is not None:
                    report.corpus_written.append(
                        write_corpus_file(cx, self.corpus_dir)
                    )
                if progress is not None:
                    progress(cx.describe())
        return report

    def replay(self, corpus_dir: str | Path) -> SelfCheckReport:
        """Re-verify every stored counterexample (the regression guard)."""
        report = SelfCheckReport(seed=self.seed, rounds=0, profile="replay")
        outcomes: dict[str, CheckOutcome] = {}
        for doc in load_corpus(corpus_dir):
            name = doc["check"]
            if name not in CHECKS_BY_NAME:
                continue
            found = CHECKS_BY_NAME[name].mismatch(doc["inputs"])
            _tally(
                outcomes.setdefault(name, CheckOutcome(name=name)),
                None if found is None else _counterexample(
                    name, doc["inputs"], found,
                    seed=int(doc.get("seed", -1)),
                    round_index=int(doc.get("round", -1)),
                    notes=f"replayed from {doc.get('_path', 'corpus')}",
                ),
            )
        report.outcomes = list(outcomes.values())
        return report


def _guarded_round(
    check: Check, rng: np.random.Generator, profile: CheckProfile
) -> Counterexample | None:
    """One generate+verify round; generation crashes become findings too."""
    try:
        inputs = check.generate(rng, profile)
    except Exception as exc:  # noqa: BLE001
        return _counterexample(
            check.name, {}, _render(*_crash(exc)),
            notes="generator crashed before verification",
        )
    return check.verify(inputs)
