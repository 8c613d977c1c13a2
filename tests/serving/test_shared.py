"""Shared-memory / mmap index publishing: attach lifecycle, no leaks."""

import glob
import os

import numpy as np
import pytest

from repro.core.counters import CounterScope
from repro.index.builder import build_index
from repro.serving.shared import (
    FlatFileBlock,
    SharedIndexBlock,
    attach_index,
    publish_index,
    release_attachment,
)


def _shm_names():
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture()
def index(small_text):
    idx, _ = build_index(small_text, sf=8)
    return idx


class TestSharedIndexBlock:
    def test_publish_attach_query(self, index, small_text):
        before = _shm_names()
        with SharedIndexBlock(index) as block:
            spec = block.spec
            assert spec["kind"] == "shm"
            attached, handle = attach_index(spec)
            pat = small_text[30:60]
            assert attached.count(pat) == index.count(pat)
            attached = None
            release_attachment(handle)
        assert _shm_names() == before

    def test_attach_with_counters(self, index, small_text):
        """An attached index charges the scope open around its queries."""
        with SharedIndexBlock(index) as block:
            attached, handle = attach_index(block.spec)
            with CounterScope() as scope:
                attached.count(small_text[10:40])
            assert scope.delta["wt_ranks"] > 0
            attached = None
            release_attachment(handle)

    def test_multiple_attachments_share_one_copy(self, index, small_text):
        """Two attachments answer identically off the same segment."""
        with SharedIndexBlock(index) as block:
            a1, h1 = attach_index(block.spec)
            a2, h2 = attach_index(block.spec)
            pat = small_text[80:110]
            assert a1.count(pat) == a2.count(pat) == index.count(pat)
            a1 = a2 = None
            release_attachment(h1)
            release_attachment(h2)

    def test_unlink_removes_segment(self, index):
        before = _shm_names()
        block = SharedIndexBlock(index)
        assert len(_shm_names()) == len(before) + 1
        block.close()
        block.unlink()
        assert _shm_names() == before

    def test_release_attachment_tolerates_live_views(self, index):
        """release_attachment must not raise while numpy views exist."""
        with SharedIndexBlock(index) as block:
            attached, handle = attach_index(block.spec)
            release_attachment(handle)  # views still alive on purpose
            del attached


class TestFlatFileBlock:
    def test_from_index_round_trip(self, index, small_text, tmp_path):
        block = FlatFileBlock.from_index(index, dir=tmp_path)
        try:
            assert block.spec["kind"] == "mmap"
            attached, handle = attach_index(block.spec)
            assert attached.count(small_text[5:35]) == index.count(small_text[5:35])
            assert handle is None
        finally:
            block.unlink()
        assert not os.path.exists(block.spec["path"])


class TestPublishIndex:
    def test_auto_prefers_shm(self, index):
        block = publish_index(index, mode="auto")
        try:
            assert block.spec["kind"] == "shm"
        finally:
            block.close()
            block.unlink()

    def test_mmap_mode(self, index, small_text):
        block = publish_index(index, mode="mmap")
        try:
            assert block.spec["kind"] == "mmap"
            attached, _ = attach_index(block.spec)
            assert attached.count(small_text[0:25]) == index.count(small_text[0:25])
        finally:
            block.unlink()

    def test_spec_is_picklable_plain_data(self, index):
        block = publish_index(index, mode="mmap")
        try:
            spec = block.spec
            assert all(isinstance(v, (str, int)) for v in spec.values())
        finally:
            block.unlink()
