"""Unit tests for the kernel switch and the packed row layout."""

import numpy as np
import pytest

from repro.bitvec import (
    Bitset,
    KERNELS,
    LabelMatrixPair,
    active_kernel,
    set_kernel,
    use_kernel,
)
from repro.bitvec.gap import GapEncodedMatrix


@pytest.fixture
def pair():
    p = LabelMatrixPair(6)
    p.add_edge(0, 1)
    p.add_edge(0, 2)
    p.add_edge(3, 2)
    p.add_edge(5, 0)
    return p


class TestKernelSwitch:
    def test_default_is_packed(self):
        assert active_kernel() == "packed"

    def test_set_and_restore(self):
        previous = set_kernel("reference")
        assert active_kernel() == "reference"
        set_kernel(previous)
        assert active_kernel() == previous

    def test_use_kernel_restores_on_exit(self):
        before = active_kernel()
        with use_kernel("reference"):
            assert active_kernel() == "reference"
        assert active_kernel() == before

    def test_use_kernel_restores_on_error(self):
        before = active_kernel()
        with pytest.raises(RuntimeError):
            with use_kernel("reference"):
                raise RuntimeError("boom")
        assert active_kernel() == before

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            set_kernel("quantum")

    def test_kernels_constant(self):
        assert set(KERNELS) == {"packed", "batched", "reference"}


class TestPackedLayout:
    def test_pack_is_idempotent(self, pair):
        pair.pack()
        packed = pair.forward._packed
        pair.pack()
        assert pair.forward._packed is packed

    def test_pack_block_shape(self, pair):
        pair.pack()
        assert pair.forward._packed.shape == (3, 1)  # rows 0, 3, 5
        assert pair.backward._packed.shape == (3, 1)  # rows 0, 1, 2

    def test_row_index_maps_nodes_to_rows(self, pair):
        pair.pack()
        index = pair.forward._row_index
        for node in (0, 3, 5):
            assert index[node] >= 0
            packed_row = pair.forward._packed[index[node]]
            assert np.array_equal(packed_row, pair.forward.rows[node].words)
        for node in (1, 2, 4):
            assert index[node] == -1

    def test_rows_are_views_into_block(self, pair):
        pair.pack()
        row = pair.forward.rows[0]
        assert row.words.base is pair.forward._packed

    def test_add_after_pack_invalidates(self, pair):
        pair.pack()
        pair.forward.add(1, 4)
        assert not pair.forward.is_packed
        pair.pack()
        assert pair.forward.has_edge(1, 4)

    def test_summary_falls_out_of_build(self, pair):
        pair.pack()
        assert (
            set(pair.forward._row_nodes.tolist())
            == pair.forward.summary.to_set()
        )


class TestBatchedBlockSet:
    def test_entry_appends_rows_with_offsets(self, pair):
        from repro.bitvec import BatchedBlockSet

        blocks = BatchedBlockSet(6)
        fwd = blocks.entry("l", "forward", pair.forward)
        bwd = blocks.entry("l", "backward", pair.backward)
        assert fwd.offset == 0
        assert bwd.offset == fwd.n_rows == 3
        assert blocks.n_rows == 6
        assert blocks.n_entries == 2
        assert np.array_equal(
            blocks.block[fwd.offset : fwd.offset + fwd.n_rows],
            pair.forward._packed,
        )
        assert np.array_equal(
            blocks.block[bwd.offset : bwd.offset + bwd.n_rows],
            pair.backward._packed,
        )

    def test_entry_is_cached(self, pair):
        from repro.bitvec import BatchedBlockSet

        blocks = BatchedBlockSet(6)
        first = blocks.entry("l", "forward", pair.forward)
        assert blocks.entry("l", "forward", pair.forward) is first
        assert blocks.n_rows == first.n_rows

    def test_append_does_not_restack_existing_entries(self, pair):
        from repro.bitvec import BatchedBlockSet

        blocks = BatchedBlockSet(6)
        fwd = blocks.entry("l", "forward", pair.forward)
        other = LabelMatrixPair(6)
        other.add_edge(1, 3)
        blocks.entry("m", "forward", other.forward)
        # The first entry's offset and rows are untouched by the
        # append (growth copies, never re-stacks per label).
        assert fwd.offset == 0
        assert np.array_equal(
            blocks.block[: fwd.n_rows], pair.forward._packed
        )

    def test_growth_preserves_content(self):
        from repro.bitvec import BatchedBlockSet

        blocks = BatchedBlockSet(80)
        pairs = []
        for i in range(30):
            p = LabelMatrixPair(80)
            for j in range(10):
                p.add_edge((i + j) % 80, (i * 7 + j) % 80)
            pairs.append(p)
            blocks.entry(f"l{i}", "forward", p.forward)
        for i, p in enumerate(pairs):
            entry = blocks.entry(f"l{i}", "forward", p.forward)
            assert np.array_equal(
                blocks.block[entry.offset : entry.offset + entry.n_rows],
                p.forward._packed,
            )

    def test_stale_entry_reappended_after_repack(self, pair):
        from repro.bitvec import BatchedBlockSet

        blocks = BatchedBlockSet(6)
        first = blocks.entry("l", "forward", pair.forward)
        pair.forward.add(1, 4)  # invalidates the packed block
        fresh = blocks.entry("l", "forward", pair.forward)
        assert fresh is not first
        assert fresh.offset >= first.offset + first.n_rows
        assert np.array_equal(
            blocks.block[fresh.offset : fresh.offset + fresh.n_rows],
            pair.forward._packed,
        )

    def test_row_index_is_shared_not_copied(self, pair):
        from repro.bitvec import BatchedBlockSet

        blocks = BatchedBlockSet(6)
        entry = blocks.entry("l", "forward", pair.forward)
        assert entry.row_index is pair.forward._row_index


class TestGapImportPath:
    def test_roundtrip_to_packed_adjacency(self, pair):
        pair.pack()
        encoded = GapEncodedMatrix.from_adjacency(pair.forward)
        decoded = encoded.to_adjacency()
        assert decoded.is_packed
        assert decoded.n_edges == pair.forward.n_edges
        assert decoded.summary == pair.forward.summary
        for node, row in pair.forward.rows.items():
            assert decoded.rows[node] == row

    def test_products_agree_after_import(self, pair):
        pair.pack()
        restored = GapEncodedMatrix.from_adjacency(pair.forward).to_adjacency()
        vec = Bitset.from_indices(6, [0, 3])
        assert restored.product_rowwise(vec) == pair.forward.product_rowwise(
            vec
        )
