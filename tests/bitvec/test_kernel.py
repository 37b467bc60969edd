"""Unit tests for the kernel switch and the packed row layout."""

import numpy as np
import pytest

from repro.bitvec import (
    AdjacencyMatrix,
    Bitset,
    KERNELS,
    active_kernel,
    build_label_matrices,
    set_kernel,
    use_kernel,
)
from repro.bitvec.gap import GapEncodedMatrix

EDGES = [(0, 1), (0, 2), (3, 2), (5, 0)]


def _pair(n, edges):
    """The CSR pair of one label with the given ``(s, d)`` edges."""
    return build_label_matrices(n, [(s, "l", d) for s, d in edges])["l"]


@pytest.fixture
def pair():
    return _pair(6, EDGES)


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
        other = _pair(6, [(1, 3)])
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
            p = _pair(80, [((i + j) % 80, (i * 7 + j) % 80)
                           for j in range(10)])
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
        rebuilt = _pair(6, EDGES + [(1, 4)])  # a new pair, same key
        fresh = blocks.entry("l", "forward", rebuilt.forward)
        assert fresh is not first
        assert fresh.offset >= first.offset + first.n_rows
        assert np.array_equal(
            blocks.block[fresh.offset : fresh.offset + fresh.n_rows],
            rebuilt.forward._packed,
        )

    def test_row_index_is_shared_not_copied(self, pair):
        from repro.bitvec import BatchedBlockSet

        blocks = BatchedBlockSet(6)
        entry = blocks.entry("l", "forward", pair.forward)
        assert entry.row_index is pair.forward._row_index


class TestGapImportPath:
    """Gap-encoded rows decode back to the rows derived from the CSR,
    and a matrix rebuilt from the decoded rows answers the same
    products."""

    def test_roundtrip_to_packed_adjacency(self, pair):
        encoded = GapEncodedMatrix.from_adjacency(pair.forward)
        assert set(pair.forward.rows) == {0, 3, 5}
        for node, row in pair.forward.rows.items():
            assert node in encoded
            assert encoded.row(node) == row
        assert encoded.row(1) is None

    def test_products_agree_after_import(self, pair):
        encoded = GapEncodedMatrix.from_adjacency(pair.forward)
        entries = [
            (node, int(column))
            for node in sorted(pair.forward.rows)
            for column in encoded.row(node).iter_ones()
        ]
        rows, columns = (np.array(c, dtype=np.int64) for c in zip(*entries))
        restored = AdjacencyMatrix.from_sorted_columns(6, rows, columns)
        assert restored.n_edges == pair.forward.n_edges
        assert restored.summary == pair.forward.summary
        for nodes in ([0, 3], [5], [1, 2, 4], range(6)):
            vec = Bitset.from_indices(6, nodes)
            assert restored.product_rowwise(vec) == (
                pair.forward.product_rowwise(vec)
            )
