"""Unit tests for structured pruning and the packed tile representation."""

import numpy as np
import pytest

from stasim.sparsity import (
    SparseBlock,
    SparseWeightTile,
    densify,
    pack_tile,
    read_matrix_csv,
    write_matrix_csv,
)


def prune_oracle(block, n):
    """Independent reference pruning: keep the n largest magnitudes.

    Ties break toward the lower position; returns the pruned dense block.
    """
    order = sorted(range(len(block)), key=lambda i: (-abs(block[i]), i))
    keep = set(order[:n])
    return [v if i in keep else 0 for i, v in enumerate(block)]


def at_most_n_per_block(dense, m, n):
    """Whether every m-row block of every column holds at most n non-zeros."""
    blocks = dense.reshape(-1, m, dense.shape[1])
    return bool((np.count_nonzero(blocks, axis=1) <= n).all())


def pack_block(block, n):
    """(values, indexes) of one block packed as a one-column tile."""
    tile = pack_tile(np.array(block).reshape(-1, 1), len(block), n)
    return tile.blocks[0][0].values, tile.blocks[0][0].indexes


def test_prune_known_blocks():
    assert pack_block([5, -1, 2, 3], 2) == ((5, 3), (0, 3))
    assert pack_block([0, 0, 0, 0], 2) == ((0, 0), (0, 0))
    # magnitude tie between -2 and 2 resolves toward the lower position;
    # the 1/1 tie loses to both of them
    assert pack_block([2, -2, 1, 1], 2) == ((2, -2), (0, 1))
    assert pack_block([1, 1, 1, 1], 3) == ((1, 1, 1), (0, 1, 2))


def test_prune_matches_oracle_randomized():
    rng = np.random.default_rng(23)
    for _ in range(500):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m + 1))
        block = [int(v) for v in rng.integers(-50, 51, size=m)]
        tile = pack_tile(np.array(block).reshape(m, 1), m, n)
        assert densify(tile)[:, 0].tolist() == prune_oracle(block, n)
    # Blocks of more than 255 positions count past one byte.
    for m in (256, 300):
        block = [int(v) for v in rng.integers(-50, 51, size=m)]
        for n in (1, 255, m):
            tile = pack_tile(np.array(block).reshape(m, 1), m, n)
            assert densify(tile)[:, 0].tolist() == prune_oracle(block, n)


def test_prune_padding_and_ordering():
    assert pack_block([0, 9, 0, 0], 2) == ((9, 0), (1, 0))
    # a zero that ranks among the n largest is dropped, not kept
    assert pack_block([0, 0, -4, 0], 3) == ((-4, 0, 0), (2, 0, 0))
    # surviving positions are stored in increasing order
    assert pack_block([1, 0, 0, 7], 2) == ((1, 7), (0, 3))
    assert pack_block([1, 3, 8, 2], 3) == ((3, 8, 2), (1, 2, 3))


def test_prune_rejects_bad_keep_count():
    column = np.array([[1], [2], [3], [4]])
    with pytest.raises(ValueError, match=r"tile needs 1 <= n <= m, got n=0 m=4"):
        pack_tile(column, 4, 0)
    with pytest.raises(ValueError, match=r"got n=5 m=4"):
        pack_tile(column, 4, 5)
    # m is checked before the rows are divided into blocks of m
    with pytest.raises(ValueError, match=r"got n=2 m=0"):
        pack_tile(column, 0, 2)


def test_block_mask():
    """The keep/drop bits ``stasim prune`` writes come from ``densify``."""
    tile = pack_tile(np.array([[5, 0], [-1, 0], [2, 0], [3, 0]]), 4, 2)
    assert (densify(tile) != 0).T.astype(int).tolist() == [[1, 0, 0, 1], [0, 0, 0, 0]]


def test_pack_lossless_when_already_sparse():
    w = np.array(
        [
            [4, 0],
            [0, -3],
            [0, 7],
            [-1, 0],
            [0, 0],
            [2, 0],
            [0, 0],
            [5, -6],
        ]
    )
    assert at_most_n_per_block(w, 4, 2)
    tile = pack_tile(w, 4, 2)
    assert np.array_equal(densify(tile), w)
    # the multiset of non-zero entries survives the round trip
    nz = {(i, j, int(w[i, j])) for i, j in zip(*np.nonzero(w))}
    d = densify(tile)
    assert {(i, j, int(d[i, j])) for i, j in zip(*np.nonzero(d))} == nz


def test_pack_matches_pruning_oracle():
    rng = np.random.default_rng(29)
    for _ in range(50):
        rows = 4 * int(rng.integers(1, 5))
        cols = int(rng.integers(1, 7))
        w = rng.integers(-100, 101, size=(rows, cols))
        tile = pack_tile(w, 4, 2)
        expected = np.zeros_like(w)
        for j in range(cols):
            for i in range(0, rows, 4):
                expected[i : i + 4, j] = prune_oracle(list(w[i : i + 4, j]), 2)
        assert np.array_equal(densify(tile), expected)
        assert at_most_n_per_block(densify(tile), 4, 2)


def test_pack_densify_idempotent():
    rng = np.random.default_rng(31)
    w = rng.integers(-1000, 1001, size=(16, 5))
    tile = pack_tile(w, 4, 2)
    again = pack_tile(densify(tile), 4, 2)
    assert again.to_dict() == tile.to_dict()


def test_pack_one_per_block_mode():
    rng = np.random.default_rng(37)
    w = rng.integers(-100, 101, size=(12, 3))
    tile = pack_tile(w, 4, 1)
    dense = densify(tile)
    assert at_most_n_per_block(dense, 4, 1)
    for j in range(3):
        for i in range(0, 12, 4):
            chunk = dense[i : i + 4, j]
            assert np.count_nonzero(chunk) <= 1
            if np.count_nonzero(chunk):
                assert max(abs(w[i : i + 4, j])) == abs(chunk).max()


def test_pack_argument_validation():
    with pytest.raises(ValueError):
        pack_tile(np.zeros((7, 2), dtype=int), 4, 2)  # rows not divisible by m
    with pytest.raises(ValueError):
        pack_tile(np.zeros((0, 2), dtype=int), 4, 2)
    with pytest.raises(ValueError):
        pack_tile(np.zeros((4, 2)), 4, 2)  # float dtype
    with pytest.raises(ValueError):
        pack_tile(np.full((4, 2), 40000, dtype=int), 4, 2)  # exceeds 16-bit
    pack_tile(np.full((4, 2), 40000, dtype=int), 4, 2, data_width=18)


def test_pack_names_the_out_of_range_weight():
    w = np.zeros((8, 3), dtype=int)
    w[5, 2] = 40000
    message = r"weight row 5 column 2: value 40000 outside 16-bit signed range"
    with pytest.raises(ValueError, match=message):
        pack_tile(w, 4, 2)


def test_tile_properties_and_dict_round_trip():
    rng = np.random.default_rng(41)
    w = rng.integers(-99, 100, size=(8, 3))
    tile = pack_tile(w, 4, 2)
    assert tile.grid_rows == 2
    assert tile.grid_cols == 3
    assert tile.source_dims == (8, 3)
    assert tile.values.shape == tile.indexes.shape == (2, 3, 2)
    assert tile.values.dtype == tile.indexes.dtype == np.int64
    with pytest.raises(ValueError):
        tile.values[0, 0, 0] = 1  # read-only
    assert tile.blocks[1][2] == SparseBlock(
        tuple(tile.values[1, 2].tolist()), tuple(tile.indexes[1, 2].tolist())
    )
    restored = SparseWeightTile.from_dict(tile.to_dict())
    assert restored.to_dict() == tile.to_dict()
    assert np.array_equal(restored.values, tile.values)


def test_tile_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        SparseWeightTile.from_dict({"m": 4})
    tile = pack_tile(np.ones((4, 2), dtype=int), 4, 2)
    data = tile.to_dict()
    data["blocks"][0][0]["values"] = [1, 2, 3]
    with pytest.raises(ValueError):
        SparseWeightTile.from_dict(data)


@pytest.mark.parametrize(
    "rows, cols",
    [(999, 7), (8, 7), (4, 2), ("8", 2)],
    ids=["both", "cols", "rows", "rows-text"],
)
def test_tile_from_dict_rejects_a_shape_that_disagrees_with_the_blocks(rows, cols):
    data = pack_tile(np.ones((8, 2), dtype=int), 4, 2).to_dict()
    assert (data["rows"], data["cols"]) == (8, 2)
    data["rows"], data["cols"] = rows, cols
    message = rf"tile rows {rows} and cols {cols} disagree with its 2x2 block grid of m=4"
    with pytest.raises(ValueError, match=message):
        SparseWeightTile.from_dict(data)


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("indexes", [7, 0], r"block \(0, 1\) slot 0: index 7 not in 0\.\.3"),
        ("indexes", [0, -1], r"block \(0, 1\) slot 1: index -1 not in 0\.\.3"),
        ("values", [99999, 1], r"block \(0, 1\) slot 0: value 99999 not in -32768\.\.32767"),
        ("values", [1, -32769], r"slot 1: value -32769 not in"),
        ("values", [1.5, 1], r"slot 0: value 1.5 not in"),
    ],
    ids=["index-high", "index-negative", "value-high", "value-low", "value-float"],
)
def test_tile_from_dict_rejects_out_of_range_entries(field, bad, message):
    data = pack_tile(np.ones((4, 2), dtype=int), 4, 2).to_dict()
    data["blocks"][0][1][field] = bad
    with pytest.raises(ValueError, match=message):
        SparseWeightTile.from_dict(data)


@pytest.mark.parametrize(
    "values, indexes, message",
    [
        ([[[3, 99999]]], [[[7, 0]]], r"block \(0, 0\) slot 0: index 7 not in 0\.\.3"),
        ([[[3, 99999]]], [[[0, 1]]], r"slot 1: value 99999 not in -32768\.\.32767"),
        ([[[3, 2.5]]], [[[0, 1]]], r"slot 1: value 2.5 not in"),
        ([[[3]]], [[[0]]], r"values \(1, 1, 1\) and indexes \(1, 1, 1\) must both have shape"),
        ([[[1, 2], [1, 2]]], [[[0, 1]]], r"values \(1, 2, 2\) and indexes \(1, 1, 2\)"),
        ([[[3.0, 2.0]]], [[[0, 1]]], r"tile values must be integers, got dtype float64"),
    ],
    ids=["index", "value", "value-float", "arity", "ragged", "float-dtype"],
)
def test_tile_construction_checks_entries(values, indexes, message):
    """Tiles built in code get the same checks as ``from_dict``."""
    with pytest.raises(ValueError, match=message):
        SparseWeightTile(values, indexes, m=4, n=2, data_width=16)


@pytest.mark.parametrize(
    "m, n, data_width, message",
    [
        (4, 2, 0, r"tile data_width 0 outside supported 2\.\.30"),
        (4, 2, 31, r"tile data_width 31 outside"),
        (0, 0, 16, r"tile needs 1 <= n <= m, got n=0 m=0"),
        (2, 3, 16, r"tile needs 1 <= n <= m, got n=3 m=2"),
    ],
    ids=["data_width-0", "data_width-31", "m-n-0", "n-above-m"],
)
def test_tile_checks_its_parameters(m, n, data_width, message):
    data = {"m": m, "n": n, "data_width": data_width, "blocks": []}
    with pytest.raises(ValueError, match=message):
        SparseWeightTile.from_dict(data)
    with pytest.raises(ValueError, match=message):
        SparseWeightTile(np.zeros((1, 1, n)), np.zeros((1, 1, n)), m, n, data_width)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    w = rng.integers(-32768, 32768, size=(10, 7))
    path = tmp_path / "w.csv"
    write_matrix_csv(path, w)
    assert np.array_equal(read_matrix_csv(path), w)


def test_csv_error_reporting(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="ragged"):
        read_matrix_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    with pytest.raises(ValueError, match="non-integer"):
        read_matrix_csv(bad)

    huge = tmp_path / "huge.csv"
    huge.write_text(f"1,2\n3,{-(1 << 63) - 1}\n")
    with pytest.raises(ValueError, match=r"huge.csv:2: column 1: value -9223372036854775809"):
        read_matrix_csv(huge)

    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(empty)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("1,2\n\n3,4\n\n")
    assert np.array_equal(read_matrix_csv(path), [[1, 2], [3, 4]])
