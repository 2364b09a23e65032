"""N:M structured pruning and the packed weight representation.

A dense weight matrix is pruned so that each group of ``m`` consecutive rows
of a column keeps at most ``n`` non-zero values.  The survivors are packed as
(value, position) pairs; the positions later drive the activation-select
multiplexers inside each tensor processing element, which is what makes the
skipped multiplications free in hardware.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from stasim.arith import check_signed_range, outside_range


@dataclass(frozen=True)
class SparseBlock:
    """Read-only view of one packed block: a TPE's n (value, index) pairs."""

    values: tuple[int, ...]
    indexes: tuple[int, ...]


def _check_packing(m: int, n: int, data_width: int) -> None:
    if not 1 <= n <= m:
        raise ValueError(f"tile needs 1 <= n <= m, got n={n} m={m}")
    if not 2 <= data_width <= 30:
        raise ValueError(f"tile data_width {data_width} outside supported 2..30")


def check_entries(values: np.ndarray, indexes: np.ndarray, m: int, data_width: int) -> None:
    """Reject packed tiles, (..., rows, cols, n), with an entry out of range.

    Entries must be integers: indexes in 0..m-1, values in the signed
    ``data_width`` range.  The message names the first bad entry as
    ``tile [t] block (i, j) slot s``.
    """
    half = 1 << (data_width - 1)
    named = (("indexes", indexes, 0, m - 1), ("values", values, -half, half - 1))
    if all(
        np.issubdtype(a.dtype, np.integer) and (a.size == 0 or lo <= a.min() and a.max() <= hi)
        for _, a, lo, hi in named
    ):
        return  # whole-array bounds: no per-entry masks on the common path
    bad_idx, bad_value = (outside_range(a, lo, hi) for _, a, lo, hi in named)
    if (bad_idx | bad_value).any():
        first = tuple(np.argwhere(bad_idx | bad_value)[0])
        if bad_idx[first]:
            problem = f"index {indexes[first].item()!r} not in 0..{m - 1}"
        else:
            problem = f"value {values[first].item()!r} not in {-half}..{half - 1}"
        *stack, i, j, s = first
        where = " ".join(["tile", *map(str, stack), f"block ({i}, {j}) slot {s}"])
        raise ValueError(f"{where}: {problem}")
    for name, a, _, _ in named:
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"tile {name} must be integers, got dtype {a.dtype}")


@dataclass(frozen=True, eq=False)
class SparseWeightTile:
    """An R x C grid of packed blocks, ready to load into the array.

    ``values`` and ``indexes`` are read-only (R, C, n) int64 arrays: block
    (i, j) covers dense rows ``i*m .. i*m + m - 1`` of dense column j and
    holds its survivors as n (value, position) pairs.  Construction checks
    ``1 <= n <= m``, ``2 <= data_width <= 30``, the shapes, indexes in
    0..m-1 and values in the signed ``data_width`` range.
    """

    values: np.ndarray
    indexes: np.ndarray
    m: int
    n: int
    data_width: int

    def __post_init__(self) -> None:
        _check_packing(self.m, self.n, self.data_width)
        vals, idxs = np.asarray(self.values), np.asarray(self.indexes)
        if vals.ndim != 3 or vals.shape[2] != self.n or idxs.shape != vals.shape:
            raise ValueError(
                f"tile values {vals.shape} and indexes {idxs.shape} must both "
                f"have shape (rows, cols, n={self.n})"
            )
        check_entries(vals, idxs, self.m, self.data_width)
        for name, arr in (("indexes", idxs), ("values", vals)):
            stored = arr.astype(np.int64)
            stored.flags.writeable = False
            object.__setattr__(self, name, stored)

    @property
    def grid_rows(self) -> int:
        return self.values.shape[0]

    @property
    def grid_cols(self) -> int:
        return self.values.shape[1]

    @property
    def source_dims(self) -> tuple[int, int]:
        """Shape of the dense matrix this tile packs."""
        return (self.grid_rows * self.m, self.grid_cols)

    @cached_property
    def blocks(self) -> tuple[tuple[SparseBlock, ...], ...]:
        """The blocks as a grid of ``SparseBlock`` views, ``blocks[i][j]``."""
        return tuple(
            tuple(SparseBlock(tuple(v), tuple(x)) for v, x in zip(vrow, xrow))
            for vrow, xrow in zip(self.values.tolist(), self.indexes.tolist())
        )

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "data_width": self.data_width,
            "rows": self.source_dims[0],
            "cols": self.source_dims[1],
            "blocks": [
                [{"values": list(b.values), "indexes": list(b.indexes)} for b in row]
                for row in self.blocks
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SparseWeightTile":
        try:
            m = int(data["m"])
            n = int(data["n"])
            width = int(data["data_width"])
            values, indexes = (
                np.array([[b[key] for b in row] for row in data["blocks"]])
                for key in ("values", "indexes")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed tile description: {exc}") from exc
        tile = cls(values, indexes, m=m, n=n, data_width=width)
        rows, cols = data.get("rows", tile.source_dims[0]), data.get("cols", tile.grid_cols)
        if (rows, cols) != tile.source_dims:
            raise ValueError(
                f"tile rows {rows} and cols {cols} disagree with its "
                f"{tile.grid_rows}x{tile.grid_cols} block grid of m={m}"
            )
        return tile


def pack_tile(
    dense_w, m: int, n: int, data_width: int = 16
) -> SparseWeightTile:
    """Prune and pack a dense weight matrix column-wise into m-row blocks.

    Each block keeps its n largest magnitudes, ties going to the lower
    position; zeros are dropped, the survivors are stored in position order
    and padded with (value 0, index 0).  The row count must be divisible by
    m.  Values must fit ``data_width`` bits signed; anything wider is a
    usage error, not silently wrapped.
    """
    _check_packing(m, n, data_width)
    w = np.asarray(dense_w)
    if w.ndim != 2 or w.size == 0:
        raise ValueError(f"weight matrix must be 2-D and non-empty, got shape {w.shape}")
    if not np.issubdtype(w.dtype, np.integer):
        raise ValueError("weight matrix must be integer-valued")
    rows, cols = w.shape
    if rows % m != 0:
        raise ValueError(f"{rows} weight rows not divisible by block size {m}")
    check_signed_range("weight", w, data_width)
    # Blocks as (m, blocks), positions first, so that every step below runs
    # along the long axis of blocks; counts up to m fit ``count``.
    blocks = w.astype(np.int64).reshape(rows // m, m, cols).swapaxes(0, 1).reshape(m, -1)
    count = np.min_scalar_type(m)
    # Keys unique within a block, larger first: magnitude, then lower position.
    key = np.abs(blocks) * m - np.arange(m)[:, None]
    # A non-zero weight survives when fewer than n keys of its block beat it.
    beaten = (key > key[:, None]).view(np.uint8).sum(axis=1, dtype=count)
    kept = (beaten < n) & (blocks != 0)
    # Slot s holds the survivor with s + 1 survivors up to its position.
    upto = np.cumsum(kept.view(np.uint8), axis=0, dtype=count)
    slot = (upto == np.arange(1, n + 1, dtype=count)[:, None, None]) & kept
    values = np.einsum("smb,mb->sb", slot, blocks)
    indexes = np.einsum("smb,m->sb", slot, np.arange(m))
    values, indexes = (
        part.reshape(n, rows // m, cols).transpose(1, 2, 0) for part in (values, indexes)
    )
    return SparseWeightTile(values, indexes, m=m, n=n, data_width=data_width)


def densify(tile: SparseWeightTile) -> np.ndarray:
    """Reconstruct the pruned dense matrix a tile represents.

    Slots that share a position add up, as their products do in the array.
    """
    r, c, _ = tile.values.shape
    out = np.zeros((r, tile.m, c), dtype=np.int64)
    i, j, _ = np.indices(tile.values.shape, sparse=True)
    np.add.at(out, (i, tile.indexes, j), tile.values)
    return out.reshape(r * tile.m, c)


def read_matrix_csv(path) -> np.ndarray:
    """Load a row-major CSV of signed decimal integers."""
    rows: list[list[int]] = []
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in record]
            if not any(cells):
                continue
            try:
                rows.append([int(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer cell") from exc
            for col, value in enumerate(rows[-1]):
                if not -(1 << 63) <= value < 1 << 63:
                    raise ValueError(
                        f"{path}:{lineno}: column {col}: value {value} does not fit 64 bits"
                    )
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: ragged row of {len(rows[-1])} cells, "
                    f"expected {len(rows[0])}"
                )
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    return np.array(rows, dtype=np.int64)


def write_matrix_csv(path, matrix) -> None:
    """Write an integer matrix as row-major CSV."""
    arr = np.asarray(matrix)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in arr:
            writer.writerow([int(v) for v in row])
