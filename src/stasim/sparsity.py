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
from numbers import Integral
from typing import Sequence

import numpy as np

from stasim.arith import wrap_signed


@dataclass(frozen=True)
class SparseBlock:
    """Packed form of one m-element column slice.

    ``values`` holds the surviving entries ordered by position, padded with
    zeros up to length n; ``indexes`` holds their positions inside the block,
    with padding entries defaulting to position 0.
    """

    values: tuple[int, ...]
    indexes: tuple[int, ...]

    def nonzero_count(self) -> int:
        return sum(1 for v in self.values if v != 0)

    def mask(self, m: int) -> tuple[int, ...]:
        """Per-position keep/drop bits of the original block."""
        kept = {i for v, i in zip(self.values, self.indexes) if v != 0}
        return tuple(1 if i in kept else 0 for i in range(m))


def prune_to_nm(block: Sequence[int], n: int) -> SparseBlock:
    """Prune one column block to at most ``n`` non-zeros.

    Keeps the n largest-magnitude entries, breaking magnitude ties toward the
    lower position, then stores them in position order.
    """
    m = len(block)
    if n < 1 or n > m:
        raise ValueError(f"cannot keep {n} of {m} block entries")
    ranked = sorted(range(m), key=lambda i: (-abs(block[i]), i))
    kept = sorted(i for i in ranked[:n] if block[i] != 0)
    pad = n - len(kept)
    return SparseBlock(
        values=tuple(int(block[i]) for i in kept) + (0,) * pad,
        indexes=tuple(kept) + (0,) * pad,
    )


@dataclass(frozen=True)
class SparseWeightTile:
    """An R x C grid of packed blocks, ready to load into the array.

    Grid row i, column j covers dense rows ``i*m .. i*m + m - 1`` of dense
    column j.  ``data_width`` is the two's-complement width every value is
    checked against at construction, together with the grid shape, the
    block arity n and the index range 0..m-1.
    """

    blocks: tuple[tuple[SparseBlock, ...], ...]
    m: int
    n: int
    data_width: int

    def __post_init__(self) -> None:
        m, n = self.m, self.n
        if not 1 <= n <= m:
            raise ValueError(f"tile needs 1 <= n <= m, got n={n} m={m}")
        if not 2 <= self.data_width <= 30:
            raise ValueError(f"tile data_width {self.data_width} outside supported 2..30")
        lo, hi = -(1 << (self.data_width - 1)), (1 << (self.data_width - 1)) - 1
        for i, row in enumerate(self.blocks):
            if len(row) != self.grid_cols:
                raise ValueError("ragged tile block grid")
            for j, blk in enumerate(row):
                if len(blk.values) != n or len(blk.indexes) != n:
                    raise ValueError("tile block arity does not match n")
                for slot, (v, pos) in enumerate(zip(blk.values, blk.indexes)):
                    where = f"tile block ({i}, {j}) slot {slot}"
                    if not (isinstance(pos, Integral) and 0 <= pos < m):
                        raise ValueError(f"{where}: index {pos!r} not in 0..{m - 1}")
                    if not (isinstance(v, Integral) and lo <= v <= hi):
                        raise ValueError(f"{where}: value {v!r} not in {lo}..{hi}")

    @property
    def grid_rows(self) -> int:
        return len(self.blocks)

    @property
    def grid_cols(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    @property
    def source_dims(self) -> tuple[int, int]:
        """Shape of the dense matrix this tile packs."""
        return (self.grid_rows * self.m, self.grid_cols)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, indexes) as two (rows, cols, n) int64 arrays."""
        vals = np.array(
            [[blk.values for blk in row] for row in self.blocks], dtype=np.int64
        )
        idxs = np.array(
            [[blk.indexes for blk in row] for row in self.blocks], dtype=np.int64
        )
        return vals, idxs

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "data_width": self.data_width,
            "rows": self.source_dims[0],
            "cols": self.source_dims[1],
            "blocks": [
                [
                    {"values": list(blk.values), "indexes": list(blk.indexes)}
                    for blk in row
                ]
                for row in self.blocks
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SparseWeightTile":
        try:
            m = int(data["m"])
            n = int(data["n"])
            width = int(data["data_width"])
            rows = [
                tuple(
                    SparseBlock(tuple(b["values"]), tuple(b["indexes"]))
                    for b in row
                )
                for row in data["blocks"]
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed tile description: {exc}") from exc
        return cls(blocks=tuple(rows), m=m, n=n, data_width=width)


def pack_tile(
    dense_w, m: int, n: int, data_width: int = 16
) -> SparseWeightTile:
    """Prune and pack a dense weight matrix column-wise into m-row blocks.

    The row count must be divisible by m.  Values must fit ``data_width``
    bits signed; anything wider is a usage error, not silently wrapped.
    """
    w = np.asarray(dense_w)
    if w.ndim != 2 or w.size == 0:
        raise ValueError(f"weight matrix must be 2-D and non-empty, got shape {w.shape}")
    if not np.issubdtype(w.dtype, np.integer):
        raise ValueError("weight matrix must be integer-valued")
    rows, cols = w.shape
    if rows % m != 0:
        raise ValueError(f"{rows} weight rows not divisible by block size {m}")
    w = w.astype(np.int64)
    if np.any(wrap_signed(w, data_width) != w):
        raise ValueError(f"weight values exceed {data_width}-bit signed range")
    grid = tuple(
        tuple(prune_to_nm(w[i * m : (i + 1) * m, j], n) for j in range(cols))
        for i in range(rows // m)
    )
    return SparseWeightTile(blocks=grid, m=m, n=n, data_width=data_width)


def densify(tile: SparseWeightTile) -> np.ndarray:
    """Reconstruct the pruned dense matrix a tile represents."""
    rows, cols = tile.source_dims
    out = np.zeros((rows, cols), dtype=np.int64)
    for i, row in enumerate(tile.blocks):
        for j, blk in enumerate(row):
            for v, pos in zip(blk.values, blk.indexes):
                if v != 0:
                    out[i * tile.m + pos, j] = v
    return out


def validate_nm(dense_w, m: int, n: int) -> bool:
    """True when every m-row block of every column has at most n non-zeros."""
    w = np.asarray(dense_w)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {w.shape}")
    for start in range(0, w.shape[0], m):
        chunk = w[start : start + m]
        if np.any(np.count_nonzero(chunk, axis=0) > n):
            return False
    return True


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
