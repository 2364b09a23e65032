"""Tiled matrix multiplication on the array, with cycle accounting.

The driver cuts a layer's weight matrix into array-sized tiles (rows*m dense
rows by cols columns, zero-padded at the edges).  Each tile is loaded,
optionally self-tested with one session, then streamed with the activation
rows; the cycle accounting charges exactly that per tile.  The host runs a
layer's tiles as a stack: the layer is packed once, and each chunk of tiles
shares one pass of the wave engine, the stacked tiles standing in for the
loaded registers.  A tile's session rides in front of its compute waves, as
on the array, so a chunk takes one pass of 4 + X waves, and
``ArrayConfig.per_pass`` sizes the chunks for those waves and the injected
fault classes.  The layer's session sums are judged at once, in tile order.
Partial products of the K-direction tiles are accumulated host-side at the
accumulator width; every value-0 pad is mathematically inert, so padded and
unpadded runs agree bit for bit on the real region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from stasim.arith import check_signed_range, wrap_signed
from stasim.array import ArrayConfig, FaultSite, TensorArray
from stasim.selftest import TestReport, session_reports, session_stream


@dataclass
class Layer:
    """One dense matmul: activations ``a`` (X x K) times weights ``w`` (K x C)."""

    a: np.ndarray
    w: np.ndarray
    name: str = ""


@dataclass
class Workload:
    layers: list[Layer] = field(default_factory=list)


@dataclass
class CycleStats:
    """Cycle totals over a run, split by what the array was doing.

    A self-test session occupies exactly four pipeline-initiation cycles per
    tile; its drain overlaps resumed streaming, so four is also its total
    cost here.
    """

    load_cycles: int = 0
    compute_cycles: int = 0
    test_cycles: int = 0
    tiles_executed: int = 0

    @property
    def total_cycles(self) -> int:
        return self.load_cycles + self.compute_cycles + self.test_cycles

    def to_dict(self) -> dict:
        return {
            "load_cycles": self.load_cycles,
            "compute_cycles": self.compute_cycles,
            "test_cycles": self.test_cycles,
            "total_cycles": self.total_cycles,
            "tiles_executed": self.tiles_executed,
        }


def tiled_matmul(
    workload: Workload,
    config: ArrayConfig,
    testing: bool = True,
    faults: tuple[FaultSite, ...] = (),
) -> tuple[list[np.ndarray], CycleStats, list[TestReport]]:
    """Run every layer through one array instance.

    Returns (results, stats, reports): one X x C result per layer, the cycle
    accounting, and one self-test report per executed tile when ``testing``
    is set (empty list otherwise).  Detection does not stop the run; callers
    inspect the reports.
    """
    array = TensorArray(config)
    for f in faults:
        array.inject(f)
    stats = CycleStats()
    reports: list[TestReport] = []
    results: list[np.ndarray] = []
    r, br, cols = config.rows, config.block_rows, config.cols

    for li, layer in enumerate(workload.layers):
        a, w = np.asarray(layer.a), np.asarray(layer.w)
        if a.ndim != 2 or w.ndim != 2 or a.shape[1] != w.shape[0]:
            raise ValueError(
                f"layer {li}: shapes {a.shape} x {w.shape} do not chain"
            )
        check_signed_range(f"layer {li} activation", a, config.data_width)
        check_signed_range(f"layer {li} weight", w, config.data_width)
        a, w = a.astype(np.int64), w.astype(np.int64)
        x_rows, k_depth = a.shape
        c_total = w.shape[1]
        k_tiles = -(-k_depth // br)
        c_tiles = -(-c_total // cols)
        tiles = k_tiles * c_tiles

        acc = np.zeros((x_rows, c_tiles, cols), dtype=np.int64)
        if tiles:
            a_pad = np.zeros((x_rows, k_tiles * br), dtype=np.int64)
            a_pad[:, :k_depth] = a
            w_pad = np.zeros((k_tiles * br, c_tiles * cols), dtype=np.int64)
            w_pad[:k_depth, :c_total] = w
            # Tiles in (ki, ci) order; tile (ki, ci) packs block rows ki*R..
            # and columns ci*C.. of the layer, which is packed once.
            packed = config.pack(w_pad)
            values, indexes = (
                part.reshape(k_tiles, r, c_tiles, cols, config.n)
                .swapaxes(1, 2)
                .reshape(tiles, r, cols, config.n)
                for part in (packed.values, packed.indexes)
            )
            a_blocks = a_pad.reshape(x_rows, k_tiles, r, config.m)

            # A tile's session rides in front of its compute waves: one pass
            # per chunk of as many tiles as the pass's waves allow.
            head = 4 if testing else 0
            step = config.per_pass(head + x_rows, {f.reg_class for f in faults})
            blocks = np.empty((head + x_rows, min(step, tiles), r, config.m), dtype=np.int64)
            norths = np.zeros(head + x_rows, dtype=np.int64)
            flags = np.zeros(head + x_rows, dtype=bool)
            if testing:
                session_blocks, norths[:head], flags[:head] = session_stream(r, config.m)
                blocks[:head] = session_blocks[:, None]
            raw = np.empty((head, tiles, cols), dtype=np.int64)
            for start in range(0, tiles, step):
                chunk = np.s_[start : start + step]
                ki, ci = np.divmod(np.arange(tiles)[chunk], c_tiles)
                blocks[head:, : len(ki)] = a_blocks[:, ki]
                out = array.stream_tiles(
                    values[chunk], indexes[chunk], blocks[:, : len(ki)], norths, flags
                )
                raw[:, chunk] = out[:head]
                np.add.at(acc, (slice(None), ci), out[head:])
            if testing:
                ids = [f"layer{li}/k{k}/c{c}" for k, c in np.ndindex(k_tiles, c_tiles)]
                reports += session_reports(array, values, indexes, raw, ids)
        stats.load_cycles += tiles * r
        stats.test_cycles += tiles * 4 if testing else 0
        stats.compute_cycles += tiles * (x_rows + r + cols - 1)
        stats.tiles_executed += tiles
        flat = acc.reshape(x_rows, c_tiles * cols)
        results.append(wrap_signed(flat, config.acc_width)[:, :c_total])

    return results, stats, reports


def overhead_report(stats_on: CycleStats, stats_off: CycleStats) -> float:
    """Fractional cycle overhead of testing-on versus testing-off."""
    if stats_off.total_cycles == 0:
        raise ValueError("baseline run has zero cycles")
    return (stats_on.total_cycles - stats_off.total_cycles) / stats_off.total_cycles


def synthetic_workload(
    rng: np.random.Generator,
    shapes: list[tuple[int, int, int]],
    magnitude: int | None = None,
    data_width: int = 16,
) -> Workload:
    """Random integer layers with the given (X, K, C) shapes.

    Stands in for real network layers; shape lists can be chosen to mimic
    convolutional stacks lowered to matmuls.  ``magnitude`` bounds |value|,
    defaulting to the full data width.
    """
    if magnitude is None:
        lo, hi = -(1 << (data_width - 1)), 1 << (data_width - 1)
    else:
        lo, hi = -magnitude, magnitude + 1
    layers = []
    for i, (x, k, c) in enumerate(shapes):
        layers.append(
            Layer(
                a=rng.integers(lo, hi, size=(x, k), dtype=np.int64),
                w=rng.integers(lo, hi, size=(k, c), dtype=np.int64),
                name=f"layer{i}",
            )
        )
    return Workload(layers=layers)
