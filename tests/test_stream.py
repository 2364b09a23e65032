"""Property test: the wave-by-wave ``stream`` against the cycle-level stepper."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stasim.array import ArrayConfig, FaultSite, RegClass, TensorArray
from stasim.sparsity import SparseWeightTile


def stepped_stream(array, blocks, north_values, test4_mask):
    """Reference schedule: feed the skewed stream one ``step`` per cycle."""
    cfg = array.config
    r, c = cfg.rows, cfg.cols
    blocks = np.asarray(blocks, dtype=np.int64)
    x_rows = blocks.shape[0]
    norths = np.asarray(north_values, dtype=np.int64)
    total = x_rows + r + c - 1
    history = np.empty((total, c), dtype=np.int64)
    row_ids = np.arange(r)
    col_ids = np.arange(c)
    for t in range(total):
        west = np.zeros((r, cfg.m), dtype=np.int64)
        feed = t - row_ids
        live = (feed >= 0) & (feed < x_rows)
        west[live] = blocks[feed[live], row_ids[live]]
        north = np.zeros(c, dtype=np.int64)
        wave = t - col_ids
        live_n = (wave >= 0) & (wave < x_rows)
        north[live_n] = norths[wave[live_n]]
        history[t] = array.step(west, north, test4_mask)
    results = np.empty((x_rows, c), dtype=np.int64)
    for j in range(c):
        results[:, j] = history[r + j : r + j + x_rows, j]
    return results, total


@st.composite
def configs(draw):
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, m))
    active = draw(st.integers(1, n))
    data_width = draw(st.sampled_from([2, 3, 8, 16, 30]))
    acc_width = draw(st.sampled_from(sorted({data_width, 2 * data_width, 32, 62})))
    return ArrayConfig(
        rows=draw(st.integers(1, 6)),
        cols=draw(st.integers(1, 6)),
        m=m,
        n=n,
        data_width=data_width,
        acc_width=acc_width,
        mode=f"{active}:{m}",
    )


def random_tile(rng, cfg):
    lo, hi = -(1 << (cfg.data_width - 1)), 1 << (cfg.data_width - 1)
    shape = (cfg.rows, cfg.cols, cfg.n)
    return SparseWeightTile(
        rng.integers(lo, hi, size=shape),
        rng.integers(0, cfg.m, size=shape),
        m=cfg.m,
        n=cfg.n,
        data_width=cfg.data_width,
    )


def random_fault(rng, cfg, cls):
    spec = cfg.reg_specs[cls]
    row, col, element = (int(rng.integers(0, size)) for size in spec.shape)
    bit = int(rng.integers(0, spec.width))
    return FaultSite(cls, row, col, element, bit, int(rng.integers(0, 2)))


def assert_same_registers(got, want, context=""):
    """Two ``registers()`` read-backs hold the same register files."""
    assert got.keys() == want.keys()
    for cls in want:
        assert np.array_equal(got[cls], want[cls]), (context, cls)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    fault_classes=st.lists(st.sampled_from(list(RegClass)), max_size=3),
    streams=st.lists(
        st.tuples(st.integers(0, 8), st.booleans(), st.sampled_from([False, True, "rows"])),
        min_size=1,
        max_size=2,
    ),
    warmup_steps=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_wave_stream_matches_stepper(cfg, fault_classes, streams, warmup_steps, seed):
    rng = np.random.default_rng(seed)
    d_lo, d_hi = -(1 << (cfg.data_width - 1)), 1 << (cfg.data_width - 1)
    a_lo, a_hi = -(1 << (cfg.acc_width - 1)), 1 << (cfg.acc_width - 1)
    wave, ref = TensorArray(cfg), TensorArray(cfg)
    with pytest.raises(RuntimeError):
        wave.stream(np.zeros((1, cfg.rows, cfg.m), dtype=np.int64))

    bits = set()
    for cls in fault_classes:
        fault = random_fault(rng, cfg, cls)
        where = (fault.reg_class, fault.row, fault.col, fault.element, fault.bit)
        if where not in bits:
            bits.add(where)
            wave.inject(fault)
            ref.inject(fault)
    tile = random_tile(rng, cfg)
    wave.load_weights(tile)
    ref.load_weights(tile)

    # Arbitrary steps leave state no stream would; streams must not depend on it.
    for _ in range(warmup_steps):
        west = rng.integers(d_lo, d_hi, size=(cfg.rows, cfg.m))
        north = rng.integers(a_lo, a_hi, size=cfg.cols)
        wave.step(west, north)
        ref.step(west, north)
    assert_same_registers(wave.registers(), ref.registers())

    for x_rows, with_norths, test4_mask in streams:
        # One bit wider than the registers: both engines wrap their inputs.
        blocks = rng.integers(2 * d_lo, 2 * d_hi, size=(x_rows, cfg.rows, cfg.m))
        norths = (
            rng.integers(2 * a_lo, 2 * a_hi, size=x_rows)
            if with_norths
            else np.zeros(x_rows, dtype=np.int64)
        )
        if test4_mask == "rows":
            # Waves never interact: each row gives what a whole stream under
            # its flag gives.
            test4_mask = rng.integers(0, 2, size=x_rows).astype(bool)
            (off, want_cycles), (on, _) = (
                stepped_stream(copy.deepcopy(ref), blocks, norths, f) for f in (0, 1)
            )
            want = np.where(test4_mask[:, None], on, off)
        else:
            want, want_cycles = stepped_stream(ref, blocks, norths, test4_mask)
        before = wave.registers()
        got, got_cycles = wave.stream(
            blocks, norths if with_norths else None, test4_mask=test4_mask
        )
        assert got.shape == want.shape == (x_rows, cfg.cols)
        assert np.array_equal(got, want)
        assert got_cycles == want_cycles == x_rows + cfg.rows + cfg.cols - 1
        assert_same_registers(wave.registers(), before, "stream")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    fault_classes=st.lists(st.sampled_from(list(RegClass)), max_size=3),
    tiles=st.integers(0, 4),
    x_rows=st.integers(0, 6),
    test4_mask=st.sampled_from([False, True, "rows"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_tiles_match_one_stream_per_tile(
    cfg, fault_classes, tiles, x_rows, test4_mask, seed
):
    """``stream_tiles`` column t is ``stream`` with tile t loaded, through the same faults."""
    rng = np.random.default_rng(seed)
    d_lo, d_hi = -(1 << (cfg.data_width - 1)), 1 << (cfg.data_width - 1)
    a_lo, a_hi = -(1 << (cfg.acc_width - 1)), 1 << (cfg.acc_width - 1)
    stacked, single = TensorArray(cfg), TensorArray(cfg)
    bits = set()
    for cls in fault_classes:
        fault = random_fault(rng, cfg, cls)
        where = (fault.reg_class, fault.row, fault.col, fault.element, fault.bit)
        if where not in bits:
            bits.add(where)
            stacked.inject(fault)
            single.inject(fault)
    stack = [random_tile(rng, cfg) for _ in range(tiles)]
    values, indexes = np.zeros((2, tiles, cfg.rows, cfg.cols, cfg.n), dtype=np.int64)
    for t, tile in enumerate(stack):
        values[t], indexes[t] = tile.values, tile.indexes
    blocks = rng.integers(2 * d_lo, 2 * d_hi, size=(x_rows, tiles, cfg.rows, cfg.m))
    norths = rng.integers(2 * a_lo, 2 * a_hi, size=x_rows)
    if test4_mask == "rows":
        test4_mask = rng.integers(0, 2, size=x_rows).astype(bool)
    before = stacked.registers()
    got = stacked.stream_tiles(values, indexes, blocks, norths, test4_mask)
    assert got.shape == (x_rows, tiles, cfg.cols)
    assert_same_registers(stacked.registers(), before, "stream_tiles")
    for t, tile in enumerate(stack):
        single.load_weights(tile)
        want, _ = single.stream(blocks[:, t], norths, test4_mask)
        assert np.array_equal(got[:, t], want)
    assert not stacked.weights_loaded


def test_stacked_tiles_reject_bad_shapes():
    cfg = ArrayConfig(rows=2, cols=3)
    array = TensorArray(cfg)
    regs = np.zeros((2, 2, 3, cfg.n), dtype=np.int64)
    blocks = np.zeros((5, 2, 2, cfg.m), dtype=np.int64)
    assert array.stream_tiles(regs, regs, blocks).shape == (5, 2, 3)
    assert array.stream_tiles(*[regs.astype(np.uint8)] * 2, blocks).shape == (5, 2, 3)
    # Entries get the tile check of ``SparseWeightTile``, located by tile.
    high, wide = regs.copy(), regs.copy()
    high[1, 0, 2, 1], wide[1, 1, 1, 0] = 9, 1 << 40
    for values, indexes, bad in [
        (regs, high, r"tile 1 block \(0, 2\) slot 1: index 9 not in 0\.\.3"),
        (regs, regs - 1, r"tile 0 block \(0, 0\) slot 0: index -1 not in 0\.\.3"),
        (wide, regs, r"tile 1 block \(1, 1\) slot 0: value 1099511627776 not in -32768\.\."),
        (regs[0], regs[0], r"tile values must have shape \(tiles, 2, 3, 2\), got \(2, 3, 2\)"),
        (regs, regs[:1], r"2 tile values for 1 tile indexes"),
        (regs, regs.astype(float), r"tile indexes must be integers"),
        (regs[:1], regs[:1], r"blocks must have shape \(X, 1, 2, 4\), got \(5, 2, 2, 4\)"),
    ]:
        with pytest.raises(ValueError, match=bad):
            array.stream_tiles(values, indexes, blocks)

