"""Property test: the wave-by-wave ``stream`` against the cycle-level stepper."""

import copy
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stasim.array import ArrayConfig, FaultSite, RegClass, TensorArray
from stasim.selftest import (
    EXPECTED_COMPARED,
    compute_golden,
    run_session,
    session_vectors,
    stacked_sessions,
)
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



#: Edge geometries for the mask-branch diff: a 1x1 grid with m = n = 1, a
#: single column, a single row with a gated slot, and the widest words.
BRANCH_CONFIGS = [
    ArrayConfig(rows=1, cols=1, m=1, n=1, data_width=30, acc_width=62),
    ArrayConfig(rows=3, cols=1, m=4, n=2, data_width=30, acc_width=30),
    ArrayConfig(rows=1, cols=3, m=3, n=2, data_width=16, acc_width=62, mode="1:3"),
    ArrayConfig(rows=2, cols=5, m=4, n=2, data_width=30, acc_width=62),
]

#: The faulted classes that choose the engine's branches: the activation
#: mask runs the column loop, the output mask the row cascade.
MASKED = {
    "none": (),
    "activation": (RegClass.ACTIVATION,),
    "output": (RegClass.OUTPUT,),
    "both": (RegClass.ACTIVATION, RegClass.OUTPUT),
}


def stepped_per_wave(array, tile, blocks, norths, flags):
    """The stepper's sums on a copy of ``array`` with ``tile`` loaded, one flag per wave."""
    ref = copy.deepcopy(array)
    ref.load_weights(tile)
    off, on = (stepped_stream(copy.deepcopy(ref), blocks, norths, f)[0] for f in (False, True))
    return np.where(np.asarray(flags)[:, None], on, off)


@pytest.mark.parametrize("classes", MASKED.values(), ids=MASKED.keys())
@pytest.mark.parametrize("cfg", BRANCH_CONFIGS, ids=lambda c: f"{c.rows}x{c.cols}-{c.mode}")
def test_mask_branches_match_stepper(cfg, classes):
    """Each combination of activation and output masks, through ``stream``,
    ``stream_tiles`` and a session's per-wave flags, against the stepper:
    uniform and alternating flags, one flagged or one unflagged wave, and a
    session's four waves in front of compute waves."""
    rng = np.random.default_rng(cfg.rows * 100 + cfg.cols * 10 + len(classes))
    array = TensorArray(cfg)
    for cls in classes:
        array.inject(random_fault(rng, cfg, cls))
    assert set(array._masks) == set(classes)
    tiles = [random_tile(rng, cfg) for _ in range(2)]
    d_lo, d_hi = -(1 << (cfg.data_width - 1)), 1 << (cfg.data_width - 1)
    a_lo, a_hi = -(1 << (cfg.acc_width - 1)), 1 << (cfg.acc_width - 1)
    x_rows = 5
    blocks = rng.integers(2 * d_lo, 2 * d_hi, size=(x_rows, len(tiles), cfg.rows, cfg.m))
    norths = rng.integers(2 * a_lo, 2 * a_hi, size=x_rows)
    values = np.stack([tile.values for tile in tiles])
    indexes = np.stack([tile.indexes for tile in tiles])
    session = (
        np.stack([np.tile(v, (cfg.rows, 1)) for v in session_vectors(cfg.m)]),
        np.array(EXPECTED_COMPARED, dtype=np.int64),
        np.arange(4) == 3,
    )

    waves = np.arange(x_rows)
    streams = [
        (blocks, norths, flags)
        for flags in (
            np.zeros(x_rows, bool),
            np.ones(x_rows, bool),
            waves % 2 == 1,
            waves == 2,  # one flagged wave among compute waves
            waves != 2,  # one unflagged wave among flagged ones
        )
    ]
    # A session's four waves in front of compute waves, as the driver runs them.
    streams.append((
        np.concatenate([np.broadcast_to(session[0][:, None], (4,) + blocks.shape[1:]), blocks]),
        np.concatenate([session[1], norths]),
        np.concatenate([session[2], np.zeros(x_rows, bool)]),
    ))
    for stream_blocks, stream_norths, flags in streams:
        stacked = array.stream_tiles(values, indexes, stream_blocks, stream_norths, flags)
        for t, tile in enumerate(tiles):
            want = stepped_per_wave(array, tile, stream_blocks[:, t], stream_norths, flags)
            array.load_weights(tile)
            # A uniform flag also goes in as one flag.
            one = flags[0] if flags.all() or not flags.any() else flags
            got, _ = array.stream(stream_blocks[:, t], stream_norths, one)
            assert np.array_equal(got, want), (flags, t)
            assert np.array_equal(stacked[:, t], want), (flags, t)

    # A session: tests 1-3 read the index registers, test 4 the override.
    reports = stacked_sessions(array, values, indexes, ["t0", "t1"])
    for t, tile in enumerate(tiles):
        want = stepped_per_wave(array, tile, *session)
        array.load_weights(tile)
        assert np.array_equal(run_session(array, compute_golden(tile, cfg)).raw, want), t
        assert np.array_equal(reports[t].raw, want), t


def test_override_recomputes_only_its_flagged_waves():
    """The stored selection contracts every wave and the test-4 override only
    the flagged ones: a session's folded matmuls take 4 waves, then 1, and
    with an output mask its per-row matmuls do the same.  This pins the
    work, not the sums, which the stepper diffs above check."""
    cfg = ArrayConfig()
    tile = random_tile(np.random.default_rng(11), cfg)
    golden = compute_golden(tile, cfg)
    for cls, depth in ((RegClass.WEIGHT, cfg.rows * cfg.m), (RegClass.OUTPUT, cfg.m)):
        array = TensorArray(cfg)
        array.inject(FaultSite(cls, 1, 2, 0, 3, 1))
        array.load_weights(tile)
        with patch.object(np, "matmul", wraps=np.matmul) as matmul:
            run_session(array, golden)
        # A contraction meets the per-element weights as (depth, cols).
        waves = [
            call.args[0].shape[0]
            for call in matmul.call_args_list
            if call.args[1].shape[-2:] == (depth, cfg.cols)
        ]
        assert waves == [4, 1], cls
