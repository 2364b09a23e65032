"""Unit tests for the four-vector self-test session and fault localization."""

import json
import re

import numpy as np
import pytest

from stasim.arith import Word, bit_not, is_bitwise_complement, wrap_signed
from stasim.array import ArrayConfig, FaultLanes, FaultSite, RegClass, TensorArray
from stasim.selftest import (
    EXPECTED_COMPARED,
    GoldenReference,
    VerdictKind,
    classify,
    compute_golden,
    lane_session,
    locate_activation,
    run_session,
    session_vectors,
    session_verdicts,
    stacked_sessions,
)
from stasim.sparsity import SparseWeightTile, densify, pack_tile
from test_stream import assert_same_registers, stepped_stream


def random_tile(rng, config, magnitude=None):
    hi = magnitude if magnitude is not None else 1 << (config.data_width - 1)
    dense = rng.integers(-hi, hi, size=config.tile_shape, dtype=np.int64)
    return pack_tile(dense, config.m, config.n, config.data_width)


def fresh_session(config, tile, faults=()):
    array = TensorArray(config)
    for f in faults:
        array.inject(f)
    array.load_weights(tile)
    return run_session(array, compute_golden(tile, config))


# -- vectors and goldens -------------------------------------------------------


def test_session_vectors_m4():
    v = session_vectors(4)
    assert v[0].tolist() == [1, 1, 1, 1]
    assert v[1].tolist() == [-1, -1, -1, -1]
    assert v[2].tolist() == [1, 2, 3, 4]
    assert v[3].tolist() == [1, 2, 3, 4]


def test_golden_all_zero_tile():
    cfg = ArrayConfig(rows=2, cols=3)
    tile = pack_tile(np.zeros((8, 3), dtype=np.int64), 4, 2)
    golden = compute_golden(tile, cfg)
    assert not golden.per_test.any()
    assert golden.cols == 3
    assert golden.config == cfg


def test_golden_column_sums():
    # one column holding weights 3, -2, 5, 1 spread over two TPEs
    cfg = ArrayConfig(rows=2, cols=1)
    dense = np.array([[3], [-2], [0], [0], [5], [0], [0], [1]])
    golden = compute_golden(pack_tile(dense, 4, 2), cfg)
    assert golden.per_test[0, 0] == -7
    assert golden.per_test[1, 0] == 7


def test_golden_position_weighted_sum():
    cfg = ArrayConfig(rows=1, cols=1)
    tile = SparseWeightTile([[[-2, 3]]], [[[0, 2]]], m=4, n=2, data_width=16)
    golden = compute_golden(tile, cfg)
    # ramp vector value at position p is p+1: -((0+1)*(-2) + (2+1)*3)
    assert golden.per_test[2, 0] == -7


def test_golden_forced_selection_row():
    rng = np.random.default_rng(211)
    cfg = ArrayConfig()
    tile = random_tile(rng, cfg, magnitude=99)
    golden = compute_golden(tile, cfg)
    sums = tile.values.sum(axis=(0, 2))
    for j in range(cfg.cols):
        assert golden.per_test[3, j] == wrap_signed(
            -((j % 4) + 1) * int(sums[j]), cfg.acc_width
        )


def test_golden_excludes_gated_slot():
    cfg = ArrayConfig(rows=1, cols=1, mode="1:4")
    tile = SparseWeightTile([[[5, 9]]], [[[1, 3]]], m=4, n=2, data_width=16)
    golden = compute_golden(tile, cfg)
    assert golden.per_test[0, 0] == -5
    assert golden.per_test[1, 0] == 5


def test_golden_shape_mismatch_rejected():
    cfg = ArrayConfig(rows=2, cols=2)
    with pytest.raises(ValueError):
        compute_golden(pack_tile(np.ones((8, 3), dtype=np.int64), 4, 2), cfg)
    with pytest.raises(ValueError):
        compute_golden(pack_tile(np.ones((8, 2), dtype=np.int64), 4, 1), cfg)
    with pytest.raises(ValueError, match="data width 12 does not match array 16"):
        compute_golden(pack_tile(np.ones((8, 2), dtype=np.int64), 4, 2, 12), cfg)


# -- fault-free sessions ---------------------------------------------------------


def test_fault_free_session_expected_columns():
    rng = np.random.default_rng(223)
    cfg = ArrayConfig()
    for _ in range(5):
        tile = random_tile(rng, cfg)
        report = fresh_session(cfg, tile)
        assert not report.detected
        for t in range(4):
            assert report.compared[t] == (EXPECTED_COMPARED[t],) * cfg.cols
        assert all(v.kind is VerdictKind.OK for v in report.verdicts)


def test_fault_free_raw_pair_is_complementary():
    rng = np.random.default_rng(227)
    cfg = ArrayConfig(rows=4, cols=6)
    tile = random_tile(rng, cfg)
    report = fresh_session(cfg, tile)
    for j in range(cfg.cols):
        a = Word.from_signed(report.raw[0][j], cfg.acc_width)
        b = Word.from_signed(report.raw[1][j], cfg.acc_width)
        assert is_bitwise_complement(a, b)


def test_partial_sums_complementary_at_every_hop():
    """Stream the first two vectors on twin arrays and compare snapshots.

    The second vector's partial sum must be the bitwise complement of the
    first vector's at every TPE the wave has reached, every cycle.
    """
    rng = np.random.default_rng(229)
    cfg = ArrayConfig(rows=4, cols=4)
    tile = random_tile(rng, cfg, magnitude=500)
    vecs = session_vectors(cfg.m)

    a1 = TensorArray(cfg)
    a2 = TensorArray(cfg)
    a1.load_weights(tile)
    a2.load_weights(tile)
    block1 = np.tile(vecs[0], (cfg.rows, 1))
    block2 = np.tile(vecs[1], (cfg.rows, 1))
    for t in range(cfg.rows + cfg.cols):
        # the -1 partial-sum seed rides with the wave: column c's north
        # port sees it exactly when the vector reaches that column
        seed2 = [-1 if c == t else 0 for c in range(cfg.cols)]
        a1.step(block1 if t == 0 else None, None)
        a2.step(block2 if t == 0 else None, seed2)
        out1 = a1.registers()[RegClass.OUTPUT][..., 0]
        out2 = a2.registers()[RegClass.OUTPUT][..., 0]
        for r in range(cfg.rows):
            for c in range(cfg.cols):
                if r + c == t:  # the wave's current anti-diagonal
                    w1 = Word.from_signed(int(out1[r, c]), cfg.acc_width)
                    w2 = Word.from_signed(int(out2[r, c]), cfg.acc_width)
                    assert is_bitwise_complement(w1, w2)


def test_session_is_non_destructive():
    rng = np.random.default_rng(233)
    cfg = ArrayConfig()
    tile = random_tile(rng, cfg)
    a = rng.integers(-(1 << 15), 1 << 15, size=(5, cfg.block_rows), dtype=np.int64)

    plain = TensorArray(cfg)
    plain.load_weights(tile)
    want, _ = plain.run_compute(a)

    tested = TensorArray(cfg)
    tested.load_weights(tile)
    run_session(tested, compute_golden(tile, cfg))
    got, _ = tested.run_compute(a)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "cfg, fault",
    [
        (ArrayConfig(), None),
        (ArrayConfig(), FaultSite(RegClass.ACTIVATION, 2, 3, 1, 0, 1)),
        (ArrayConfig(), FaultSite(RegClass.WEIGHT_INDEX, 4, 1, 0, 1, 1)),
        (ArrayConfig(rows=3, cols=5, m=3, n=2), FaultSite(RegClass.ACTIVATION, 0, 1, 2, 4, 1)),
        (ArrayConfig(rows=3, cols=5, m=3, n=2), FaultSite(RegClass.OUTPUT, 1, 4, 0, 2, 1)),
    ],
    ids=["clean", "activation", "index", "3x5-activation", "3x5-output"],
)
def test_session_leaves_the_two_pass_state(cfg, fault):
    """A session's raw sums are the stepper's over two passes, and the
    session leaves the registers as it found them.

    The reference steps tests 1-3 as one pass, then test 4 under the
    selection override as a second.
    """
    tile = random_tile(np.random.default_rng(199), cfg)
    array, ref = TensorArray(cfg), TensorArray(cfg)
    for each in (array, ref):
        if fault is not None:
            each.inject(fault)
        each.load_weights(tile)
    before = array.registers()
    report = run_session(array, compute_golden(tile, cfg))
    assert_same_registers(array.registers(), before, "run_session")

    blocks = np.stack([np.tile(v, (cfg.rows, 1)) for v in session_vectors(cfg.m)])
    tests_1_3, _ = stepped_stream(ref, blocks[:3], EXPECTED_COMPARED[:3], False)
    test_4, _ = stepped_stream(ref, blocks[3:], EXPECTED_COMPARED[3:], True)
    assert report.raw == tuple(map(tuple, np.vstack([tests_1_3, test_4]).tolist()))


def test_passes_write_no_register():
    """Every pass of the wave engine leaves the registers that steps latched."""
    rng = np.random.default_rng(239)
    cfg = ArrayConfig(rows=3, cols=5, m=3, n=2)
    tile = random_tile(rng, cfg)
    golden = compute_golden(tile, cfg)
    lane_faults = [
        FaultSite(RegClass.OUTPUT, 1, 4, 0, 2, 1),
        FaultSite(RegClass.ACTIVATION, 0, 1, 2, 4, 0),
    ]
    lanes = FaultLanes(cfg, lane_faults)
    array = TensorArray(cfg)
    array.inject(FaultSite(RegClass.ACTIVATION, 2, 3, 1, 0, 1))
    array.load_weights(tile)
    for _ in range(cfg.cols):
        west = rng.integers(-99, 100, size=(cfg.rows, cfg.m))
        array.step(west, rng.integers(-99, 100, size=cfg.cols))
    before = array.registers()
    assert before[RegClass.ACTIVATION].any() and before[RegClass.OUTPUT].any()
    blocks = rng.integers(-99, 100, size=(6, cfg.rows, cfg.m))
    stack = tile.values[None], tile.indexes[None]
    passes = {
        "stream": lambda: array.stream(blocks, test4_mask=True),
        "run_compute": lambda: array.run_compute(blocks.reshape(6, cfg.block_rows)),
        "run_session": lambda: run_session(array, golden),
        "stream_tiles": lambda: array.stream_tiles(*stack, blocks[:, None]),
        "stream_lanes": lambda: array.stream_lanes(lanes, blocks),
        "stacked_sessions": lambda: stacked_sessions(array, *stack, ["t0"]),
        "lane_session": lambda: lane_session(array, golden, lanes),
    }
    for name, run in passes.items():
        run()
        assert_same_registers(array.registers(), before, name)


def test_session_preconditions():
    cfg = ArrayConfig(rows=2, cols=2)
    tile = pack_tile(np.ones((8, 2), dtype=np.int64), 4, 2)
    array = TensorArray(cfg)
    with pytest.raises(RuntimeError):
        run_session(array, compute_golden(tile, cfg))
    array.load_weights(tile)
    other = GoldenReference(np.zeros((4, 3), dtype=np.int64), ArrayConfig(rows=2, cols=3))
    with pytest.raises(ValueError):
        run_session(array, other)


def test_golden_reference_checks_its_values():
    cfg = ArrayConfig(rows=1, cols=2)
    with pytest.raises(ValueError, match="golden values must be integers, got dtype float64"):
        GoldenReference(np.zeros((4, 3)), cfg)
    for shape in [(4, 3), (3, 2), (2,), (4, 1, 1, 2)]:
        with pytest.raises(ValueError, match=re.escape(f"(4, 2) or (4, tiles, 2), got {shape}")):
            GoldenReference(np.zeros(shape, dtype=np.int64), cfg)
    golden = GoldenReference([[1, -2]] * 4, cfg)
    assert golden.per_test.dtype == np.int64
    assert golden.cols == 2
    assert GoldenReference(np.zeros((4, 5, 2), dtype=np.int32), cfg).cols == 2


def test_golden_references_compare_by_identity():
    cfg = ArrayConfig(rows=1, cols=2)
    tile = cfg.pack(np.ones((4, 2), dtype=np.int64))
    first, second = compute_golden(tile, cfg), compute_golden(tile, cfg)
    assert first == first
    assert first != second
    assert np.array_equal(first.per_test, second.per_test)


def test_sessions_need_one_tiles_golden():
    cfg = ArrayConfig(rows=1, cols=2)
    array = TensorArray(cfg)
    array.load_weights(cfg.pack(np.ones((4, 2), dtype=np.int64)))
    stacked = GoldenReference(np.zeros((4, 1, 2), dtype=np.int64), cfg)
    lanes = FaultLanes(cfg, [FaultSite(RegClass.WEIGHT, 0, 0, 0, 0, 1)])
    for session in (run_session, lambda *args: lane_session(*args, lanes)):
        with pytest.raises(ValueError, match=r"golden reference, got shape \(4, 1, 2\)"):
            session(array, stacked)


@pytest.mark.parametrize("field, value", [("mode", "1:4"), ("rows", 4), ("acc_width", 17)])
def test_golden_for_another_config_rejected(field, value):
    # A golden only cancels the products of the array it was computed for;
    # on any other it would flag a healthy array.
    rng = np.random.default_rng(5)
    cfg, golden_cfg = ArrayConfig(), ArrayConfig(**{field: value})
    golden_tile = golden_cfg.pack(rng.integers(-9, 10, golden_cfg.tile_shape))
    golden = compute_golden(golden_tile, golden_cfg)
    array = TensorArray(cfg)
    array.load_weights(cfg.pack(rng.integers(-9, 10, cfg.tile_shape)))
    mismatch = f"computed for another array: {field} {value!r}, not {getattr(cfg, field)!r}$"
    with pytest.raises(ValueError, match=mismatch):
        run_session(array, golden)
    with pytest.raises(ValueError, match=mismatch):
        lane_session(array, golden, FaultLanes(cfg, ()))


# -- fault signatures --------------------------------------------------------------


def test_weight_fault_signature_and_verdict():
    rng = np.random.default_rng(239)
    cfg = ArrayConfig()
    tile = random_tile(rng, cfg)
    row, col, slot, bit = 3, 5, 1, 7
    stored = tile.blocks[row][col].values[slot]
    stuck = 1 - ((stored >> bit) & 1)  # guarantee a value change
    fault = FaultSite(RegClass.WEIGHT, row, col, slot, bit, stuck)
    report = fresh_session(cfg, tile, [fault])

    forced = (stored | (1 << bit)) if stuck else (stored & ~(1 << bit))
    delta = wrap_signed(forced, 16) - stored
    assert report.detected
    assert report.compared[0][col] == delta
    assert report.compared[1][col] == bit_not(
        Word.from_signed(delta, cfg.acc_width)
    ).signed
    assert report.verdicts[col].kind is VerdictKind.WEIGHT_REGISTER
    # the fault never leaks into other columns
    for j in range(cfg.cols):
        if j != col:
            assert report.verdicts[j].kind is VerdictKind.OK


def test_no_change_weight_fault_stays_silent():
    rng = np.random.default_rng(241)
    cfg = ArrayConfig()
    tile = random_tile(rng, cfg)
    stored = tile.blocks[2][2].values[0]
    stuck = (stored >> 4) & 1  # force the bit to its existing value
    report = fresh_session(
        cfg, tile, [FaultSite(RegClass.WEIGHT, 2, 2, 0, 4, stuck)]
    )
    assert not report.detected


def test_output_fault_offsets_exactly_one_raw():
    rng = np.random.default_rng(251)
    cfg = ArrayConfig()
    tile = random_tile(rng, cfg)
    clean = fresh_session(cfg, tile)
    col, bit = 6, 11
    report = fresh_session(
        cfg, tile, [FaultSite(RegClass.OUTPUT, 2, col, 0, bit, 1)]
    )
    offsets = [
        report.raw[t][col] - clean.raw[t][col] for t in range(2)
    ]
    assert sorted(map(abs, offsets)) == [0, 1 << bit]
    assert report.detected
    assert report.verdicts[col].kind is VerdictKind.OUTPUT_REGISTER


def test_edge_fault_verdict():
    rng = np.random.default_rng(257)
    cfg = ArrayConfig()
    tile = random_tile(rng, cfg)
    col = 4
    report = fresh_session(
        cfg, tile, [FaultSite(RegClass.EDGE_ACCUMULATOR, 0, col, 0, 9, 1)]
    )
    assert report.detected
    assert report.verdicts[col].kind is VerdictKind.COMPARISON_ADDER
    # raw outputs never pass through the edge accumulator
    clean = fresh_session(cfg, tile)
    assert report.raw == clean.raw


def test_index_fault_flags_only_ramp_test():
    rng = np.random.default_rng(263)
    cfg = ArrayConfig()
    # find a tile position where flipping index bit 0 changes the selection
    # of a non-zero weight
    tile = random_tile(rng, cfg)
    row, col, slot = next(
        (r, c, s)
        for r in range(cfg.rows)
        for c in range(cfg.cols)
        for s in range(cfg.n)
        if tile.blocks[r][c].values[s] != 0
        and (tile.blocks[r][c].indexes[s] & 1) == 0
    )
    fault = FaultSite(RegClass.WEIGHT_INDEX, row, col, slot, 0, 1)
    report = fresh_session(cfg, tile, [fault])
    assert report.detected
    assert report.failing_columns(0) == ()
    assert report.failing_columns(1) == ()
    assert report.failing_columns(2) == (col,)
    assert report.failing_columns(3) == ()
    assert report.verdicts[col].kind is VerdictKind.WEIGHT_INDEX_REGISTER

    w = tile.blocks[row][col].values[slot]
    old = tile.blocks[row][col].indexes[slot]
    assert report.compared[2][col] == w * ((old | 1) - old)


def test_activation_fault_window_contains_column():
    # Bit 0 stuck-1 leaves the all-ones and all-minus-ones vectors intact,
    # and a tile whose indexes only ever select elements 0 and 2 keeps the
    # ramp test blind too, so only the forced-selection test can see a fault
    # on element 3.
    cfg = ArrayConfig()
    rng = np.random.default_rng(269)
    dense = np.zeros(cfg.tile_shape, dtype=np.int64)
    dense[0::4, :] = rng.integers(1000, 30000, size=(cfg.rows, cfg.cols))
    dense[2::4, :] = rng.integers(1000, 30000, size=(cfg.rows, cfg.cols))
    tile = pack_tile(dense, 4, 2)
    col, element = 2, 3
    report = fresh_session(
        cfg, tile, [FaultSite(RegClass.ACTIVATION, 5, col, element, 0, 1)]
    )
    assert report.detected
    for t in range(3):
        assert report.failing_columns(t) == ()
    failures = report.failing_columns(3)
    assert failures == (3, 7)
    window_verdicts = [
        v for v in report.verdicts if v.kind is VerdictKind.ACTIVATION_WINDOW
    ]
    assert len(window_verdicts) == 2
    lo, hi = window_verdicts[0].window
    assert hi - lo == cfg.m - 1
    assert lo <= col <= hi


def test_activation_fault_mixed_signature_stays_periodic():
    # A high stuck bit corrupts the constant vectors as well, so some
    # columns get register verdicts; the forced-selection failures still
    # honour the column period and bound the faulty column from above.
    rng = np.random.default_rng(270)
    cfg = ArrayConfig()
    tile = random_tile(rng, cfg)  # full-width weights keep column sums non-zero
    col, element = 2, 3
    report = fresh_session(
        cfg, tile, [FaultSite(RegClass.ACTIVATION, 5, col, element, 13, 1)]
    )
    assert report.detected
    failures = report.failing_columns(3)
    assert failures
    assert all((j - failures[0]) % cfg.m == 0 for j in failures)
    assert all(j % cfg.m == element for j in failures)
    window = locate_activation(failures, cfg.m)
    assert window is not None
    assert window[0] <= col <= window[1]


# -- localization and classification helpers ---------------------------------------


def test_locate_activation_windows():
    assert locate_activation({2, 6}, 4) == (0, 2)
    assert locate_activation({3, 7}, 4) == (0, 3)
    assert locate_activation({2, 5}, 4) is None
    assert locate_activation({5}, 4) == (2, 5)
    assert locate_activation({0}, 4) == (0, 0)
    assert locate_activation({1, 5, 9}, 4) == (0, 1)
    with pytest.raises(ValueError):
        locate_activation(set(), 4)


def test_classify_contradictory_pattern_is_unclassified():
    golden = GoldenReference(np.zeros((4, 1), dtype=np.int64), ArrayConfig(rows=1, cols=1))
    raw = np.array([[0], [0], [0], [0]])
    compared = np.array([[5], [-6], [0], [0]])  # 5 and -6 are complementary
    verdicts = session_verdicts(*classify(raw, compared, golden))
    assert verdicts[0].kind is VerdictKind.UNCLASSIFIED


def test_classify_aperiodic_test4_failures_unclassified():
    golden = GoldenReference(np.zeros((4, 8), dtype=np.int64), ArrayConfig())
    raw = np.zeros((4, 8), dtype=np.int64)
    compared = np.zeros((4, 8), dtype=np.int64)
    compared[1, :] = -1
    compared[3, 2] = 9
    compared[3, 5] = 9  # spacing 3 breaks the period-4 pattern
    verdicts = session_verdicts(*classify(raw, compared, golden))
    assert verdicts[2].kind is VerdictKind.UNCLASSIFIED
    assert verdicts[5].kind is VerdictKind.UNCLASSIFIED


def test_classify_window_pools_every_test4_failure():
    # an activation fault can also corrupt the constant-vector tests at
    # columns whose stored indexes select the element; those columns take
    # Table-style verdicts, but the window must come from all test-4
    # failures so it keeps covering the faulty column
    golden = GoldenReference(np.zeros((4, 8), dtype=np.int64), ArrayConfig())
    raw = np.zeros((4, 8), dtype=np.int64)
    compared = np.zeros((4, 8), dtype=np.int64)
    compared[1, :] = -1
    raw[0, 2] = 7
    raw[1, 2] = -8
    compared[0, 2] = 7
    compared[1, 2] = -8  # complementary raw and compared pairs at column 2
    compared[3, 2] = -3
    compared[3, 6] = -3  # test 4 fails at columns 2 and 6
    verdicts = session_verdicts(*classify(raw, compared, golden))
    assert verdicts[2].kind is VerdictKind.WEIGHT_REGISTER
    assert verdicts[6].kind is VerdictKind.ACTIVATION_WINDOW
    assert verdicts[6].first_col == 2
    assert verdicts[6].window == (0, 2)


# -- reporting ----------------------------------------------------------------------


def test_report_serialization_round_trip():
    rng = np.random.default_rng(271)
    cfg = ArrayConfig(rows=2, cols=4)
    tile = random_tile(rng, cfg)
    array = TensorArray(cfg)
    array.inject(FaultSite(RegClass.ACTIVATION, 1, 1, 2, 12, 1))
    array.load_weights(tile)
    report = run_session(array, compute_golden(tile, cfg), tile_id="t0")
    data = json.loads(report.to_json())
    assert data["tile_id"] == "t0"
    assert data["detected"] == report.detected
    assert data["raw"] == [list(row) for row in report.raw]
    for v, vd in zip(report.verdicts, data["verdicts"]):
        assert vd["verdict"] == v.kind.value
        if v.kind is VerdictKind.ACTIVATION_WINDOW:
            assert vd["window"] == list(v.window)
        else:
            assert "window" not in vd
