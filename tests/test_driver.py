"""Unit tests for tiled matmul orchestration and cycle accounting."""

import hashlib
import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stasim.array
from stasim.arith import wrap_signed
from stasim.array import ArrayConfig, FaultSite, RegClass, TensorArray
from stasim.cli import main, parse_fault_spec
from stasim.driver import (
    CycleStats,
    Layer,
    Workload,
    overhead_report,
    synthetic_workload,
    tiled_matmul,
)
from stasim.selftest import compute_golden, run_session
from stasim.sparsity import densify, pack_tile, write_matrix_csv
from test_stream import configs, random_fault


def pruned_oracle(a, w, config):
    """Dense reference product against the per-block pruned weights."""
    k = w.shape[0]
    pad_rows = -(-k // config.m) * config.m
    w_pad = np.zeros((pad_rows, w.shape[1]), dtype=np.int64)
    w_pad[:k] = w
    pruned = densify(pack_tile(w_pad, config.m, config.n, config.data_width))[:k]
    return wrap_signed(a.astype(np.int64) @ pruned, config.acc_width)


def test_single_tile_layer_matches_oracle():
    rng = np.random.default_rng(307)
    cfg = ArrayConfig()
    a = rng.integers(-(1 << 15), 1 << 15, size=(6, cfg.block_rows), dtype=np.int64)
    w = rng.integers(-(1 << 15), 1 << 15, size=(cfg.block_rows, cfg.cols), dtype=np.int64)
    results, stats, reports = tiled_matmul(Workload([Layer(a, w)]), cfg)
    assert np.array_equal(results[0], pruned_oracle(a, w, cfg))
    assert stats.tiles_executed == 1
    assert len(reports) == 1
    assert not reports[0].detected


def test_multi_tile_layer_with_padding_matches_oracle():
    rng = np.random.default_rng(311)
    cfg = ArrayConfig()
    # 50 is not a multiple of 32 and 21 is not a multiple of 8, so both
    # directions need zero padding
    a = rng.integers(-(1 << 15), 1 << 15, size=(9, 50), dtype=np.int64)
    w = rng.integers(-(1 << 15), 1 << 15, size=(50, 21), dtype=np.int64)
    results, stats, _ = tiled_matmul(Workload([Layer(a, w)]), cfg)
    assert results[0].shape == (9, 21)
    assert np.array_equal(results[0], pruned_oracle(a, w, cfg))
    assert stats.tiles_executed == 2 * 3


def test_multiple_layers_and_report_ids():
    rng = np.random.default_rng(313)
    cfg = ArrayConfig(rows=2, cols=4)
    wl = synthetic_workload(rng, [(3, 8, 4), (5, 16, 9)], magnitude=300)
    results, stats, reports = tiled_matmul(wl, cfg)
    for layer, result in zip(wl.layers, results):
        assert np.array_equal(result, pruned_oracle(layer.a, layer.w, cfg))
    assert stats.tiles_executed == 1 + 2 * 3
    assert [r.tile_id for r in reports][:2] == ["layer0/k0/c0", "layer1/k0/c0"]


def test_testing_flag_does_not_change_results():
    rng = np.random.default_rng(317)
    cfg = ArrayConfig()
    wl = synthetic_workload(rng, [(8, 40, 12)])
    on, stats_on, reports_on = tiled_matmul(wl, cfg, testing=True)
    off, stats_off, reports_off = tiled_matmul(wl, cfg, testing=False)
    assert np.array_equal(on[0], off[0])
    assert reports_off == []
    assert all(not r.detected for r in reports_on)
    assert stats_on.test_cycles == 4 * stats_on.tiles_executed
    assert stats_off.test_cycles == 0
    assert stats_on.load_cycles == stats_off.load_cycles
    assert stats_on.compute_cycles == stats_off.compute_cycles


def test_cycle_accounting_breakdown():
    rng = np.random.default_rng(331)
    cfg = ArrayConfig()
    x_rows = 20
    wl = synthetic_workload(rng, [(x_rows, 64, 16)], magnitude=50)
    _, stats, _ = tiled_matmul(wl, cfg)
    tiles = 2 * 2
    assert stats.tiles_executed == tiles
    assert stats.load_cycles == cfg.rows * tiles
    assert stats.compute_cycles == (x_rows + cfg.rows + cfg.cols - 1) * tiles
    assert stats.test_cycles == 4 * tiles
    assert stats.total_cycles == (
        stats.load_cycles + stats.compute_cycles + stats.test_cycles
    )


def test_overhead_report_values():
    same = CycleStats(load_cycles=80, compute_cycles=1000, test_cycles=0)
    assert overhead_report(same, same) == 0.0
    on = CycleStats(load_cycles=1000, compute_cycles=3000, test_cycles=40)
    off = CycleStats(load_cycles=1000, compute_cycles=3000, test_cycles=0)
    assert overhead_report(on, off) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        overhead_report(on, CycleStats())


def test_overhead_shrinks_with_rows_per_tile():
    rng = np.random.default_rng(337)
    cfg = ArrayConfig()
    ratios = []
    for x_rows in (40, 80, 160, 320):
        wl = synthetic_workload(rng, [(x_rows, 32, 8)], magnitude=20)
        _, on, _ = tiled_matmul(wl, cfg, testing=True)
        _, off, _ = tiled_matmul(wl, cfg, testing=False)
        ratios.append(overhead_report(on, off))
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[0] > ratios[-1]


def test_column_padding_region_is_inert():
    rng = np.random.default_rng(347)
    cfg = ArrayConfig()
    a = rng.integers(-500, 501, size=(4, 32), dtype=np.int64)
    w = rng.integers(-500, 501, size=(32, 5), dtype=np.int64)
    w_padded = np.zeros((32, cfg.cols), dtype=np.int64)
    w_padded[:, :5] = w
    narrow, _, _ = tiled_matmul(Workload([Layer(a, w)]), cfg)
    wide, _, _ = tiled_matmul(Workload([Layer(a, w_padded)]), cfg)
    assert np.array_equal(narrow[0], wide[0][:, :5])
    assert not wide[0][:, 5:].any()


def test_injected_fault_is_reported_but_run_completes():
    rng = np.random.default_rng(349)
    cfg = ArrayConfig()
    wl = synthetic_workload(rng, [(4, 64, 16)])
    fault = FaultSite(RegClass.EDGE_ACCUMULATOR, 0, 3, 0, 20, 1)
    results, stats, reports = tiled_matmul(wl, cfg, faults=(fault,))
    assert stats.tiles_executed == 4
    assert len(results) == 1
    assert all(r.detected for r in reports)


def test_shape_and_range_validation():
    cfg = ArrayConfig()
    bad_chain = Workload([Layer(np.ones((2, 8), dtype=np.int64), np.ones((9, 4), dtype=np.int64))])
    with pytest.raises(ValueError):
        tiled_matmul(bad_chain, cfg)
    too_wide = Workload(
        [Layer(np.full((2, 8), 1 << 20, dtype=np.int64), np.ones((8, 4), dtype=np.int64))]
    )
    with pytest.raises(ValueError, match=r"layer 0 activation row 0 column 0: value 1048576"):
        tiled_matmul(too_wide, cfg)


def test_non_integer_inputs_rejected():
    cfg = ArrayConfig(rows=1, cols=1)
    a, w = [[2, 0, 0, 0]], [[1], [0], [0], [0]]
    with pytest.raises(ValueError, match=r"weight row 0 column 0: value 1.9 is not an integer"):
        tiled_matmul(Workload([Layer(a, [[1.9], [0], [0], [0]])]), cfg)
    with pytest.raises(ValueError, match=r"activation row 0 column 3: value 0.5 is not an int"):
        tiled_matmul(Workload([Layer([[2, 0, 0, 0.5]], w)]), cfg)
    results, _, _ = tiled_matmul(Workload([Layer(np.array(a, dtype=float), w)]), cfg)
    assert results[0].tolist() == [[2]]


def test_one_active_slot_mode_keeps_the_largest_weight():
    """Under 1:4 the one active slot holds each block's largest magnitude."""
    cfg = ArrayConfig(rows=1, cols=1, mode="1:4")
    layer = Layer(np.array([[1, 1, 1, 1]]), np.array([[1], [0], [0], [9]]))
    results, _, reports = tiled_matmul(Workload([layer]), cfg)
    assert results[0].tolist() == [[9]]
    assert not reports[0].detected


def dense_pruned_product(a, w, config):
    """Numpy oracle: every m-row block of each column keeps its
    ``active_slots`` largest magnitudes (ties to the lower position), then an
    exact product wrapped to ``acc_width``."""
    m, keep = config.m, config.active_slots
    k, c = w.shape
    blocks = np.zeros((-(-k // m), m, c), dtype=np.int64)
    blocks.reshape(-1, c)[:k] = w
    order = np.argsort(-np.abs(blocks), axis=1, kind="stable")
    kept = np.zeros(blocks.shape, dtype=bool)
    np.put_along_axis(kept, order[:, :keep], True, axis=1)
    pruned = np.where(kept, blocks, 0).reshape(-1, c)[:k]
    exact = a.astype(object) @ pruned.astype(object)
    return np.array(wrap_signed(exact, config.acc_width), dtype=np.int64)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    x_rows=st.integers(1, 4),
    k_tiles=st.integers(0, 1),
    k_rest=st.integers(1, 42),
    c_tiles=st.integers(0, 1),
    c_rest=st.integers(1, 6),
    testing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiled_matmul_matches_dense_pruned_oracle(
    cfg, x_rows, k_tiles, k_rest, c_tiles, c_rest, testing, seed
):
    """Grids 1..6, m 1..7, k:m modes and widths up to 30/62, on K and C
    that mostly leave a partial tile, so both directions are zero-padded."""
    rng = np.random.default_rng(seed)
    k = k_tiles * cfg.block_rows + min(k_rest, cfg.block_rows)
    c = c_tiles * cfg.cols + min(c_rest, cfg.cols)
    half = 1 << (cfg.data_width - 1)
    a = rng.integers(-half, half, size=(x_rows, k), dtype=np.int64)
    w = rng.integers(-half, half, size=(k, c), dtype=np.int64)
    # a few zeros and magnitude ties, so pruning meets both
    w[rng.random(w.shape) < 0.3] = 0
    w[rng.random(w.shape) < 0.2] = half - 1
    results, stats, reports = tiled_matmul(Workload([Layer(a, w)]), cfg, testing=testing)
    assert np.array_equal(results[0], dense_pruned_product(a, w, cfg))
    assert stats.tiles_executed == -(-k // cfg.block_rows) * -(-c // cfg.cols)
    assert len(reports) == (stats.tiles_executed if testing else 0)


def test_synthetic_workload_shapes_and_bounds():
    rng = np.random.default_rng(353)
    wl = synthetic_workload(rng, [(3, 5, 7), (11, 13, 2)], magnitude=9)
    assert [layer.a.shape for layer in wl.layers] == [(3, 5), (11, 13)]
    assert [layer.w.shape for layer in wl.layers] == [(5, 7), (13, 2)]
    for layer in wl.layers:
        assert abs(layer.a).max() <= 9
        assert abs(layer.w).max() <= 9
    full = synthetic_workload(rng, [(64, 64, 64)])
    assert abs(full.layers[0].a).max() > 9  # defaults use the full data width


def per_tile_matmul(workload, config, testing=True, faults=()):
    """Reference driver: one tile at a time through ``load_weights``,
    ``run_session`` and ``run_compute``, the loop stacked layers replace."""
    array = TensorArray(config)
    for f in faults:
        array.inject(f)
    stats = CycleStats()
    reports, results = [], []
    br, cols = config.block_rows, config.cols
    for li, layer in enumerate(workload.layers):
        a, w = np.asarray(layer.a, dtype=np.int64), np.asarray(layer.w, dtype=np.int64)
        x_rows, k_depth = a.shape
        c_total = w.shape[1]
        k_tiles, c_tiles = -(-k_depth // br), -(-c_total // cols)
        a_pad = np.zeros((x_rows, k_tiles * br), dtype=np.int64)
        a_pad[:, :k_depth] = a
        w_pad = np.zeros((k_tiles * br, c_tiles * cols), dtype=np.int64)
        w_pad[:k_depth, :c_total] = w
        acc = np.zeros((x_rows, c_tiles * cols), dtype=np.int64)
        for ki in range(k_tiles):
            for ci in range(c_tiles):
                tile = config.pack(w_pad[ki * br : (ki + 1) * br, ci * cols : (ci + 1) * cols])
                array.load_weights(tile)
                stats.load_cycles += config.rows
                if testing:
                    golden = compute_golden(tile, config)
                    reports.append(run_session(array, golden, tile_id=f"layer{li}/k{ki}/c{ci}"))
                    stats.test_cycles += 4
                out, cycles = array.run_compute(a_pad[:, ki * br : (ki + 1) * br])
                stats.compute_cycles += cycles
                acc[:, ci * cols : (ci + 1) * cols] += out
                stats.tiles_executed += 1
        results.append(wrap_signed(acc, config.acc_width)[:, :c_total])
    return results, stats, reports


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    shapes=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3
    ),
    testing=st.booleans(),
    fault_classes=st.lists(st.sampled_from(list(RegClass)), max_size=2),
    tiles_per_pass=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_layers_match_per_tile_driver(
    cfg, shapes, testing, fault_classes, tiles_per_pass, seed
):
    """Results, cycle accounting and every report's JSON match the per-tile
    loop, with the budget cut so that layers split into chunks of a few
    tiles, or of one."""
    rng = np.random.default_rng(seed)
    half = 1 << (cfg.data_width - 1)
    layers = []
    for x_rows, k_blocks, c_cols in shapes:
        # Up to three tiles each way, mostly with a partial tile at the edge.
        k = int(rng.integers(0, k_blocks * cfg.block_rows + 1))
        c = int(rng.integers(0, c_cols * cfg.cols + 1))
        a = rng.integers(-half, half, size=(x_rows, k), dtype=np.int64)
        layers.append(Layer(a, rng.integers(-half, half, size=(k, c), dtype=np.int64)))
    workload = Workload(layers)
    faults, bits = [], set()
    for cls in fault_classes:
        fault = random_fault(rng, cfg, cls)
        where = (fault.reg_class, fault.row, fault.col, fault.element, fault.bit)
        if where not in bits:
            bits.add(where)
            faults.append(fault)
    # A tile costs a pass its largest temporary (``ArrayConfig.per_pass``);
    # priced at the longest pass, a session and five rows, layers split
    # into chunks of ``tiles_per_pass`` tiles, or of a few more.
    r, c, m = cfg.rows, cfg.cols, cfg.m
    if RegClass.ACTIVATION in fault_classes:
        per_wave = r * c * m
    elif RegClass.OUTPUT in fault_classes:
        per_wave = r * max(c, m)
    else:
        per_wave = max(r * m, c)
    budget = tiles_per_pass * max(r * c * cfg.n * m, (4 * testing + 5) * per_wave)
    with patch.object(stasim.array, "ELEMENT_BUDGET", budget):
        results, stats, reports = tiled_matmul(workload, cfg, testing, tuple(faults))
    want_results, want_stats, want_reports = per_tile_matmul(workload, cfg, testing, faults)
    assert len(results) == len(want_results)
    for got, want in zip(results, want_results):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert stats.to_dict() == want_stats.to_dict()
    assert [r.to_json() for r in reports] == [r.to_json() for r in want_reports]


@pytest.mark.parametrize(
    "shape, testing, passes",
    [
        # 8 tiles of 256-row streams.  A tile costs a pass its west blocks,
        # (4 + 256) x rows x m with testing, so passes carry 3 tiles; 4
        # without.
        ((256, 64, 32), True, 3),
        ((256, 64, 32), False, 2),
        # 128 tiles of 8-row streams: a tile costs its one-hot selections,
        # rows x cols x n x m, so passes carry 64 tiles.
        ((8, 256, 128), True, 2),
    ],
)
def test_passes_are_sized_by_their_own_waves(shape, testing, passes):
    """A chunk's sessions and compute share one pass, of as many tiles as
    its waves allow, and each pass builds the per-element weights once per
    selection: the stored ones, (tiles, rows, cols, k), and with testing the
    test-4 pattern every tile shares, (rows, cols, k).  The counts pin the
    implementation, not a correctness bound."""
    cfg = ArrayConfig()
    workload = synthetic_workload(np.random.default_rng(331), [shape])
    with patch.object(
        TensorArray, "stream_tiles", autospec=True, side_effect=TensorArray.stream_tiles
    ) as stream_tiles, patch.object(
        stasim.array, "_element_weights", side_effect=stasim.array._element_weights
    ) as element_weights:
        results, _, reports = tiled_matmul(workload, cfg, testing)
    assert stream_tiles.call_count == passes
    selections = [call.args[1].ndim for call in element_weights.call_args_list]
    assert selections == ([4, 3] if testing else [4]) * passes
    layer = workload.layers[0]
    assert np.array_equal(results[0], pruned_oracle(layer.a, layer.w, cfg))
    tiles = -(-shape[1] // cfg.block_rows) * -(-shape[2] // cfg.cols)
    assert len(reports) == (tiles if testing else 0)
    assert not any(r.detected for r in reports)


def test_layers_without_tiles():
    """K = 0 or C = 0 leaves no tile to run; X = 0 still loads, tests and
    drains every tile."""
    cfg = ArrayConfig(rows=2, cols=3)
    empty_k = Layer(np.zeros((4, 0), dtype=np.int64), np.zeros((0, 5), dtype=np.int64))
    empty_c = Layer(np.ones((4, 9), dtype=np.int64), np.zeros((9, 0), dtype=np.int64))
    for testing in (True, False):
        results, stats, reports = tiled_matmul(Workload([empty_k, empty_c]), cfg, testing)
        assert [r.shape for r in results] == [(4, 5), (4, 0)]
        assert not results[0].any()
        assert stats.to_dict() == CycleStats().to_dict()
        assert reports == []
    no_rows = Layer(np.zeros((0, 9), dtype=np.int64), np.ones((9, 5), dtype=np.int64))
    results, stats, reports = tiled_matmul(Workload([empty_k, no_rows, empty_c]), cfg)
    assert [r.shape for r in results] == [(4, 5), (0, 5), (4, 0)]
    tiles = 2 * 2
    assert stats.to_dict() == {
        "load_cycles": cfg.rows * tiles,
        "compute_cycles": (0 + cfg.rows + cfg.cols - 1) * tiles,
        "test_cycles": 4 * tiles,
        "total_cycles": (cfg.rows + cfg.rows + cfg.cols - 1 + 4) * tiles,
        "tiles_executed": tiles,
    }
    assert [r.tile_id for r in reports] == [
        "layer1/k0/c0", "layer1/k0/c1", "layer1/k1/c0", "layer1/k1/c1"
    ]
    assert not any(r.detected for r in reports)


def pinned_layer():
    """The 8x256 by 256x128 layer the report bytes are pinned on: 128 tiles."""
    return synthetic_workload(np.random.default_rng(5), [(8, 256, 128)])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_matmul_cli_artifacts_are_pinned(tmp_path, capsys):
    """The result CSV, ``--stats`` and ``--reports`` bytes of a tested matmul."""
    layer = pinned_layer().layers[0]
    a, w, out = tmp_path / "a.csv", tmp_path / "w.csv", tmp_path / "r.csv"
    stats, reports = tmp_path / "s.json", tmp_path / "reports.json"
    write_matrix_csv(a, layer.a)
    write_matrix_csv(w, layer.w)
    argv = ["matmul", str(a), str(w), "-o", str(out), "--stats", str(stats)]
    assert main(argv + ["--reports", str(reports)]) == 0
    assert "128 tiles" in capsys.readouterr().out
    assert [sha256(path.read_bytes()) for path in (out, stats, reports)] == [
        "25dd129374b88d46932aedb51d90eaaf77bc646cb33f05c96a24fdb1612fc7a3",
        "2274b689ed0c80ed4ea356e40562950c00c7be1de6acf7c3b0ec34bb5e8e3a31",
        "9505827c9041adfc010e263ae39963d0b215c39ae40b3ebc429aee576eed8929",
    ]


@pytest.mark.parametrize(
    "fault, detected, reports_sha256",
    [
        # Half the sessions detect.
        (
            "weight:2:3:1:5:0",
            64,
            "5b8d6fa8f4efe64f7df1135b97562e2f6fd24ad1706f91f06c9692bf3b35a648",
        ),
        (
            "weight_index:0:0:0:1:1",
            110,
            "4fb27bafd22438005ebfa138bd083fd341544b52b1df46aa7c445db18c0f9237",
        ),
        # Faulty, but no session sees it: every report is clean.
        (
            "activation:1:2:0:0:1",
            0,
            "461509b79ddbb67ec3ba9371b23ad5dca1de64ed63e2ec7b2d025e8a14c33f04",
        ),
    ],
)
def test_faulty_matmul_reports_are_pinned(fault, detected, reports_sha256):
    """Report JSON of a stack where some sessions detect and some do not."""
    faults = (parse_fault_spec(fault),)
    _, _, reports = tiled_matmul(pinned_layer(), ArrayConfig(), faults=faults)
    assert sum(r.detected for r in reports) == detected
    payload = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
    assert sha256(payload.encode()) == reports_sha256
