"""Unit tests for fault enumeration and coverage campaigns."""

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stasim.array
import stasim.campaign as campaign
from stasim.array import CLASS_CODE, ArrayConfig, FaultSite, RegClass, TensorArray, fault_sites
from stasim.campaign import enumerate_faults, random_tiles, run_campaign
from stasim.sparsity import densify, pack_tile
from test_lanes import mixed_faults, tile_of_magnitude
from test_stream import configs

TINY = ArrayConfig(rows=1, cols=2, m=4, n=2, data_width=8, acc_width=16)


def class_counts(faults):
    counts = {cls: 0 for cls in RegClass}
    for f in faults:
        counts[f.reg_class] += 1
    return counts


def zero_tile(config):
    dense = np.zeros(config.tile_shape, dtype=np.int64)
    return pack_tile(dense, config.m, config.n, config.data_width)


@pytest.mark.parametrize(
    "config, per_tpe_bits, edge_bits, total",
    [
        # per TPE: 4*16 activation + 2*16 weight + 2*2 index + 32 output bits
        (ArrayConfig(), 64 + 32 + 4 + 32, 8 * 32, 17408),
        # 5*12 activation + 3*12 weight + 3*3 index + 24 output bits
        (
            ArrayConfig(rows=3, cols=2, m=5, n=3, data_width=12, acc_width=24),
            60 + 36 + 9 + 24,
            2 * 24,
            1644,
        ),
    ],
    ids=["default", "m5n3"],
)
def test_enumeration_count(config, per_tpe_bits, edge_bits, total):
    faults = enumerate_faults(config)
    # every bit in two polarities, in every TPE plus every edge accumulator
    tpes = config.rows * config.cols
    assert len(faults) == tpes * per_tpe_bits * 2 + edge_bits * 2 == total


def test_enumeration_count_single_tpe():
    faults = enumerate_faults(ArrayConfig(rows=1, cols=1))
    assert len(faults) == (64 + 32 + 4 + 32 + 32) * 2
    assert len(faults) == 328


@pytest.mark.parametrize(
    "config",
    [
        ArrayConfig(rows=1, cols=1, m=1, n=1),
        ArrayConfig(rows=2, cols=3, mode="1:4"),
        ArrayConfig(rows=2, cols=2, m=8, n=3),
        ArrayConfig(rows=2, cols=1, data_width=30, acc_width=62),
    ],
    ids=["1x1-m1", "mode-1:4", "m8", "acc62"],
)
def test_universe_table_follows_enumeration_order(config):
    # ``fault_sites(config)`` builds the universe without ``FaultSite``
    # objects and ``enumerate_faults`` with its own loop: row f is fault f.
    universe = enumerate_faults(config)
    table = fault_sites(config)
    assert table.dtype == np.int64
    assert np.array_equal(table, fault_sites(config, universe))
    assert table.tolist() == [
        [CLASS_CODE[f.reg_class], f.row, f.col, f.element, f.bit, f.stuck] for f in universe
    ]


def test_enumeration_is_duplicate_free_and_valid():
    faults = enumerate_faults(TINY)
    assert len(set(faults)) == len(faults)
    for fault in faults:
        fault.validate(TINY)


def test_enumeration_tracks_accumulator_width():
    narrow = class_counts(enumerate_faults(TINY))
    wide = class_counts(
        enumerate_faults(
            ArrayConfig(rows=1, cols=2, m=4, n=2, data_width=8, acc_width=32)
        )
    )
    assert wide[RegClass.OUTPUT] == 2 * narrow[RegClass.OUTPUT]
    assert wide[RegClass.EDGE_ACCUMULATOR] == 2 * narrow[RegClass.EDGE_ACCUMULATOR]
    for cls in (RegClass.ACTIVATION, RegClass.WEIGHT, RegClass.WEIGHT_INDEX):
        assert wide[cls] == narrow[cls]


def test_stuck_zero_weight_faults_on_zero_tile_are_harmless():
    faults = [
        f
        for f in enumerate_faults(TINY)
        if f.reg_class is RegClass.WEIGHT and f.stuck == 0
    ]
    report = run_campaign(
        [zero_tile(TINY)], TINY, faults=faults, check_harmless=True, seed=5
    )
    bucket = report.per_class["weight"]
    assert report.detected == 0
    assert bucket["undetected"] == len(faults)
    assert bucket["harmless_verified"] == len(faults)
    assert bucket["not_harmless"] == 0
    assert report.coverage == 0.0


def test_output_and_edge_faults_always_detected():
    rng = np.random.default_rng(401)
    faults = [
        f
        for f in enumerate_faults(TINY)
        if f.reg_class in (RegClass.OUTPUT, RegClass.EDGE_ACCUMULATOR)
    ]
    report = run_campaign(random_tiles(rng, TINY, 1), TINY, faults=faults)
    assert report.detected == report.total_faults == len(faults)
    for name in ("output", "edge_accumulator"):
        bucket = report.per_class[name]
        assert bucket["detected"] == bucket["total"]
    assert report.classification_checked == len(faults)
    assert report.classification_correct == len(faults)


def test_walks_stop_once_no_fault_is_live():
    """One fault times six tiles fit one call, which detects it: nothing is left to run."""
    cfg = ArrayConfig(rows=2, cols=2)
    tiles = random_tiles(np.random.default_rng(421), cfg, 6)
    fault = FaultSite(RegClass.OUTPUT, 0, 0, 0, 20, 1)
    counted = {
        name: patch.object(TensorArray, name, autospec=True, side_effect=getattr(TensorArray, name))
        for name in ("load_weights", "stream_faults")
    }
    with counted["load_weights"] as loads, counted["stream_faults"] as streams:
        report = run_campaign(tiles, cfg, faults=[fault], check_harmless=True)
    assert report.detected == 1
    assert report.cumulative_curve == [1.0] * 6
    assert (loads.call_count, streams.call_count) == (0, 1)


@pytest.mark.parametrize(
    "budget, calls",
    [
        # 50 (fault, tile) pairs a session call and 40 a harness call: the
        # detection walk takes tiles 0-3 one at a time, then tiles 4 and 5
        # at once, since 12 live faults x 2 tiles fit; the harness walk
        # takes tile 0, then tiles 1-5 for 5 live faults.
        (
            400,
            [(4, [0], 50)] * 6
            + [(4, [0], 36), (4, [1], 50), (4, [1], 40), (4, [2], 33), (4, [3], 24)]
            + [(4, [4, 5], 12), (5, [0], 7), (5, [1, 2, 3, 4, 5], 5)],
        ),
        # 256 and 204 pairs: 33 live faults x 4 tiles fit after tile 1, and
        # the 7 escapes x 6 tiles fit one harness call.
        (
            2048,
            [(4, [0], 256), (4, [0], 80), (4, [1], 90), (4, [2, 3, 4, 5], 33)]
            + [(5, [0, 1, 2, 3, 4, 5], 7)],
        ),
    ],
)
def test_walk_calls_cover_one_tile_until_the_rest_fit_one_call(budget, calls):
    """Each ``stream_faults`` call as (waves, tiles covered, faults), under a patched budget."""
    rng = np.random.default_rng(463)
    tiles = [random_tiles(rng, TINY, 1, magnitude=mag)[0] for mag in (None, 3, 1, 3, 0, 1)]
    stacked = np.stack([np.concatenate([tile.values, tile.indexes], axis=-1) for tile in tiles])
    assert len(np.unique(stacked, axis=0)) == len(tiles)
    seen, stream_faults = [], TensorArray.stream_faults

    def recording(self, values, indexes, sites, blocks, *args):
        part = np.concatenate([values, indexes], axis=-1)
        span = len(part)
        (start,) = [t for t in range(len(tiles)) if np.array_equal(stacked[t : t + span], part)]
        seen.append((len(blocks), list(range(start, start + span)), len(sites)))
        return stream_faults(self, values, indexes, sites, blocks, *args)

    def campaign_run():
        return run_campaign(tiles, TINY, check_harmless=True, seed=1).to_dict()

    with patch.object(campaign, "HARMLESS_ROWS", 5):
        want = campaign_run()
        with patch.object(stasim.array, "ELEMENT_BUDGET", budget), patch.object(
            TensorArray, "stream_faults", recording
        ):
            assert campaign_run() == want
    assert seen == calls


def test_benchmark_shaped_campaign_report_is_pinned():
    # Acceptance criterion 8's tile mix, every 33rd fault of each class,
    # the classification and harmless checks, seed 0: the report's bytes
    # are pinned, so a change to how the walks cut their calls that moves
    # one outcome shows here.
    cfg = ArrayConfig()
    rng = np.random.default_rng(0)
    magnitudes = (None,) * 6 + (4096, 512, 64, 8)
    tiles = [random_tiles(rng, cfg, 1, magnitude=mag)[0] for mag in magnitudes]
    universe = enumerate_faults(cfg)
    faults = [f for cls in RegClass for f in [g for g in universe if g.reg_class is cls][::33]]
    assert len(faults) == 531
    report = run_campaign(tiles, cfg, faults=faults, check_harmless=True, seed=0)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "428ccdb8a10d11541ceda6947ceb5f511c81115d1755664a09e13cc2d38f293f"


def test_campaign_is_deterministic():
    rng = np.random.default_rng(409)
    tiles = random_tiles(rng, TINY, 2, magnitude=100)
    with patch.object(campaign, "HARMLESS_ROWS", 6):
        first = run_campaign(tiles, TINY, check_harmless=True, seed=7)
        second = run_campaign(tiles, TINY, check_harmless=True, seed=7)
    assert first.to_dict() == second.to_dict()


def test_parallel_jobs_match_serial(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a campaign must not start worker processes")

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", no_pool)
    rng = np.random.default_rng(419)
    tiles = random_tiles(rng, TINY, 2, magnitude=100)
    faults = enumerate_faults(TINY)[::4]
    serial = run_campaign(tiles, TINY, faults=faults, jobs=1)
    for jobs in (2, 64):
        parallel = run_campaign(tiles, TINY, faults=faults, jobs=jobs)
        assert serial.to_dict() == parallel.to_dict()


def test_jobs_below_one_rejected():
    tiles = [zero_tile(TINY)]
    faults = enumerate_faults(TINY)[:8]
    for jobs in (0, -5):
        with pytest.raises(ValueError, match=f"^jobs {jobs} must be at least 1$"):
            run_campaign(tiles, TINY, faults=faults, jobs=jobs)
    for jobs in (1, 2, 4, 64):
        assert run_campaign(tiles, TINY, faults=faults, jobs=jobs).total_faults == 8


def test_cumulative_curve_shape_and_totals():
    rng = np.random.default_rng(421)
    tiles = random_tiles(rng, TINY, 3)
    report = run_campaign(tiles, TINY)
    assert report.total_faults == len(enumerate_faults(TINY))
    assert len(report.cumulative_curve) == 3
    curve = report.cumulative_curve
    assert all(a <= b for a, b in zip(curve, curve[1:]))
    assert curve[-1] == pytest.approx(report.coverage)
    assert report.coverage == report.detected / report.total_faults
    for bucket in report.per_class.values():
        assert bucket["total"] == bucket["detected"] + bucket["undetected"]


def test_curve_csv_format(tmp_path):
    rng = np.random.default_rng(431)
    report = run_campaign(
        random_tiles(rng, TINY, 2), TINY, faults=enumerate_faults(TINY)[:40]
    )
    path = tmp_path / "curve.csv"
    report.write_curve_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tile_index,coverage"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:], start=1):
        index, cov = line.split(",")
        assert int(index) == i
        assert cov == f"{report.cumulative_curve[i - 1]:.6f}"


def test_report_json_round_trip():
    rng = np.random.default_rng(433)
    report = run_campaign(
        random_tiles(rng, TINY, 1), TINY, faults=enumerate_faults(TINY)[:20]
    )
    assert json.loads(report.to_json()) == json.loads(
        json.dumps(report.to_dict(), sort_keys=True)
    )
    payload = json.loads(report.to_json())
    assert payload["config"]["rows"] == TINY.rows
    assert payload["classification"]["checked"] <= payload["detected"]


def test_random_tiles_respect_magnitude():
    rng = np.random.default_rng(439)
    for tile in random_tiles(rng, TINY, 4, magnitude=11):
        assert abs(densify(tile)).max() <= 11
    full = random_tiles(rng, TINY, 4)
    assert max(abs(densify(t)).max() for t in full) > 11


@pytest.mark.parametrize("magnitude", [-1, 128, 1 << 40])
def test_random_tiles_reject_magnitude_outside_data_width(magnitude):
    with pytest.raises(ValueError, match=f"magnitude {magnitude} outside 0..127 for 8-bit"):
        random_tiles(np.random.default_rng(0), TINY, 1, magnitude=magnitude)


def test_random_tiles_gate_inactive_slots():
    cfg = ArrayConfig(rows=2, cols=3, mode="1:4")
    for tile in random_tiles(np.random.default_rng(443), cfg, 3, magnitude=50):
        assert tile.n == 2
        assert not tile.values[..., 1].any() and not tile.indexes[..., 1].any()
        assert np.count_nonzero(densify(tile)) == np.count_nonzero(tile.values[..., 0])


def test_campaign_rejects_empty_workload():
    with pytest.raises(ValueError):
        run_campaign([], TINY)


def test_unknown_fault_site_rejected_by_validate():
    bad = FaultSite(RegClass.WEIGHT, TINY.rows, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        bad.validate(TINY)


@pytest.mark.parametrize("reg_class", ["foo", "weight"])
@pytest.mark.parametrize("row", [0, 99])
def test_fault_class_must_be_a_reg_class_member(reg_class, row):
    # A plain string passes neither check, even one equal to a member's value.
    fault = FaultSite(reg_class, row, 0, 0, 3, 1)
    message = f"FaultSite reg_class must be a RegClass member, got '{reg_class}'"
    good = FaultSite(RegClass.WEIGHT, 0, 0, 0, 3, 1)
    checks = (
        lambda: fault.validate(TINY),
        lambda: TensorArray(TINY).inject(fault),
        lambda: run_campaign([zero_tile(TINY)], TINY, faults=[good, fault]),
    )
    for check in checks:
        with pytest.raises(ValueError, match=f"^{message}$"):
            check()


@pytest.mark.parametrize("reg_class", [RegClass.WEIGHT, RegClass.OUTPUT])
@pytest.mark.parametrize("row", [-1, 9])
def test_one_shot_fault_iterables_are_checked_like_lists(reg_class, row):
    # The faults are read once, before either check: a generator or an
    # iterator gets the list's message, not a table or a bare IndexError.
    good = [FaultSite(RegClass.WEIGHT, 0, 1, 1, 3, 0), FaultSite(RegClass.OUTPUT, 0, 0, 0, 5, 1)]
    bad = FaultSite(reg_class, row, 0, 0, 3, 1)
    message = f"^row {row} outside 0..{TINY.rows - 1} for {reg_class.value}$"
    for once in (list, lambda faults: (f for f in faults), iter):
        assert np.array_equal(fault_sites(TINY, once(good)), fault_sites(TINY, good))
        with pytest.raises(ValueError, match=message):
            fault_sites(TINY, once(good + [bad]))
        with pytest.raises(ValueError, match=message):
            run_campaign([zero_tile(TINY)], TINY, faults=once([bad]))


def reference_tally(config, tiles, faults, table, harmless_checked):
    """The report ``run_campaign`` builds from an outcome table, tallied fault by fault."""
    per_class = {
        cls.value: {
            "total": 0,
            "detected": 0,
            "undetected": 0,
            "harmless_verified": 0,
            "not_harmless": 0,
        }
        for cls in RegClass
    }
    by_tile = [0] * tiles
    checked = correct = 0
    for fault, row in zip(faults, table.tolist()):
        detected_tile, cls_ok, harmless = (None if value < 0 else value for value in row)
        bucket = per_class[fault.reg_class.value]
        bucket["total"] += 1
        if detected_tile is not None:
            bucket["detected"] += 1
            by_tile[detected_tile] += 1
            if cls_ok is not None:
                checked += 1
                correct += cls_ok
        else:
            bucket["undetected"] += 1
            if harmless == 1:
                bucket["harmless_verified"] += 1
            elif harmless == 0:
                bucket["not_harmless"] += 1
    detected = sum(by_tile)
    curve, running = [], 0
    for count in by_tile if faults else []:
        running += count
        curve.append(running / len(faults))
    return {
        "config": {
            "rows": config.rows,
            "cols": config.cols,
            "m": config.m,
            "n": config.n,
            "data_width": config.data_width,
            "acc_width": config.acc_width,
            "mode": config.mode,
        },
        "tiles": tiles,
        "total_faults": len(faults),
        "detected": detected,
        "coverage": detected / len(faults) if faults else 0.0,
        "per_class": per_class,
        "cumulative_curve": curve,
        "classification": {"checked": checked, "correct": correct},
        "harmless_checked": harmless_checked,
    }


def assert_tally_matches_per_fault_loop(tiles, config, faults, **kwargs):
    """Run a campaign and re-tally its own outcome table fault by fault."""
    tables, evaluate = [], campaign._evaluate_faults

    def recording(*args):
        tables.append(evaluate(*args))
        return tables[-1]

    with patch.object(campaign, "_evaluate_faults", recording):
        report = run_campaign(tiles, config, faults=faults, **kwargs)
    (table,) = tables
    faults = enumerate_faults(config) if faults is None else faults
    assert table.shape == (len(faults), 3)
    want = reference_tally(
        config, len(tiles), faults, table, kwargs.get("check_harmless", False)
    )
    assert report.to_dict() == want
    return table


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    fault_set=st.sampled_from(["mixed", "duplicates", "empty"]),
    magnitudes=st.lists(st.sampled_from([0, 1, 3, 1 << 30]), min_size=1, max_size=3),
    verify_classification=st.booleans(),
    check_harmless=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tally_matches_per_fault_loop(
    cfg, fault_set, magnitudes, verify_classification, check_harmless, seed
):
    rng = np.random.default_rng(seed)
    faults = mixed_faults(rng, cfg, 10)
    if fault_set == "duplicates":
        faults += [faults[i] for i in rng.integers(0, len(faults), size=6)]
        rng.shuffle(faults)
    elif fault_set == "empty":
        faults = []
    tiles = [tile_of_magnitude(rng, cfg, mag) for mag in magnitudes]
    with patch.object(campaign, "HARMLESS_ROWS", 4):
        assert_tally_matches_per_fault_loop(
            tiles,
            cfg,
            faults,
            verify_classification=verify_classification,
            check_harmless=check_harmless,
            seed=seed,
        )


@pytest.mark.parametrize("verify_classification", [True, False])
@pytest.mark.parametrize("check_harmless", [True, False])
def test_tally_of_whole_universe_matches_per_fault_loop(verify_classification, check_harmless):
    rng = np.random.default_rng(457)
    tiles = [random_tiles(rng, TINY, 1, magnitude=mag)[0] for mag in (None, 3)]
    table = assert_tally_matches_per_fault_loop(
        tiles,
        TINY,
        None,
        verify_classification=verify_classification,
        check_harmless=check_harmless,
        seed=3,
    )
    detected_tile, classification_ok, harmless = table.T
    # The universe leaves escapes of both kinds, and checked verdicts.
    assert (detected_tile == -1).any() and (detected_tile == 1).any()
    assert (classification_ok >= 0).any() == verify_classification
    if check_harmless:
        assert (harmless == 0).any() and (harmless == 1).any()
    else:
        assert (harmless == -1).all()
