"""Unit tests for fault enumeration and coverage campaigns."""

import json
from concurrent.futures import ProcessPoolExecutor
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stasim.campaign as campaign
from stasim.array import ArrayConfig, FaultSite, RegClass
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


def test_campaign_is_deterministic():
    rng = np.random.default_rng(409)
    tiles = random_tiles(rng, TINY, 2, magnitude=100)
    kwargs = dict(check_harmless=True, harmless_inputs=3, harmless_rows=2, seed=7)
    first = run_campaign(tiles, TINY, **kwargs)
    second = run_campaign(tiles, TINY, **kwargs)
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
    assert_tally_matches_per_fault_loop(
        tiles,
        cfg,
        faults,
        verify_classification=verify_classification,
        check_harmless=check_harmless,
        harmless_inputs=2,
        harmless_rows=2,
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
