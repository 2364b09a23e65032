"""Property tests: single faults in closed form against one fault injected at a time.

``TensorArray.stream_faults`` and ``selftest.fault_sessions`` derive every
fault's sums on a stack of tiles from one fault-free pass.  The references
are the loops they replace: inject a single fault, then load each tile and
``stream`` or run one ``run_session`` until a session flags it, classify it
with the scalar classifier copies of ``test_classify``, and check an
undetected fault's harmlessness with ``run_compute``.
"""

import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stasim.array
import stasim.campaign as campaign
from stasim.array import ArrayConfig, FaultSite, RegClass, TensorArray, fault_sites
from stasim.campaign import enumerate_faults, random_tiles, run_campaign
from stasim.selftest import GoldenReference, compute_golden, fault_sessions, run_session
from stasim.sparsity import SparseWeightTile
from test_classify import scalar_classify, scalar_outcome
from test_stream import assert_same_registers, configs


def reference_evaluate(config, tiles, goldens, faults, verify_classification, harness):
    """One fault after another on a fresh fault state: the loop the closed form replaces.

    Returns the outcome table ``campaign._evaluate_faults`` fills, one row
    per fault, with -1 for an unknown outcome.
    """
    array, clean = TensorArray(config), TensorArray(config)
    outcomes = []
    for fault in faults:
        array.clear_faults()
        array.inject(fault)
        detected_tile = classification_ok = harmless = None
        for ti, (tile, golden) in enumerate(zip(tiles, goldens)):
            array.load_weights(tile)
            report = run_session(array, golden, tile_id=f"tile{ti}")
            if report.detected:
                detected_tile = ti
                if verify_classification:
                    verdicts = scalar_classify(report.raw, report.compared, golden)
                    classification_ok = scalar_outcome(fault, report.compared, verdicts)
                break
        if detected_tile is None and harness is not None:
            harmless = True
            for ti, tile in enumerate(tiles):
                rows = harness[:, ti].reshape(len(harness), -1)
                array.load_weights(tile)
                clean.load_weights(tile)
                if not np.array_equal(array.run_compute(rows)[0], clean.run_compute(rows)[0]):
                    harmless = False
                    break
        row = (detected_tile, classification_ok, harmless)
        outcomes.append([-1 if value is None else int(value) for value in row])
    return np.array(outcomes, dtype=np.int64).reshape(-1, 3)


def tile_of_magnitude(rng, cfg, magnitude):
    """Random in-range values up to ``magnitude`` and arbitrary in-range indexes."""
    hi = min(magnitude, (1 << (cfg.data_width - 1)) - 1)
    shape = (cfg.rows, cfg.cols, cfg.n)
    return SparseWeightTile(
        rng.integers(-hi, hi + 1, size=shape),
        rng.integers(0, cfg.m, size=shape),
        m=cfg.m,
        n=cfg.n,
        data_width=cfg.data_width,
    )


def mixed_faults(rng, cfg, count):
    """``count`` faults covering all five classes and stuck sign bits of both polarities."""
    signed = [cls for cls, spec in cfg.reg_specs.items() if spec.signed]
    picks = list(RegClass) + [
        list(RegClass)[int(rng.integers(0, len(RegClass)))] for _ in range(count)
    ]
    faults = []
    for cls in picks[:count]:
        spec = cfg.reg_specs[cls]
        row, col, element = (int(rng.integers(0, size)) for size in spec.shape)
        bit = int(rng.integers(0, spec.width))
        faults.append(FaultSite(cls, row, col, element, bit, int(rng.integers(0, 2))))
    for stuck in (0, 1):
        cls = signed[int(rng.integers(0, len(signed)))]
        spec = cfg.reg_specs[cls]
        row, col, element = (int(rng.integers(0, size)) for size in spec.shape)
        faults.insert(
            int(rng.integers(0, len(faults) + 1)),
            FaultSite(cls, row, col, element, spec.width - 1, stuck),
        )
    return faults


def corner_faults(rng, cfg, tile):
    """(tile, faults) adding the corners the closed form treats apart.

    An index fault that makes an active slot's index point past the block,
    whenever the index width can hold such a value (m not a power of two
    above 1): the tile stores m-1 there and the fault sets a bit clear in it.
    And a weight and an index fault on a slot the mode gates, if any.
    """
    faults = []
    free = [bit for bit in range(cfg.index_width) if not (cfg.m - 1) >> bit & 1]
    if free:
        row, col = int(rng.integers(0, cfg.rows)), int(rng.integers(0, cfg.cols))
        slot = int(rng.integers(0, cfg.active_slots))
        indexes = tile.indexes.copy()
        indexes[row, col, slot] = cfg.m - 1
        tile = SparseWeightTile(tile.values, indexes, m=cfg.m, n=cfg.n, data_width=cfg.data_width)
        faults.append(FaultSite(RegClass.WEIGHT_INDEX, row, col, slot, free[-1], 1))
        assert (cfg.m - 1) | 1 << free[-1] >= cfg.m
    if cfg.active_slots < cfg.n:
        slot = int(rng.integers(cfg.active_slots, cfg.n))
        for cls in (RegClass.WEIGHT, RegClass.WEIGHT_INDEX):
            bit = int(rng.integers(0, cfg.reg_specs[cls].width))
            faults.append(FaultSite(cls, 0, 0, slot, bit, int(rng.integers(0, 2))))
    return tile, faults


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    fault_set=st.sampled_from(["mixed", "duplicates", "empty"]),
    tiles=st.integers(1, 3),
    x_rows=st.integers(0, 5),
    test4_mask=st.sampled_from([False, True, "rows"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_faults_match_one_fault_at_a_time(cfg, fault_set, tiles, x_rows, test4_mask, seed):
    rng = np.random.default_rng(seed)
    stack = [tile_of_magnitude(rng, cfg, 1 << 30) for _ in range(tiles)]
    stack[-1], corners = corner_faults(rng, cfg, stack[-1])
    faults = mixed_faults(rng, cfg, int(rng.integers(5, 10))) + corners
    if fault_set == "duplicates":
        faults += [faults[i] for i in rng.integers(0, len(faults), size=4)]
        rng.shuffle(faults)
    elif fault_set == "empty":
        faults = []
    d_hi, a_hi = 1 << (cfg.data_width - 1), 1 << (cfg.acc_width - 1)
    # Each tile its own input rows, one bit wider than the registers; north
    # values at the accumulator's limits, so that sums wrap it.
    blocks = rng.integers(-2 * d_hi, 2 * d_hi, size=(x_rows, tiles, cfg.rows, cfg.m))
    north = rng.choice([-a_hi, a_hi - 1], size=x_rows) + rng.integers(-1, 2, size=x_rows)
    if test4_mask == "rows":
        test4_mask = rng.integers(0, 2, size=x_rows).astype(bool)

    array, single = TensorArray(cfg), TensorArray(cfg)
    sites = fault_sites(cfg, faults)
    values = np.stack([tile.values for tile in stack])
    indexes = np.stack([tile.indexes for tile in stack])
    goldens = [compute_golden(tile, cfg) for tile in stack]
    golden = GoldenReference(np.stack([g.per_test for g in goldens], axis=1), cfg)
    before = array.registers()
    clean, sums = array.stream_faults(values, indexes, sites, blocks, north, test4_mask)
    raw, compared = fault_sessions(array, values, indexes, sites, golden)
    assert_same_registers(array.registers(), before, "stream_faults")
    assert clean.shape == (x_rows, tiles, cfg.cols)
    assert sums.shape == (x_rows, tiles, len(faults), cfg.cols)
    assert raw.shape == compared.shape == (4, tiles, len(faults), cfg.cols)
    for t, tile in enumerate(stack):
        single.clear_faults()
        single.load_weights(tile)
        assert np.array_equal(clean[:, t], single.stream(blocks[:, t], north, test4_mask)[0])
        for f, fault in enumerate(faults):
            single.clear_faults()
            single.inject(fault)
            want, _ = single.stream(blocks[:, t], north, test4_mask)
            assert np.array_equal(sums[:, t, f], want), (t, fault)
            report = run_session(single, goldens[t])
            assert np.array_equal(raw[:, t, f], report.raw), (t, fault)
            assert np.array_equal(compared[:, t, f], report.compared), (t, fault)

    # The closed form derives single faults on a fault-free array only.
    array.inject(mixed_faults(rng, cfg, 1)[0])
    with pytest.raises(ValueError, match="without injected faults"):
        array.stream_faults(values, indexes, sites, blocks, north, test4_mask)
    with pytest.raises(ValueError, match="without injected faults"):
        fault_sessions(array, values, indexes, sites, golden)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(built_on=configs(), run_on=configs(), seed=st.integers(0, 2**32 - 1))
def test_foreign_tables_name_the_same_faults(built_on, run_on, seed):
    """A table built on one array means the same faults on another, or fails.

    Faults whose fields fit both arrays, each class's top common bit (a sign
    bit of one of them) included, give on ``run_on`` the sums of ``inject``
    plus ``stream`` and of ``run_session``, edge faults through
    ``fault_sessions``.  A fault only ``built_on`` has fails with the
    ``ValueError`` that names its row and ``FaultSite.validate``'s field.
    """
    rng = np.random.default_rng(seed)
    faults = []
    for cls in RegClass:
        a, b = built_on.reg_specs[cls], run_on.reg_specs[cls]
        width = min(a.width, b.width)
        row, col, element = (int(rng.integers(0, min(pair))) for pair in zip(a.shape, b.shape))
        for bit in {width - 1, int(rng.integers(0, width))}:
            faults += [FaultSite(cls, row, col, element, bit, stuck) for stuck in (0, 1)]
    sites = fault_sites(built_on, faults)

    tiles = [tile_of_magnitude(rng, run_on, 1 << 30) for _ in range(2)]
    values = np.stack([tile.values for tile in tiles])
    indexes = np.stack([tile.indexes for tile in tiles])
    goldens = [compute_golden(tile, run_on) for tile in tiles]
    golden = GoldenReference(np.stack([g.per_test for g in goldens], axis=1), run_on)
    d_hi = 1 << (run_on.data_width - 1)
    blocks = rng.integers(-d_hi, d_hi, size=(3, len(tiles), run_on.rows, run_on.m))
    array, single = TensorArray(run_on), TensorArray(run_on)
    _, sums = array.stream_faults(values, indexes, sites, blocks)
    raw, compared = fault_sessions(array, values, indexes, sites, golden)
    for f, fault in enumerate(faults):
        single.clear_faults()
        single.inject(fault)
        for t, tile in enumerate(tiles):
            single.load_weights(tile)
            assert np.array_equal(sums[:, t, f], single.stream(blocks[:, t])[0]), (t, fault)
            report = run_session(single, goldens[t])
            assert np.array_equal(raw[:, t, f], report.raw), (t, fault)
            assert np.array_equal(compared[:, t, f], report.compared), (t, fault)

    for fault in mixed_faults(rng, built_on, 6):
        try:
            fault.validate(run_on)
        except ValueError as err:
            table = fault_sites(built_on, [faults[0], fault])
            message = re.escape(f"fault table row 1: {err}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                array.stream_faults(values, indexes, table, blocks)
            with pytest.raises(ValueError, match=f"^{message}$"):
                fault_sessions(array, values, indexes, table, golden)


def assert_matches_per_fault_loop(cfg, tiles, faults, budget, **kwargs):
    """Run a campaign under ``ELEMENT_BUDGET = budget`` and with the per-fault loop.

    Both must fill the same outcome table and report the same.  Returns the
    table.
    """
    outcomes = {}

    def recording(name, evaluate):
        def wrapped(*args):
            outcomes[name] = evaluate(*args)
            return outcomes[name]

        return wrapped

    def reference_table(values, indexes, golden, sites, verify, harness):
        universe = enumerate_faults(cfg) if faults is None else faults
        goldens = [compute_golden(tile, cfg) for tile in tiles]
        return reference_evaluate(cfg, tiles, goldens, universe, verify, harness)

    with patch.object(stasim.array, "ELEMENT_BUDGET", budget), patch.object(
        campaign, "_evaluate_faults", recording("closed form", campaign._evaluate_faults)
    ):
        closed_form = run_campaign(tiles, cfg, faults=faults, **kwargs)
    with patch.object(campaign, "_evaluate_faults", recording("reference", reference_table)):
        reference = run_campaign(tiles, cfg, faults=faults, **kwargs)
    assert np.array_equal(outcomes["closed form"], outcomes["reference"])
    assert closed_form.to_dict() == reference.to_dict()
    return outcomes["closed form"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    faults_per_step=st.integers(3, 6),
    full_chunks=st.integers(2, 3),
    magnitudes=st.lists(st.sampled_from([0, 1, 3, 1 << 30]), min_size=1, max_size=3),
    harmless_rows=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_lane_campaign_matches_per_fault_loop(
    cfg, faults_per_step, full_chunks, magnitudes, harmless_rows, seed
):
    rng = np.random.default_rng(seed)
    # Longer than one chunk, and not a whole number of chunks.
    remainder = int(rng.integers(1, faults_per_step))
    faults = mixed_faults(rng, cfg, faults_per_step * full_chunks + remainder - 2)
    assert len({f.reg_class for f in faults}) == len(RegClass)
    tiles = [tile_of_magnitude(rng, cfg, mag) for mag in magnitudes]
    # A session call holds 4 waves x (fault, tile) pairs x cols.
    budget = faults_per_step * 4 * cfg.cols
    with patch.object(campaign, "HARMLESS_ROWS", harmless_rows):
        assert_matches_per_fault_loop(
            cfg, tiles, faults, budget, verify_classification=True, check_harmless=True, seed=seed
        )


def test_whole_universe_in_small_steps_matches_per_fault_loop():
    # Seven (fault, tile) pairs per session call and one per harness call:
    # both walks cross many call boundaries, and the escapes are of both
    # kinds.
    cfg = ArrayConfig(rows=1, cols=2, m=4, n=2, data_width=8, acc_width=16)
    rng = np.random.default_rng(457)
    tiles = [random_tiles(rng, cfg, 1, magnitude=mag)[0] for mag in (None, 3)]
    table = assert_matches_per_fault_loop(cfg, tiles, None, 7 * 4 * cfg.cols, check_harmless=True)
    harmless = table[:, 2]
    assert (harmless == 0).sum() > 1 and (harmless == 1).sum() > 1
