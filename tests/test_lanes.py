"""Property tests: fault lanes against one fault injected at a time.

The references are the per-fault loops the lanes replace: inject a single
fault, then ``stream`` or run one ``run_session`` per tile until a session
flags it, classify it with the scalar classifier copies of
``test_classify``, and check an undetected fault's harmlessness with
``run_compute``.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import stasim.array
import stasim.campaign as campaign
from stasim.array import FaultLanes, FaultSite, RegClass, TensorArray
from stasim.campaign import run_campaign
from stasim.selftest import run_session
from stasim.sparsity import SparseWeightTile
from test_classify import scalar_classify, scalar_outcome
from test_stream import configs


def reference_evaluate(config, tiles, goldens, faults, verify_classification, harness):
    """One fault after another on a fresh fault state: the loop lanes replace.

    Returns the outcome table ``campaign._evaluate_faults`` fills, one row
    per fault, with -1 for an unknown outcome.
    """
    array = TensorArray(config)
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
            stacks, clean = harness
            harmless = True
            for tile, stack, want in zip(tiles, stacks, clean):
                array.load_weights(tile)
                got, _ = array.run_compute(stack.reshape(len(stack), -1))
                if not np.array_equal(got, want):
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    fault_count=st.integers(5, 14),
    blocks=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([False, True, "rows"])),
        min_size=1,
        max_size=2,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_lanes_match_one_fault_at_a_time(cfg, fault_count, blocks, seed):
    rng = np.random.default_rng(seed)
    faults = mixed_faults(rng, cfg, fault_count)
    lanes = FaultLanes(cfg, faults)
    tile = tile_of_magnitude(rng, cfg, 1 << 30)
    array, single = TensorArray(cfg), TensorArray(cfg)
    array.load_weights(tile)
    single.load_weights(tile)
    # Faults injected into the array itself do not reach the lanes.
    array.inject(faults[0])
    cycles = array.cycles
    regs = {cls: stored.copy() for cls, stored in array._regs.items()}
    d_hi, a_hi = 1 << (cfg.data_width - 1), 1 << (cfg.acc_width - 1)
    for x_rows, test4_mask in blocks:
        west = rng.integers(-2 * d_hi, 2 * d_hi, size=(x_rows, cfg.rows, cfg.m))
        north = rng.integers(-2 * a_hi, 2 * a_hi, size=x_rows)
        if test4_mask == "rows":
            test4_mask = rng.integers(0, 2, size=x_rows).astype(bool)
        got = array.stream_lanes(lanes, west, north, test4_mask=test4_mask)
        assert got.shape == (x_rows, len(faults), cfg.cols)
        # One to four tests' sums per lane, as a session compares them.
        tests = int(rng.integers(1, 5))
        raw = rng.integers(-2 * a_hi, 2 * a_hi, size=(tests, len(faults), cfg.cols))
        gold = rng.integers(-2 * a_hi, 2 * a_hi, size=(tests, 1, cfg.cols))
        compared = array.edge_compare_lanes(lanes, raw, gold)
        for lane, fault in enumerate(faults):
            single.clear_faults()
            single.inject(fault)
            want, _ = single.stream(west, north, test4_mask=test4_mask)
            assert np.array_equal(got[:, lane], want)
            want = single.edge_compare(raw[:, lane], gold[:, 0])
            assert np.array_equal(compared[:, lane], want)
    assert array.cycles == cycles
    for cls, stored in array._regs.items():
        assert np.array_equal(stored, regs[cls])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cfg=configs(),
    lanes_per_pass=st.integers(3, 6),
    full_chunks=st.integers(2, 3),
    magnitudes=st.lists(st.sampled_from([0, 1, 3, 1 << 30]), min_size=1, max_size=3),
    harmless_rows=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_lane_campaign_matches_per_fault_loop(
    cfg, lanes_per_pass, full_chunks, magnitudes, harmless_rows, seed
):
    rng = np.random.default_rng(seed)
    # Longer than one chunk, and not a whole number of chunks.
    remainder = int(rng.integers(1, lanes_per_pass))
    faults = mixed_faults(rng, cfg, lanes_per_pass * full_chunks + remainder - 2)
    assert len({f.reg_class for f in faults}) == len(RegClass)
    tiles = [tile_of_magnitude(rng, cfg, mag) for mag in magnitudes]
    budget = lanes_per_pass * 4 * cfg.rows * cfg.cols * cfg.m
    kwargs = dict(
        faults=faults,
        verify_classification=True,
        check_harmless=True,
        seed=seed,
    )
    outcomes = {}

    def recording(name, evaluate):
        def wrapped(*args):
            outcomes[name] = evaluate(*args)
            return outcomes[name]

        return wrapped

    def reference_table(tiles, goldens, universe, verify, harness):
        return reference_evaluate(universe.config, tiles, goldens, faults, verify, harness)

    with patch.object(campaign, "HARMLESS_ROWS", harmless_rows):
        with patch.object(stasim.array, "LANE_BUDGET", budget), patch.object(
            campaign, "_evaluate_faults", recording("lanes", campaign._evaluate_faults)
        ):
            lanes = run_campaign(tiles, cfg, **kwargs)
        with patch.object(
            campaign, "_evaluate_faults", recording("reference", reference_table)
        ):
            reference = run_campaign(tiles, cfg, **kwargs)
    assert np.array_equal(outcomes["lanes"], outcomes["reference"])
    assert lanes.to_dict() == reference.to_dict()
