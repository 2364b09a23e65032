"""Unit tests for the cycle-level array model and fault injection."""

import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from stasim.arith import Word, force_bit, wrap_signed
from stasim.array import ArrayConfig, FaultLanes, FaultSite, RegClass, TensorArray
from stasim.campaign import enumerate_faults, random_tiles, run_campaign
from stasim.driver import Layer, Workload, tiled_matmul
from stasim.sparsity import SparseWeightTile, densify, pack_tile
from test_stream import assert_same_registers


def single_tpe_tile(values, indexes, m=4, n=2, data_width=16):
    return SparseWeightTile([[values]], [[indexes]], m=m, n=n, data_width=data_width)


def random_tile(rng, config, magnitude=None):
    hi = magnitude if magnitude is not None else 1 << (config.data_width - 1)
    dense = rng.integers(-hi, hi, size=config.tile_shape, dtype=np.int64)
    return pack_tile(dense, config.m, config.n, config.data_width)


# -- configuration -----------------------------------------------------------


def test_config_defaults_and_derived():
    cfg = ArrayConfig()
    assert (cfg.rows, cfg.cols, cfg.m, cfg.n) == (8, 8, 4, 2)
    assert cfg.mode == "2:4"
    assert cfg.active_slots == 2
    assert cfg.index_width == 2
    assert cfg.block_rows == 32
    assert cfg.tile_shape == (32, 8)


def test_config_index_width_non_power_of_two():
    assert ArrayConfig(m=5, n=2, mode="2:5").index_width == 3
    assert ArrayConfig(rows=1, cols=1, m=1, n=1).index_width == 1


def test_config_one_active_slot_mode():
    cfg = ArrayConfig(n=2, mode="1:4")
    assert cfg.active_slots == 1
    assert cfg.n == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(rows=0)
    with pytest.raises(ValueError):
        ArrayConfig(n=5, m=4)
    with pytest.raises(ValueError):
        ArrayConfig(data_width=1)
    with pytest.raises(ValueError):
        ArrayConfig(data_width=16, acc_width=8)
    with pytest.raises(ValueError):
        ArrayConfig(acc_width=64)
    with pytest.raises(ValueError):
        ArrayConfig(mode="2-4")
    with pytest.raises(ValueError):
        ArrayConfig(mode="2:8")  # block size disagrees with m
    with pytest.raises(ValueError):
        ArrayConfig(mode="3:4", n=2)  # more active slots than exist


@pytest.mark.parametrize(
    "field, value",
    [("rows", 2.5), ("cols", "8"), ("m", 4.0), ("n", True), ("data_width", None)],
)
def test_config_rejects_non_integers(field, value):
    message = rf"ArrayConfig {field} must be an integer, got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=message):
        ArrayConfig(**{field: value})


def test_config_stores_numpy_integers_as_int():
    default = asdict(ArrayConfig(rows=1, cols=1))
    cfg = ArrayConfig(**{k: v if k == "mode" else np.int64(v) for k, v in default.items()})
    assert cfg == ArrayConfig(rows=1, cols=1) and asdict(cfg) == default
    assert all(type(v) is int for k, v in asdict(cfg).items() if k != "mode")
    tiles = random_tiles(np.random.default_rng(7), cfg, 1)
    run_campaign(tiles, cfg, faults=enumerate_faults(cfg)[:8]).to_json()


# -- fault site validation ----------------------------------------------------


def test_fault_site_validation():
    cfg = ArrayConfig()
    FaultSite(RegClass.ACTIVATION, 7, 7, 3, 15, 1).validate(cfg)
    FaultSite(RegClass.OUTPUT, 0, 0, 0, 31, 0).validate(cfg)
    FaultSite(RegClass.EDGE_ACCUMULATOR, 0, 7, 0, 31, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.ACTIVATION, 8, 0, 0, 0, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.ACTIVATION, 0, 8, 0, 0, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.ACTIVATION, 0, 0, 4, 0, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.WEIGHT, 0, 0, 2, 0, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.WEIGHT, 0, 0, 0, 16, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.WEIGHT_INDEX, 0, 0, 0, 2, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.OUTPUT, 0, 0, 1, 0, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.OUTPUT, 0, 0, 0, 32, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.EDGE_ACCUMULATOR, 1, 0, 0, 0, 1).validate(cfg)
    with pytest.raises(ValueError):
        FaultSite(RegClass.WEIGHT, 0, 0, 0, 0, 2).validate(cfg)


@pytest.mark.parametrize(
    "field, value",
    [
        ("row", 0.5),
        ("col", "0"),
        ("element", None),
        ("bit", 3.0),
        ("stuck", 1.0),
        ("row", True),
        ("col", False),
        ("element", np.bool_(False)),
        ("bit", True),
    ],
)
def test_fault_site_rejects_non_integers(field, value):
    cfg = ArrayConfig(rows=2, cols=2)
    fault = replace(FaultSite(RegClass.WEIGHT, 0, 0, 0, 3, 1), **{field: value})
    message = rf"FaultSite {field} must be an integer for weight, got {re.escape(repr(value))}"
    checks = (lambda f: f.validate(cfg), TensorArray(cfg).inject, lambda f: FaultLanes(cfg, [f]))
    for check in checks:
        with pytest.raises(ValueError, match=message):
            check(fault)
    # NumPy integers index like ints, and a bool polarity is 0 or 1.
    FaultSite(RegClass.WEIGHT, np.int64(1), 0, 0, np.uint8(3), True).validate(cfg)


def test_fault_site_spec_string():
    site = FaultSite(RegClass.WEIGHT, 3, 5, 1, 7, 1)
    assert site.spec() == "weight:3:5:1:7:1"


# -- single TPE dataflow -------------------------------------------------------


def test_single_tpe_product():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([3, -2], [2, 0]))
    assert not array.registers()[RegClass.OUTPUT].any()  # loading clears it

    first = array.step(west_inputs=[[1, 2, 3, 4]], north_sums=[0])
    assert first.tolist() == [0]  # previous-cycle output register was clear
    second = array.step()
    assert second.tolist() == [3 * 3 + (-2) * 1]


def test_single_tpe_forced_selection():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([3, -2], [2, 0]))
    array.step(west_inputs=[[1, 2, 3, 4]], north_sums=[0], test4_mask=True)
    # column 0 forces element 0 into both slots: (3 + (-2)) * 1
    assert array.step(test4_mask=True).tolist() == [1]


def test_single_tpe_run_compute_cycles():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([3, -2], [2, 0]))
    out, cycles = array.run_compute([[1, 2, 3, 4]])
    assert cycles == 1 + 1 + 1 - 1
    assert out.tolist() == [[7]]


def test_step_requires_loaded_weights():
    array = TensorArray(ArrayConfig(rows=1, cols=1))
    with pytest.raises(RuntimeError):
        array.step()


def test_step_shape_validation():
    array = TensorArray(ArrayConfig(rows=2, cols=2))
    array.load_weights(
        pack_tile(np.ones((8, 2), dtype=np.int64), 4, 2)
    )
    with pytest.raises(ValueError):
        array.step(west_inputs=[[1, 2, 3, 4]])
    with pytest.raises(ValueError):
        array.step(north_sums=[0])


def test_west_inputs_wrap_to_data_width():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([1, 0], [0, 0]))
    array.step(west_inputs=[[1 << 15, 0, 0, 0]])
    assert array.step().tolist() == [-32768]


# -- whole array compute --------------------------------------------------------


def test_compute_matches_dense_product():
    rng = np.random.default_rng(101)
    cfg = ArrayConfig()
    array = TensorArray(cfg)
    tile = random_tile(rng, cfg, magnitude=100)
    array.load_weights(tile)
    a = rng.integers(-100, 101, size=(8, cfg.block_rows), dtype=np.int64)
    out, cycles = array.run_compute(a)
    assert cycles == 8 + 8 + 8 - 1
    assert np.array_equal(out, a @ densify(tile))


def test_compute_matches_dense_product_with_wraparound():
    rng = np.random.default_rng(103)
    cfg = ArrayConfig()
    array = TensorArray(cfg)
    tile = random_tile(rng, cfg)  # full 16-bit magnitudes force 32-bit wrap
    array.load_weights(tile)
    a = rng.integers(-(1 << 15), 1 << 15, size=(20, cfg.block_rows), dtype=np.int64)
    out, _ = array.run_compute(a)
    assert np.array_equal(out, wrap_signed(a @ densify(tile), cfg.acc_width))


def test_compute_zero_inputs_and_zero_weights():
    cfg = ArrayConfig(rows=2, cols=3)
    array = TensorArray(cfg)
    array.load_weights(pack_tile(np.zeros((8, 3), dtype=np.int64), 4, 2))
    rng = np.random.default_rng(107)
    a = rng.integers(-50, 51, size=(5, 8), dtype=np.int64)
    out, _ = array.run_compute(a)
    assert not out.any()

    array.load_weights(pack_tile(rng.integers(-9, 10, size=(8, 3)), 4, 2))
    out, _ = array.run_compute(np.zeros((4, 8), dtype=np.int64))
    assert not out.any()


def test_compute_shape_validation():
    array = TensorArray(ArrayConfig(rows=2, cols=2))
    array.load_weights(pack_tile(np.ones((8, 2), dtype=np.int64), 4, 2))
    with pytest.raises(ValueError):
        array.run_compute(np.ones((3, 7), dtype=np.int64))
    blocks = np.ones((3, 2, 4), dtype=np.int64)
    for flags in ([True, False], [[True, False, True]]):
        with pytest.raises(ValueError, match="one test-4 flag per input row"):
            array.stream(blocks, test4_mask=flags)
        with pytest.raises(ValueError, match="one test-4 flag per input row"):
            array.stream_lanes(FaultLanes(array.config, []), blocks, test4_mask=flags)


def test_load_cycle_count_and_state_reset():
    rng = np.random.default_rng(109)
    cfg = ArrayConfig()
    array = TensorArray(cfg)
    tile = random_tile(rng, cfg, magnitude=50)
    array.load_weights(tile)
    for _ in range(cfg.cols):
        array.step(rng.integers(-5, 6, size=(cfg.rows, cfg.m)))
    before = array.registers()
    assert before[RegClass.OUTPUT].any() and before[RegClass.ACTIVATION].any()
    array.run_compute(rng.integers(-5, 6, size=(3, cfg.block_rows), dtype=np.int64))
    assert_same_registers(array.registers(), before, "run_compute")
    # Loading costs a cycle per grid row; the driver charges it.
    layer = Layer(np.ones((3, cfg.block_rows), dtype=np.int64), densify(tile))
    _, stats, _ = tiled_matmul(Workload([layer]), cfg)
    assert stats.load_cycles == cfg.rows
    array.load_weights(tile)
    regs = array.registers()
    assert not regs[RegClass.OUTPUT].any()
    assert not regs[RegClass.ACTIVATION].any()


def test_load_shape_mismatch_rejected():
    array = TensorArray(ArrayConfig(rows=2, cols=2))
    with pytest.raises(ValueError):
        array.load_weights(pack_tile(np.ones((8, 3), dtype=np.int64), 4, 2))
    with pytest.raises(ValueError):
        array.load_weights(pack_tile(np.ones((16, 2), dtype=np.int64), 8, 2))
    with pytest.raises(ValueError):
        array.load_weights(
            pack_tile(np.ones((8, 2), dtype=np.int64), 4, 2, data_width=12)
        )


def test_weight_readback_matches_tile():
    rng = np.random.default_rng(113)
    cfg = ArrayConfig(rows=3, cols=4)
    dense = rng.integers(-99, 100, size=(12, 4), dtype=np.int64)
    tile = pack_tile(dense, 4, 2)
    array = TensorArray(cfg)
    array.load_weights(tile)
    regs = array.registers()
    assert {cls: r.shape for cls, r in regs.items()} == {
        cls: spec.shape
        for cls, spec in cfg.reg_specs.items()
        if cls is not RegClass.EDGE_ACCUMULATOR
    }
    for i in range(3):
        for j in range(4):
            assert tuple(regs[RegClass.WEIGHT][i, j]) == tile.blocks[i][j].values
            assert tuple(regs[RegClass.WEIGHT_INDEX][i, j]) == tile.blocks[i][j].indexes
    # The read-back is a copy: writing to it leaves the registers alone.
    regs[RegClass.WEIGHT][:] = 0
    assert np.array_equal(array.registers()[RegClass.WEIGHT], tile.values)


# -- fault semantics -------------------------------------------------------------


def test_inject_then_clear_restores_fault_free_behavior():
    rng = np.random.default_rng(127)
    cfg = ArrayConfig(rows=4, cols=4)
    tile = random_tile(rng, cfg, magnitude=200)
    a = rng.integers(-200, 201, size=(6, cfg.block_rows), dtype=np.int64)

    clean = TensorArray(cfg)
    clean.load_weights(tile)
    want, _ = clean.run_compute(a)

    array = TensorArray(cfg)
    array.inject(FaultSite(RegClass.WEIGHT, 1, 2, 0, 13, 1))
    array.inject(FaultSite(RegClass.OUTPUT, 3, 3, 0, 5, 1))
    array.clear_faults()
    assert not any(regs.any() for regs in array.registers().values())
    array.load_weights(tile)
    got, _ = array.run_compute(a)
    assert np.array_equal(got, want)


def test_inject_validates_site():
    array = TensorArray(ArrayConfig())
    with pytest.raises(ValueError):
        array.inject(FaultSite(RegClass.WEIGHT, 9, 0, 0, 0, 1))


def test_weight_fault_visible_in_readback():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([3, -2], [2, 0]))
    array.inject(FaultSite(RegClass.WEIGHT, 0, 0, 0, 2, 1))
    assert array.registers()[RegClass.WEIGHT][0, 0].tolist() == [3 | 4, -2]
    # stored value is untouched: clearing the fault restores the read
    array.clear_faults()
    assert array.registers()[RegClass.WEIGHT][0, 0].tolist() == [3, -2]


def test_run_compute_rejects_out_of_range_activations():
    array = TensorArray(ArrayConfig(rows=1, cols=1))
    array.load_weights(single_tpe_tile([1, 0], [0, 1]))
    with pytest.raises(
        ValueError, match=r"activation row 0 column 0: value 40000 outside 16-bit"
    ):
        array.run_compute([[40000, 0, 0, 0]])
    with pytest.raises(ValueError, match=r"row 1 column 2: value -32769 outside"):
        array.run_compute([[0, 0, 0, 0], [0, 0, -32769, 0]])
    out, _ = array.run_compute([[32767, 0, 0, 0], [-32768, 0, 0, 0]])
    assert out.tolist() == [[32767], [-32768]]


def test_run_compute_rejects_non_integer_activations():
    array = TensorArray(ArrayConfig(rows=1, cols=1))
    array.load_weights(single_tpe_tile([1, 0], [0, 1]))
    with pytest.raises(ValueError, match=r"row 0 column 0: value 1.5 is not an integer"):
        array.run_compute([[1.5, 0, 0, 0]])
    with pytest.raises(ValueError, match=r"row 1 column 3: value nan is not an integer"):
        array.run_compute([[0, 0, 0, 0], [0, 0, 0, np.nan]])
    # integer values held in a float array are exact, so they are accepted
    out, _ = array.run_compute(np.array([[2.0, 0, 0, 0]]))
    assert out.tolist() == [[2]]
    # The stream keeps its wire-width wrap.
    wrapped, _ = array.stream([[[40000, 0, 0, 0]]])
    assert wrapped.tolist() == [[-25536]]


def test_output_fault_forces_latched_sums():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([1, 0], [0, 0]))
    array.inject(FaultSite(RegClass.OUTPUT, 0, 0, 0, 4, 1))
    array.step(west_inputs=[[2, 0, 0, 0]])
    south = array.step()
    assert south.tolist() == [2 | 16]


def test_index_fault_changes_selection_not_weights():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([3, -2], [2, 0]))
    # slot 0 index 2 (0b10) with bit 0 stuck-1 selects element 3 instead
    array.inject(FaultSite(RegClass.WEIGHT_INDEX, 0, 0, 0, 0, 1))
    regs = array.registers()
    assert regs[RegClass.WEIGHT][0, 0].tolist() == [3, -2]
    assert regs[RegClass.WEIGHT_INDEX][0, 0].tolist() == [3, 0]
    out, _ = array.run_compute([[10, 20, 30, 40]])
    assert out.tolist() == [[3 * 40 + (-2) * 10]]


def test_index_fault_ignored_under_forced_selection():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([3, -2], [2, 0]))
    array.inject(FaultSite(RegClass.WEIGHT_INDEX, 0, 0, 0, 0, 1))
    array.step(west_inputs=[[1, 2, 3, 4]], test4_mask=True)
    assert array.step(test4_mask=True).tolist() == [1]


def test_out_of_range_selection_contributes_zero():
    # with m=5 the 3-bit index register can address past the block
    cfg = ArrayConfig(rows=1, cols=1, m=5, n=2, mode="2:5")
    tile = single_tpe_tile([3, -2], [3, 0], m=5)
    array = TensorArray(cfg)
    array.load_weights(tile)
    # index 3 (0b011) with bit 2 stuck-1 reads as 7, beyond the block
    array.inject(FaultSite(RegClass.WEIGHT_INDEX, 0, 0, 0, 2, 1))
    out, _ = array.run_compute([[10, 20, 30, 40, 50]])
    assert out.tolist() == [[(-2) * 10]]


def test_activation_fault_is_local_to_eastward_columns():
    rng = np.random.default_rng(131)
    cfg = ArrayConfig()
    tile = random_tile(rng, cfg)
    a = rng.integers(-(1 << 15), 1 << 15, size=(10, cfg.block_rows), dtype=np.int64)

    clean = TensorArray(cfg)
    clean.load_weights(tile)
    want, _ = clean.run_compute(a)

    col = 5
    array = TensorArray(cfg)
    array.inject(FaultSite(RegClass.ACTIVATION, 2, col, 1, 14, 1))
    array.load_weights(tile)
    got, _ = array.run_compute(a)
    assert np.array_equal(got[:, :col], want[:, :col])
    assert not np.array_equal(got[:, col:], want[:, col:])


def test_edge_fault_applies_to_comparison():
    cfg = ArrayConfig(rows=1, cols=2)
    array = TensorArray(cfg)
    array.load_weights(pack_tile(np.ones((4, 2), dtype=np.int64), 4, 2))
    array.inject(FaultSite(RegClass.EDGE_ACCUMULATOR, 0, 1, 0, 3, 1))
    compared = array.edge_compare([5, 5], [-5, -5])
    assert compared.tolist() == [0, (5 | 8) - 5]
    # One call compares a row per test.
    compared = array.edge_compare([[5, 5], [1, 16]], [[-5, -5], [0, 0]])
    assert compared.tolist() == [[0, (5 | 8) - 5], [1, 24]]
    for raw, gold in [([1], [1]), ([[1, 1]], [1, 1]), (np.zeros((0, 2)), np.zeros((0, 2)))]:
        with pytest.raises(ValueError):
            array.edge_compare(raw, gold)


def test_multiple_faults_compose():
    cfg = ArrayConfig(rows=1, cols=1)
    array = TensorArray(cfg)
    array.load_weights(single_tpe_tile([0, 0], [0, 0]))
    array.inject(FaultSite(RegClass.WEIGHT, 0, 0, 0, 0, 1))
    array.inject(FaultSite(RegClass.WEIGHT, 0, 0, 0, 1, 1))
    assert array.registers()[RegClass.WEIGHT][0, 0, 0] == 3


def test_conflicting_polarities_rejected():
    array = TensorArray(ArrayConfig())
    array.inject(FaultSite(RegClass.WEIGHT, 1, 2, 0, 5, 0))
    array.inject(FaultSite(RegClass.WEIGHT, 1, 2, 0, 5, 0))
    array.inject(FaultSite(RegClass.WEIGHT, 1, 2, 1, 5, 1))
    before = array.registers()
    with pytest.raises(ValueError, match="weight:1:2:0:5:1.*weight:1:2:0:5:0"):
        array.inject(FaultSite(RegClass.WEIGHT, 1, 2, 0, 5, 1))
    # The rejected stuck-at-1 would read back on the zero-stored weight.
    after = array.registers()
    assert all(np.array_equal(before[cls], after[cls]) for cls in before)
    assert after[RegClass.WEIGHT][1, 2].tolist() == [0, 32]


@pytest.mark.parametrize("cls", list(RegClass))
def test_conflict_rule_over_every_bit_pair(cls):
    # A second fault in the same cell is rejected exactly when it ties the
    # same bit to the other polarity; sign bits, which force their whole
    # sign extension, included.
    cfg = ArrayConfig(rows=1, cols=1)
    width = cfg.reg_specs[cls].width
    pairs = [(bit, stuck) for bit in range(width) for stuck in (0, 1)]
    for first in pairs:
        for second in pairs:
            array = TensorArray(cfg)
            array.inject(FaultSite(cls, 0, 0, 0, *first))
            conflict = first[0] == second[0] and first[1] != second[1]
            try:
                array.inject(FaultSite(cls, 0, 0, 0, *second))
            except ValueError:
                assert conflict, (first, second)
            else:
                assert not conflict, (first, second)


def _forced_word(value, width, faults):
    word = Word.from_signed(int(value), width)
    for f in faults:
        word = force_bit(word, f.bit, f.stuck)
    return word


@pytest.mark.parametrize(
    "cfg",
    [
        ArrayConfig(rows=3, cols=4, m=3, n=2),
        ArrayConfig(rows=2, cols=3, m=5, n=3),
        ArrayConfig(rows=2, cols=3, data_width=30, acc_width=62),
    ],
    ids=["m3", "m5n3", "wide"],
)
def test_masked_reads_match_scalar_forcing(cfg):
    """Mask reads equal force_bit applied fault by fault to the stored words."""
    rng = np.random.default_rng(137)
    universe = enumerate_faults(cfg)
    specs = cfg.reg_specs
    sign_bits = [
        f for f in universe
        if specs[f.reg_class].signed and f.bit == specs[f.reg_class].width - 1
    ]
    d_lo, d_hi = -(1 << (cfg.data_width - 1)), 1 << (cfg.data_width - 1)
    a_hi = 1 << (cfg.acc_width - 1)
    seen_sign = set()
    for _ in range(40):
        array = TensorArray(cfg)
        array.load_weights(random_tile(rng, cfg))
        for _ in range(cfg.cols + 1):
            west = rng.integers(d_lo, d_hi, size=(cfg.rows, cfg.m))
            north = rng.integers(-a_hi, a_hi, size=cfg.cols)
            array.step(west, north)
        clean = array.registers()

        picks = [universe[i] for i in rng.choice(len(universe), 5, replace=False)]
        picks += [sign_bits[i] for i in rng.choice(len(sign_bits), 2, replace=False)]
        faults = {}
        for f in picks:
            faults.setdefault((f.reg_class, f.row, f.col, f.element, f.bit), f)
        for f in faults.values():
            array.inject(f)
            if f in sign_bits:
                seen_sign.add(f.stuck)

        def at(cls, r, c, e=0):
            return [
                f for f in faults.values()
                if (f.reg_class, f.row, f.col, f.element) == (cls, r, c, e)
            ]

        got = array.registers()
        assert got.keys() == clean.keys()
        for cls, stored in clean.items():
            spec = specs[cls]
            for cell in np.ndindex(spec.shape):
                word = _forced_word(stored[cell], spec.width, at(cls, *cell))
                assert got[cls][cell] == (word.signed if spec.signed else word.bits)

        raw = rng.integers(-a_hi, a_hi, size=cfg.cols)
        gold = rng.integers(-a_hi, a_hi, size=cfg.cols)
        want_edge = [
            wrap_signed(
                _forced_word(raw[c], cfg.acc_width, at(RegClass.EDGE_ACCUMULATOR, 0, c))
                .signed + int(gold[c]),
                cfg.acc_width,
            )
            for c in range(cfg.cols)
        ]
        assert array.edge_compare(raw, gold).tolist() == want_edge

        array.clear_faults()
        for cls, regs in array.registers().items():
            assert np.array_equal(regs, clean[cls])
    assert seen_sign == {0, 1}
