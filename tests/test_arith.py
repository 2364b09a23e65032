"""Unit tests for the fixed-width two's-complement primitives."""

import numpy as np
import pytest

from stasim.arith import (
    Word,
    bit_not,
    force_bit,
    is_bitwise_complement,
    mask_of,
    outside_range,
    wrap_add,
    wrap_signed,
)


def w(value, width):
    return Word.from_signed(value, width)


def test_wrap_add_known_values():
    assert wrap_add(w(7, 32), w(-7, 32)).signed == 0
    assert wrap_add(w(7, 4), w(1, 4)).signed == -8
    v = 12345
    assert wrap_add(w(v, 32), w(-v - 1, 32)).signed == -1


def test_wrap_add_width_mismatch_rejected():
    with pytest.raises(ValueError):
        wrap_add(w(1, 16), w(1, 32))


def test_bit_not_known_values():
    assert bit_not(w(7, 32)).signed == -8
    assert bit_not(w(0, 32)).signed == -1
    assert bit_not(w(-1, 32)).signed == 0
    assert bit_not(w(0, 8)).signed == -1


def test_force_bit_known_values():
    assert force_bit(Word(4, 0b0000), 1, 1).bits == 0b0010
    assert force_bit(w(-1, 16), 15, 0).signed == 32767
    # forcing a bit to the value it already has is a no-op
    x = w(0b1010, 8)
    assert force_bit(x, 1, 1) == x
    assert force_bit(x, 0, 0) == x


def test_force_bit_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = w(int(rng.integers(-(1 << 15), 1 << 15)), 16)
        bit = int(rng.integers(0, 16))
        stuck = int(rng.integers(0, 2))
        once = force_bit(x, bit, stuck)
        assert force_bit(once, bit, stuck) == once


def test_force_bit_argument_validation():
    with pytest.raises(ValueError):
        force_bit(w(0, 8), 8, 1)
    with pytest.raises(ValueError):
        force_bit(w(0, 8), -1, 1)
    with pytest.raises(ValueError):
        force_bit(w(0, 8), 3, 2)


def test_is_bitwise_complement_known_values():
    assert is_bitwise_complement(w(0, 32), w(-1, 32))
    assert is_bitwise_complement(w(7, 32), w(-8, 32))
    assert not is_bitwise_complement(w(7, 32), w(-7, 32))
    with pytest.raises(ValueError):
        is_bitwise_complement(w(0, 16), w(-1, 32))


def test_complement_sum_exhaustive_width8():
    for bits in range(256):
        x = Word(8, bits)
        assert wrap_add(x, bit_not(x)).signed == -1


def test_complement_sum_randomized_wide_widths():
    rng = np.random.default_rng(11)
    for width in (16, 32):
        lo, hi = -(1 << (width - 1)), 1 << (width - 1)
        for _ in range(2000):
            x = w(int(rng.integers(lo, hi)), width)
            assert wrap_add(x, bit_not(x)).signed == -1
            assert is_bitwise_complement(x, bit_not(x))


def test_wrap_add_associative_commutative():
    rng = np.random.default_rng(13)
    for width in (16, 32):
        lo, hi = -(1 << (width - 1)), 1 << (width - 1)
        for _ in range(500):
            a, b, c = (w(int(rng.integers(lo, hi)), width) for _ in range(3))
            assert wrap_add(a, b) == wrap_add(b, a)
            assert wrap_add(wrap_add(a, b), c) == wrap_add(a, wrap_add(b, c))


def test_word_validation():
    with pytest.raises(ValueError):
        Word(0, 0)
    with pytest.raises(ValueError):
        Word(8, 256)
    with pytest.raises(ValueError):
        Word(8, -1)
    assert Word(8, 255).signed == -1
    assert w(-129, 8).signed == 127  # from_signed wraps instead of rejecting


def test_signed_range_round_trip():
    for width in (2, 8, 16):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        for value in (lo, -1, 0, 1, hi):
            assert w(value, width).signed == value


def test_wrap_signed_matches_word_on_arrays():
    rng = np.random.default_rng(17)
    raw = rng.integers(-(1 << 40), 1 << 40, size=256)
    for width in (8, 16, 32):
        wrapped = wrap_signed(raw, width)
        expected = [w(int(v), width).signed for v in raw]
        assert wrapped.tolist() == expected


def test_outside_range():
    assert outside_range([[3, -4, 5]], -4, 4).tolist() == [[False, False, True]]
    # integer-valued floats pass, fractions, NaN and infinities do not
    got = outside_range(np.array([2.0, 1.5, np.nan, np.inf]), -9, 9)
    assert got.tolist() == [False, True, True, True]
    assert outside_range(np.array([1 << 70, 1], dtype=object), 0, 9).tolist() == [True, False]
    assert outside_range(np.array(["a", "1"]), 0, 9).tolist() == [True, True]


def test_mask_of():
    assert mask_of(1) == 1
    assert mask_of(8) == 0xFF
    assert mask_of(16) == 0xFFFF
