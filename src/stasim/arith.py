"""Bit-exact fixed-width two's-complement arithmetic.

Every register and datapath value in the simulator is a fixed-width
two's-complement integer.  This module defines the scalar ``Word`` type plus
the wrap and range-check primitives; the polymorphic helpers accept plain
ints and numpy integer arrays alike.  The array core applies the same stuck-at
semantics to whole register files as AND/OR masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def mask_of(width: int) -> int:
    """All-ones bit mask for ``width`` bits."""
    return (1 << width) - 1


def wrap_signed(value, width: int):
    """Reduce ``value`` modulo 2**width and reinterpret as signed.

    Works on Python ints and numpy integer arrays alike.  Overflow wraps
    silently, matching hardware registers; there is no saturation anywhere.
    """
    half = 1 << (width - 1)
    return ((value & mask_of(width)) ^ half) - half


def outside_range(values, lo, hi) -> np.ndarray:
    """Mask of the entries of ``values`` that are not integers in ``lo..hi``.

    Entries that are not numbers at all count as outside.
    """
    values = np.asarray(values)
    try:
        inside = (values >= lo) & (values <= hi)
        if not np.issubdtype(values.dtype, np.integer):
            with np.errstate(invalid="ignore"):  # inf % 1 is NaN: not an integer
                inside &= values % 1 == 0
    except TypeError:
        return np.ones(values.shape, dtype=bool)
    return ~inside


def check_signed_range(name: str, matrix, width: int) -> None:
    """Reject a matrix with an entry that is not an integer in the
    ``width``-bit signed range.

    The message names the first offending entry by row and column.
    """
    matrix = np.asarray(matrix)
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    outside = outside_range(matrix, lo, hi)
    if outside.any():
        row, col = (int(i) for i in np.argwhere(outside)[0])
        value = matrix[row, col]
        where = f"{name} row {row} column {col}: value {value}"
        if outside_range(value, -np.inf, np.inf):
            raise ValueError(f"{where} is not an integer")
        raise ValueError(f"{where} outside {width}-bit signed range {lo}..{hi}")


@dataclass(frozen=True)
class Word:
    """A ``width``-bit two's-complement value, stored as its unsigned bit pattern."""

    width: int
    bits: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"word width must be positive, got {self.width}")
        if not 0 <= self.bits <= mask_of(self.width):
            raise ValueError(
                f"bit pattern {self.bits:#x} does not fit in {self.width} bits"
            )

    @classmethod
    def from_signed(cls, value: int, width: int) -> "Word":
        """Build a Word from any integer, wrapping modulo 2**width."""
        return cls(width, int(value) & mask_of(width))

    @property
    def signed(self) -> int:
        """The two's-complement integer value."""
        half = 1 << (self.width - 1)
        return (self.bits ^ half) - half

    def __repr__(self) -> str:
        return f"Word({self.signed}, width={self.width})"


def _require_same_width(a: Word, b: Word) -> None:
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")


def wrap_add(a: Word, b: Word) -> Word:
    """Sum modulo 2**width, like the array's accumulation adders."""
    _require_same_width(a, b)
    return Word(a.width, (a.bits + b.bits) & mask_of(a.width))


def bit_not(a: Word) -> Word:
    """Bitwise complement within the word width (equals ``-a - 1``)."""
    return Word(a.width, a.bits ^ mask_of(a.width))


def force_bit(a: Word, bit: int, stuck: int) -> Word:
    """Copy of ``a`` with one bit forced to ``stuck`` (0 or 1).  Idempotent."""
    if not 0 <= bit < a.width:
        raise ValueError(f"bit {bit} out of range for width {a.width}")
    if stuck not in (0, 1):
        raise ValueError(f"stuck polarity must be 0 or 1, got {stuck}")
    if stuck:
        return Word(a.width, a.bits | (1 << bit))
    return Word(a.width, a.bits & ~(1 << bit) & mask_of(a.width))


def is_bitwise_complement(a: Word, b: Word) -> bool:
    """True when every bit of ``a`` is the inverse of the same bit of ``b``."""
    _require_same_width(a, b)
    return a.bits == b.bits ^ mask_of(a.width)
