"""Bit-exact fixed-width two's-complement arithmetic.

Every register and datapath value in the simulator is a fixed-width
two's-complement integer.  This module defines the scalar ``Word`` type plus
the wrap/force primitives; the polymorphic helpers accept plain ints and
numpy integer arrays alike.  The array core applies the same stuck-at
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


def check_signed_range(name: str, matrix, width: int) -> None:
    """Reject a matrix with an entry outside the ``width``-bit signed range.

    The message names the first offending entry by row and column.
    """
    matrix = np.asarray(matrix)
    outside = wrap_signed(matrix, width) != matrix
    if outside.any():
        row, col = (int(i) for i in np.argwhere(outside)[0])
        raise ValueError(
            f"{name} row {row} column {col}: value {matrix[row, col]} outside "
            f"{width}-bit signed range {-(1 << (width - 1))}..{(1 << (width - 1)) - 1}"
        )


def force_unsigned(value, width: int, bit: int, stuck: int):
    """Unsigned ``width``-bit pattern of ``value`` with ``bit`` forced to ``stuck``.

    The stuck-at fault primitive for registers whose content is a plain bit
    pattern rather than a signed quantity (the position-index registers).
    """
    bits = value & mask_of(width)
    if stuck:
        return bits | (1 << bit)
    return bits & ~(1 << bit)


def force_signed(value, width: int, bit: int, stuck: int):
    """Signed value whose ``width``-bit pattern has ``bit`` forced to ``stuck``.

    This is the stuck-at fault primitive: it models a register cell whose
    output line is tied to 0 or 1, applied at read time.
    """
    return wrap_signed(force_unsigned(value, width, bit, stuck), width)


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


def wrap_mul(a: Word, b: Word, out_width: int) -> Word:
    """Signed product, sign-extended and wrapped to ``out_width`` bits."""
    _require_same_width(a, b)
    if out_width < a.width:
        raise ValueError(
            f"product width {out_width} narrower than operand width {a.width}"
        )
    return Word.from_signed(a.signed * b.signed, out_width)


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
