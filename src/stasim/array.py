"""Cycle-level model of the sparse weight-stationary systolic tensor array.

The array is an R x C grid of tensor processing elements (TPEs).  Each TPE
holds one packed weight block stationary: n weight registers, n
position-index registers, an m-element activation register block that shifts
west to east one column per cycle, and an output register on the
north-to-south partial-sum chain.  Below the bottom row sits one
accumulator-and-adder per column; the self-test logic uses it to add golden
reference values onto the raw column sums.

Stuck-at faults are combinational forcing of a register's *read* value: the
stored bits stay intact, every consumer of the register sees the forced bit.
That makes injection idempotent and keeps fault effects strictly downstream
of the faulted site.

Timing model, with cycle 0 the first cycle of a stream: input row x is
presented to array row r at cycle ``x + r`` (the usual systolic skew), and the
finished column-j sum for input row x leaves the array at cycle ``x + R + j``.
A full stream of X input rows therefore takes ``X + R + C - 1`` cycles.
Registers are rewritten every cycle, so ``stream`` computes wave by wave, with
no clock loop, and waves never interact: the test-4 selection override can be
set per wave, which lets a whole self-test session run as one stream.  A pass
writes no register: ``step``, the one clocked model, latches what
``registers()`` reads back and is the reference the passes are tested against.

``stream_tiles`` streams a stack of packed tiles in one pass, tile t standing
in for the loaded weights, which is what the tiled driver runs on.  Campaigns
run on ``stream_faults``: on a fault-free array and the same kind of stack, it
derives every single fault's sums on every tile in closed form from one
fault-free pass.  Callers cut their input to ``per_pass`` tiles or
``per_step`` (fault, tile) pairs a call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from numbers import Integral
from typing import Iterable, Optional

import numpy as np

from stasim.arith import check_signed_range, wrap_signed
from stasim.sparsity import SparseWeightTile, check_entries, pack_tile

#: Elements a temporary may hold: the largest one a pass of the wave engine
#: builds for its tiles, waves x tiles x faults x cols in a ``stream_faults``
#: call.  ``per_pass`` and ``per_step`` size the passes and calls by it, which
#: bounds memory whatever the array size, fault count or layer size.
ELEMENT_BUDGET = 1 << 15


class RegClass(str, Enum):
    """The five faultable register classes."""

    ACTIVATION = "activation"
    WEIGHT = "weight"
    WEIGHT_INDEX = "weight_index"
    OUTPUT = "output"
    EDGE_ACCUMULATOR = "edge_accumulator"


#: Each class's code, its position in ``RegClass``: how fault tables name it.
CLASS_CODE = {cls: code for code, cls in enumerate(RegClass)}


@dataclass(frozen=True)
class RegSpec:
    """Shape and width of one register class's register file.

    ``shape`` is (rows, cols, elements).  Edge accumulators sit below the
    array as a single row, so theirs is (1, cols, 1).  Signed classes hold
    two's-complement words; unsigned ones (position indexes) bit patterns.
    """

    shape: tuple[int, int, int]
    width: int
    signed: bool

    @property
    def limits(self) -> tuple[int, int, int, int, int]:
        """Exclusive bounds of a fault's row, col, element, bit and stuck here."""
        return self.shape + (self.width, 2)


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry and datapath widths of one array instance.

    ``mode`` names the sparsity pattern as ``"<active>:<m>"``; slots past the
    active count still exist physically (and can be faulted) but are gated
    out of the products.  By default every one of the ``n`` slots is active.
    """

    rows: int = 8
    cols: int = 8
    m: int = 4
    n: int = 2
    data_width: int = 16
    acc_width: int = 32
    mode: str | None = None

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "m", "n", "data_width", "acc_width"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"ArrayConfig {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"array grid {self.rows}x{self.cols} must be at least 1x1")
        if not 1 <= self.n <= self.m:
            raise ValueError(f"need 1 <= n <= m, got n={self.n} m={self.m}")
        if not 2 <= self.data_width <= 30:
            raise ValueError(f"data width {self.data_width} outside supported 2..30")
        if not self.data_width <= self.acc_width <= 62:
            raise ValueError(
                f"accumulator width {self.acc_width} must be in "
                f"{self.data_width}..62"
            )
        if self.mode is None:
            object.__setattr__(self, "mode", f"{self.n}:{self.m}")
        parts = str(self.mode).split(":")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"mode must look like '2:4', got {self.mode!r}")
        active, mode_m = int(parts[0]), int(parts[1])
        if mode_m != self.m:
            raise ValueError(f"mode {self.mode!r} disagrees with block size m={self.m}")
        if not 1 <= active <= self.n:
            raise ValueError(
                f"mode {self.mode!r} asks for {active} active slots, "
                f"but TPEs have {self.n}"
            )

    @property
    def active_slots(self) -> int:
        return int(str(self.mode).split(":")[0])

    @property
    def index_width(self) -> int:
        """Bits per position-index register."""
        return max((self.m - 1).bit_length(), 1)

    @property
    def block_rows(self) -> int:
        """Dense weight rows one tile covers (rows * m)."""
        return self.rows * self.m

    @property
    def tile_shape(self) -> tuple[int, int]:
        return (self.block_rows, self.cols)

    @cached_property
    def reg_specs(self) -> dict[RegClass, RegSpec]:
        """Every faultable register class, in fault-enumeration order."""
        r, c = self.rows, self.cols
        return {
            RegClass.ACTIVATION: RegSpec((r, c, self.m), self.data_width, True),
            RegClass.WEIGHT: RegSpec((r, c, self.n), self.data_width, True),
            RegClass.WEIGHT_INDEX: RegSpec((r, c, self.n), self.index_width, False),
            RegClass.OUTPUT: RegSpec((r, c, 1), self.acc_width, True),
            RegClass.EDGE_ACCUMULATOR: RegSpec((1, c, 1), self.acc_width, True),
        }

    def per_pass(self, waves: int, masked=()) -> int:
        """Stacked tiles a pass of ``waves`` waves may carry, ``masked`` classes faulted.

        A tile costs the pass its largest temporary: the one-hot selections,
        rows x cols x n x m, or per wave the blocks every column reads under
        an activation fault (rows x cols x m), else the per-row sums an
        output fault cascades (rows x cols) or the west blocks and column
        sums (rows x m, cols).  At least one, whatever ``ELEMENT_BUDGET``
        allows.
        """
        r, c, m = self.rows, self.cols, self.m
        if RegClass.ACTIVATION in masked:
            per_wave = r * c * m
        elif RegClass.OUTPUT in masked:
            per_wave = r * max(c, m)
        else:
            per_wave = max(r * m, c)
        return max(1, ELEMENT_BUDGET // max(r * c * self.n * m, waves * per_wave))

    def per_step(self, waves: int) -> int:
        """(fault, tile) pairs a ``stream_faults`` call over ``waves`` waves may carry.

        At least one, whatever ``ELEMENT_BUDGET`` allows.
        """
        return max(1, ELEMENT_BUDGET // (max(waves, 1) * self.cols))

    def pack(self, dense) -> SparseWeightTile:
        """Prune and pack a dense weight matrix for this array.

        The active slots keep the ``active_slots`` largest magnitudes of each
        block (``pack_tile``'s rule); slots the mode gates hold (0, 0).
        """
        tile = pack_tile(dense, self.m, self.active_slots, self.data_width)
        if self.active_slots == self.n:
            return tile
        gated = ((0, 0), (0, 0), (0, self.n - self.active_slots))
        return SparseWeightTile(
            np.pad(tile.values, gated),
            np.pad(tile.indexes, gated),
            m=self.m,
            n=self.n,
            data_width=self.data_width,
        )

    def check_tile(self, tile: SparseWeightTile) -> None:
        """Reject a tile whose grid, packing or data width differs from ours."""
        if (tile.grid_rows, tile.grid_cols) != (self.rows, self.cols):
            raise ValueError(
                f"tile grid {tile.grid_rows}x{tile.grid_cols} does not match "
                f"array {self.rows}x{self.cols}"
            )
        if (tile.m, tile.n) != (self.m, self.n):
            raise ValueError(
                f"tile packing {tile.n}:{tile.m} does not match array "
                f"{self.n}:{self.m}"
            )
        if tile.data_width != self.data_width:
            raise ValueError(
                f"tile data width {tile.data_width} does not match array "
                f"{self.data_width}"
            )


@dataclass(frozen=True)
class FaultSite:
    """One stuck-at fault: a register cell whose read is tied to 0 or 1.

    ``element`` selects the register within its class at that TPE (activation
    element, weight slot, or index slot); output registers and edge
    accumulators have a single element, 0.  Edge accumulators sit below the
    array, so their ``row`` is fixed at 0 and only ``col`` selects one.
    """

    reg_class: RegClass
    row: int
    col: int
    element: int
    bit: int
    stuck: int

    def validate(self, config: ArrayConfig) -> None:
        """Reject a non-``RegClass`` class, or a field not an integer in its range."""
        cls = self.reg_class
        if not isinstance(cls, RegClass):
            raise ValueError(f"FaultSite reg_class must be a RegClass member, got {cls!r}")
        limits = config.reg_specs[cls].limits
        for name, limit in zip(("row", "col", "element", "bit", "stuck"), limits):
            value = getattr(self, name)
            # Plain ints skip the slower ``Integral`` check.
            if type(value) is not int and (
                not isinstance(value, Integral) or (isinstance(value, bool) and name != "stuck")
            ):
                raise ValueError(
                    f"FaultSite {name} must be an integer for {cls.value}, got {value!r}"
                )
            if not 0 <= value < limit:
                raise ValueError(f"{name} {value} outside 0..{limit - 1} for {cls.value}")

    def spec(self) -> str:
        """Compact ``class:row:col:element:bit:stuck`` form."""
        return (
            f"{self.reg_class.value}:{self.row}:{self.col}:"
            f"{self.element}:{self.bit}:{self.stuck}"
        )


def _masked(masks, cls: RegClass, values: np.ndarray, at=...) -> np.ndarray:
    """``values`` read as if latched in cells ``at`` of ``cls``, through ``masks``.

    ``masks`` maps faulted classes to (and_mask, or_mask) pairs shaped like
    the register file; ``at`` indexes the trailing (rows, cols, elements)
    dimensions.  Data and accumulator registers hold signed words;
    position-index registers hold unsigned patterns, so a forced index can
    point past the block (selecting nothing) but never goes negative.
    """
    pair = masks.get(cls)
    if pair is None:
        return values
    and_mask, or_mask = pair
    return (values & and_mask[at]) | or_mask[at]


def _element_weights(weights: np.ndarray, sel: np.ndarray, m: int) -> np.ndarray:
    """Per-element weights (..., m) of active slots' ``weights`` and selections ``sel`` (..., k).

    Each element's weight is the sum of the weights of the slots that select
    it, so one product per element covers every slot; a selection past the
    block matches no element.  That sum is one integer ``np.matmul``: the
    weights as (..., 1, k) times the one-hot selections (..., k, m).
    """
    return np.matmul(weights[..., None, :], sel[..., None] == np.arange(m))[..., 0, :]


def stuck_words(width: int, signed: bool, bit, stuck):
    """The (and, or) words that tie ``bit`` of a register's reads to ``stuck``.

    ``width`` and ``signed`` are one register class's; ``bit`` and ``stuck``
    are plain ints or integer arrays alike, as ``wrap_signed``'s values are.
    A signed register's sign bit drives its sign extension too, so a stuck
    sign bit forces every bit from ``width - 1`` up: its word is -1 << bit.
    """
    bits = (1 - 2 * (signed and bit == width - 1)) << bit
    forced = bits * stuck
    return ~(bits - forced), forced


def _outside(config: ArrayConfig, fields: np.ndarray) -> np.ndarray:
    """Mask (faults, 5) of an int64 (faults, 6) table's fields outside ``config``'s limits."""
    # A class code past the last reads limits of 0, which every field exceeds.
    limits = np.array([spec.limits for spec in config.reg_specs.values()] + [(0,) * 5], np.uint64)
    unsigned = fields.view(np.uint64)  # read unsigned, a negative field exceeds every limit
    code = np.minimum(unsigned[:, 0], len(limits) - 1)
    return unsigned[:, 1:] >= limits.take(code, axis=0)


def fault_sites(config: ArrayConfig, faults: Optional[Iterable[FaultSite]] = None) -> np.ndarray:
    """The (faults, 6) table of single faults that ``TensorArray.stream_faults`` takes.

    Row f is fault f's own fields as ints: its ``CLASS_CODE``, row, col,
    element, bit and stuck; ``stuck_words`` makes the words where they are
    applied.  ``faults=None`` is every fault of ``config`` in
    ``enumerate_faults`` order, made without ``FaultSite`` objects.  Given
    faults, read once, are checked as arrays, or by ``FaultSite.validate``
    (naming a bad field) if not all plain ints in range.
    """
    if faults is None:
        return np.concatenate([
            np.insert(np.indices(spec.limits).reshape(5, -1), 0, code, 0).T
            for code, spec in enumerate(config.reg_specs.values())
        ])
    faults = list(faults)  # both checks read it, a one-shot iterable too
    cells = [v for f in faults for v in (f.reg_class, f.row, f.col, f.element, f.bit, f.stuck)]
    classes = cells[::6]
    plain = set(map(type, classes)) <= {RegClass} and set(map(type, cells)) <= {RegClass, int}
    if plain:
        cells[::6] = [CLASS_CODE[c] for c in classes]
        try:
            fields = np.fromiter(cells, np.int64, len(cells)).reshape(-1, 6)
        except (OverflowError, ValueError):  # an int past int64, or a class for a field
            plain = False
    if not plain or _outside(config, fields).any():
        for fault in faults:  # names the first bad field, or passes them all
            fault.validate(config)
        # All valid, so the other types are NumPy integers or a bool polarity.
        cells[::6] = [CLASS_CODE[c] for c in classes]
        fields = np.array(cells, np.int64).reshape(-1, 6)
    return fields


class TensorArray:
    """Mutable state machine for one array instance.

    Not thread-safe: use one instance per thread.
    """

    def __init__(self, config: ArrayConfig):
        self.config = config
        r, c, m, n = config.rows, config.cols, config.m, config.n
        # Stored register files, one (rows, cols, elements) array per TPE
        # class.  Edge accumulators only pass sums on, so they store nothing.
        self._regs = {
            cls: np.zeros(spec.shape, dtype=np.int64)
            for cls, spec in config.reg_specs.items()
            if cls is not RegClass.EDGE_ACCUMULATOR
        }
        # Selection pattern the self-test override forces: column j picks
        # activation element j mod m, in every slot of every row.
        pattern = (np.arange(c, dtype=np.int64) % m)[None, :, None]
        self._forced_sel = np.broadcast_to(pattern, (r, c, n)).copy()
        # Per faulted class, (and_mask, or_mask) applied on every read: the
        # injected faults are these masks and nothing else.
        self._masks: dict[RegClass, tuple[np.ndarray, np.ndarray]] = {}
        self.weights_loaded = False

    # -- fault management -------------------------------------------------

    def inject(self, fault: FaultSite) -> None:
        """Add a stuck-at fault; a bit cannot be stuck at both polarities."""
        fault.validate(self.config)
        spec = self.config.reg_specs[fault.reg_class]
        if fault.reg_class not in self._masks:
            shape = spec.shape
            self._masks[fault.reg_class] = np.full(shape, -1, np.int64), np.zeros(shape, np.int64)
        and_mask, or_mask = self._masks[fault.reg_class]
        # Plain ints: a NumPy bit of a narrow dtype would shift past its width.
        and_bits, or_bits = stuck_words(spec.width, spec.signed, int(fault.bit), int(fault.stuck))
        cell = (fault.row, fault.col, fault.element)
        # A bit the masks already force the other way is the opposite fault.
        if (~and_mask[cell] & or_bits) | (or_mask[cell] & ~and_bits):
            opposite = replace(fault, stuck=1 - fault.stuck)
            raise ValueError(
                f"fault {fault.spec()} conflicts with {opposite.spec()}: "
                "one bit cannot be stuck at 0 and at 1"
            )
        and_mask[cell] &= and_bits
        or_mask[cell] |= or_bits

    def clear_faults(self) -> None:
        self._masks.clear()

    def _read(self, cls: RegClass) -> np.ndarray:
        """Register-file read: stored bits through the injected faults' masks."""
        return _masked(self._masks, cls, self._regs[cls])

    # -- weight loading ----------------------------------------------------

    def load_weights(self, tile: SparseWeightTile) -> None:
        """Shift a packed tile into the weight and index registers.

        Loading runs column-parallel, one grid row per cycle, so ``CycleStats``
        charges ``rows`` cycles.  Output and activation registers are cleared.
        """
        self.config.check_tile(tile)
        self._regs[RegClass.WEIGHT][:] = tile.values
        self._regs[RegClass.WEIGHT_INDEX][:] = tile.indexes
        for cls in (RegClass.ACTIVATION, RegClass.OUTPUT):
            self._regs[cls][:] = 0
        self.weights_loaded = True

    # -- datapath ----------------------------------------------------------

    def _multiply(
        self, masks, regs, act: np.ndarray, test4_mask, alike=False, fold=False
    ) -> np.ndarray:
        """Multiply phase on read activation blocks ``act`` (..., rows, cols, m).

        ``regs`` is a (weights, indexes) pair of register files, (rows, cols,
        n) or a (tiles, rows, cols, n) stack, read through ``masks``.  Each
        active slot multiplies its weight by the element its index register
        (or the test-4 forced pattern) selects; an index past the block
        selects nothing.  ``test4_mask`` is one flag or one per wave, since
        waves never interact: the stored selection serves every wave, then
        the forced one recomputes the flagged waves alone.  Returns the
        per-TPE sums, (..., rows, cols), or with ``fold`` their sums over
        rows, (..., cols).

        With ``alike``, ``act`` is (waves, ..., rows, m): every column of a
        row reads the same block, so one integer ``np.matmul`` per selection
        contracts each wave's blocks, as rows*m elements (m per row without
        ``fold``), with its tile's per-element weights, as (rows*m, cols)
        (per row (m, cols)): per tile, a (waves, rows*m) @ (rows*m, cols)
        product.  ``step``
        and passes with activation faults take the ``einsum`` form, which
        keeps the stepper a reference independent of the matmul one.
        """
        cfg = self.config
        k = cfg.active_slots
        weight_file, index_file = regs
        weights = _masked(masks, RegClass.WEIGHT, weight_file)[..., :k]
        stored = _masked(masks, RegClass.WEIGHT_INDEX, index_file)
        # Rows one matmul contracts together: all of them, or one each.
        groups = 1 if fold else cfg.rows
        depth = cfg.rows * cfg.m // groups

        def contract(sel, waves=...):  # integer matmul and einsum wrap alike
            per_element = _element_weights(weights, sel[..., :k], cfg.m)
            blocks = act[waves]
            if not alike:  # the einsum builds no product temporary
                subscripts = "...rcm,...rcm->...c" if fold else "...m,...m->..."
                return np.einsum(subscripts, blocks, per_element)
            blocks = blocks.reshape(blocks.shape[:-2] + (groups, 1, depth))
            per_element = per_element.swapaxes(-1, -2).reshape(
                per_element.shape[:-3] + (groups, depth, cfg.cols)
            )
            out = np.matmul(blocks, per_element)[..., 0, :]
            return out[..., 0, :] if fold else out

        flags = np.asarray(test4_mask)
        if flags.all():
            return contract(self._forced_sel)
        out = contract(stored)
        if flags.any():  # per-wave flags that differ
            out[flags] = contract(self._forced_sel, flags)
        return out

    def step(self, west_inputs=None, north_sums=None, test4_mask: bool = False):
        """Advance one clock cycle; returns the previous cycle's south outputs.

        ``west_inputs`` is an (rows, m) block per array row (None feeds a
        zero bubble), ``north_sums`` the per-column value presented to row
        0's partial-sum input.  With ``test4_mask`` set, the gating in front
        of the multiplexers overrides every index register and selects
        activation element ``col mod m`` everywhere, so index-register faults
        cannot influence the cycle.
        """
        if not self.weights_loaded:
            raise RuntimeError("weights must be loaded before stepping the array")
        cfg = self.config
        r, c, m = cfg.rows, cfg.cols, cfg.m
        if west_inputs is None:
            west = np.zeros((r, m), dtype=np.int64)
        else:
            west = wrap_signed(
                np.asarray(west_inputs, dtype=np.int64), cfg.data_width
            )
            if west.shape != (r, m):
                raise ValueError(f"west inputs must have shape {(r, m)}, got {west.shape}")
        if north_sums is None:
            north = np.zeros(c, dtype=np.int64)
        else:
            north = wrap_signed(np.asarray(north_sums, dtype=np.int64), cfg.acc_width)
            if north.shape != (c,):
                raise ValueError(f"north sums must have shape {(c,)}, got {north.shape}")

        # Activation blocks shift one TPE eastward; each hop reads the west
        # neighbour's registers, so that neighbour's stuck bits travel along.
        propagated = self._read(RegClass.ACTIVATION)
        new_act = np.empty_like(propagated)
        new_act[:, 1:, :] = propagated[:, :-1, :]
        new_act[:, 0, :] = west
        self._regs[RegClass.ACTIVATION] = new_act

        contrib = self._multiply(
            self._masks, self._loaded(), self._read(RegClass.ACTIVATION), test4_mask
        )

        # Accumulate phase: add the north neighbour's previous-cycle output
        # (or the north port for row 0) and latch.
        out_read = self._read(RegClass.OUTPUT)[..., 0]
        north_in = np.empty((r, c), dtype=np.int64)
        north_in[0] = north
        north_in[1:] = out_read[:-1]
        south = out_read[-1].copy()
        latched = wrap_signed(north_in + contrib, cfg.acc_width)
        self._regs[RegClass.OUTPUT] = latched[..., None]
        return south

    def _loaded(self) -> tuple[np.ndarray, np.ndarray]:
        """The loaded (weights, indexes) register files, for the wave engine."""
        if not self.weights_loaded:
            raise RuntimeError("weights must be loaded before streaming through the array")
        return self._regs[RegClass.WEIGHT], self._regs[RegClass.WEIGHT_INDEX]

    def _wave_inputs(self, blocks, north_values, test4_mask, lead=()):
        """Wrapped (west blocks, north values, test-4 flags) per wave, for the engine.

        ``blocks`` is (X, *lead, rows, m); wave x carries input row x.
        """
        cfg = self.config
        blocks = np.asarray(blocks, dtype=np.int64)
        want = (*lead, cfg.rows, cfg.m)
        if blocks.ndim != 1 + len(want) or blocks.shape[1:] != want:
            raise ValueError(
                f"blocks must have shape (X, {', '.join(map(str, want))}), got {blocks.shape}"
            )
        x_rows = blocks.shape[0]
        if north_values is None:
            norths = np.zeros(x_rows, dtype=np.int64)
        else:
            norths = np.asarray(north_values, dtype=np.int64)
            if norths.shape != (x_rows,):
                raise ValueError(f"need one north value per input row, got {norths.shape}")
        flags = np.asarray(test4_mask, dtype=bool)
        if flags.ndim and flags.shape != (x_rows,):
            raise ValueError(f"need one test-4 flag per input row, got {flags.shape}")
        act, psum = wrap_signed(blocks, cfg.data_width), wrap_signed(norths, cfg.acc_width)
        return act, psum[:, None], flags

    def _wavefront(self, masks, regs, act: np.ndarray, psum: np.ndarray, test4_mask):
        """The wave engine: every wave of a skewed stream, with no clock loop.

        Wave x meets TPE (r, c) at cycle x + r + c, and registers are
        rewritten every cycle, so a stuck bit only touches the waves passing
        through it.  ``act`` (waves, ..., rows, m) holds the west blocks,
        ``psum`` (waves, ..., 1) the north values and ``regs`` the (weights,
        indexes) register files, (rows, cols, n) or stacked as (tiles, rows,
        cols, n); ``masks`` are read as ``_masked`` reads them.  An axis of
        size 1 after the waves spreads to the tile axis of stacked
        registers.  Returns the south sums; no register is written.

        The column and row loops run only for a masked class.  Without an
        activation mask every column reads the west block, which
        ``_multiply`` contracts by matmul; without an output mask the
        cascade adds modulo 2**acc_width, so ``_multiply`` folds the sum
        over rows into its contraction and one wrap ends the pass.
        """
        cfg = self.config
        fold = RegClass.OUTPUT not in masks
        if RegClass.ACTIVATION in masks:
            for j in range(cfg.cols):
                # The hop east reads this column's register, stuck bits included.
                act = _masked(masks, RegClass.ACTIVATION, act, np.s_[..., j, :])
                if j == 0:  # the first read fixes the tile axis
                    seen = np.empty(act.shape[:-1] + (cfg.cols, cfg.m), dtype=np.int64)
                seen[..., j, :] = act
            contrib = self._multiply(masks, regs, seen, test4_mask, fold=fold)
        else:
            contrib = self._multiply(masks, regs, act, test4_mask, alike=True, fold=fold)
        if fold:
            return wrap_signed(psum + contrib, cfg.acc_width)

        # Partial sums cascade south; the row below reads each row's output
        # register, stuck bits included.
        for i in range(cfg.rows):
            psum = wrap_signed(psum + contrib[..., i, :], cfg.acc_width)
            psum = _masked(masks, RegClass.OUTPUT, psum, np.s_[..., i, :, 0])
        return psum

    def stream(self, blocks, north_values=None, test4_mask=False):
        """Feed X input rows with systolic skew and collect finished sums.

        ``blocks`` has shape (X, rows, m): the per-array-row activation block
        of each input row.  ``north_values[x]`` rides along with input row x
        and reaches each column's north port exactly when that row's wave
        arrives there.  ``test4_mask`` is one flag or one per row.  Returns
        (results, cycles) where results[x, j] is the column-j sum for input
        row x and cycles == X + rows + cols - 1.  The pass writes no
        register: ``step`` is the clocked model.
        """
        cfg = self.config
        act, psum, flags = self._wave_inputs(blocks, north_values, test4_mask)
        south = self._wavefront(self._masks, self._loaded(), act, psum, flags)
        return south, len(south) + cfg.rows + cfg.cols - 1

    def _tile_stack(self, values, indexes) -> tuple[np.ndarray, np.ndarray]:
        """(tiles, rows, cols, n) value and index stacks as int64, checked.

        Entries are checked as ``SparseWeightTile`` checks a tile's.
        """
        cfg = self.config
        regs = np.asarray(values), np.asarray(indexes)
        for name, part in zip(("values", "indexes"), regs):
            if part.ndim != 4 or part.shape[1:] != (cfg.rows, cfg.cols, cfg.n):
                raise ValueError(
                    f"tile {name} must have shape (tiles, {cfg.rows}, {cfg.cols}, "
                    f"{cfg.n}), got {part.shape}"
                )
        if regs[0].shape != regs[1].shape:
            raise ValueError(f"{len(regs[0])} tile values for {len(regs[1])} tile indexes")
        check_entries(*regs, cfg.m, cfg.data_width)
        return regs[0].astype(np.int64, copy=False), regs[1].astype(np.int64, copy=False)

    def stream_tiles(
        self, values, indexes, blocks, north_values=None, test4_mask=False
    ) -> np.ndarray:
        """``stream`` once per tile of a stack, in one pass of the wave engine.

        ``values`` and ``indexes`` are (tiles, rows, cols, n) stacks of
        packed tiles, as ``ArrayConfig.pack`` packs them; tile t stands in
        for the loaded weight and index registers and is read through the
        faults injected into this array.  ``blocks`` is (X, tiles, rows, m),
        tile t's own input rows; north values and test-4 flags are shared.
        Returns results of shape (X, tiles, cols), where results[:, t] is
        what ``stream`` returns with tile t loaded; no tile need be loaded.
        Entries are checked as ``SparseWeightTile`` checks a tile's.
        """
        regs = self._tile_stack(values, indexes)
        act, psum, flags = self._wave_inputs(
            blocks, north_values, test4_mask, lead=regs[0].shape[:1]
        )
        return self._wavefront(self._masks, regs, act, psum[:, None], flags)

    def _fault_table(self, sites) -> np.ndarray:
        """A ``fault_sites`` table whose faults all lie in this array, as int64.

        A table built for another array then names the same faults here: a
        row whose class code, row, col, element, bit or stuck this array
        lacks fails with a ``ValueError`` naming the row and field.
        """
        sites = np.asarray(sites)
        if sites.ndim != 2 or sites.shape[1] != 6 or sites.dtype.kind not in "iu":
            raise ValueError(
                f"fault table must be (faults, 6) integers, got shape {sites.shape} "
                f"of dtype {sites.dtype}"
            )
        sites = sites.astype(np.int64, copy=False)
        outside = _outside(self.config, sites)
        if outside.any():
            f = int(outside.any(axis=1).argmax())
            code, *fields = map(int, sites[f])
            if not 0 <= code < len(RegClass):
                raise ValueError(
                    f"fault table row {f}: class code {code} outside 0..{len(RegClass) - 1}"
                )
            try:
                FaultSite(list(RegClass)[code], *fields).validate(self.config)
            except ValueError as err:
                raise ValueError(f"fault table row {f}: {err}") from None
        return sites

    def stream_faults(
        self, values, indexes, sites, blocks, north_values=None, test4_mask=False
    ):
        """``stream_tiles`` fault-free and once per fault of a ``fault_sites`` table.

        The tile stacks, blocks, north values and test-4 flags are
        ``stream_tiles``'s.  Returns clean (X, tiles, cols) and sums (X,
        tiles, faults, cols), where sums[:, t, f] is ``stream`` with tile t
        loaded and fault f alone injected; no tile need be loaded.  Below a
        faulted cell the datapath only adds modulo 2**acc_width, so the
        fault-free per-element weights PE and row prefix sums P give each
        sum: an activation fault adds (a' - a) * PE from its column east; a
        weight or index fault on an active slot, its product's change (an
        index not on test-4 waves, one past the block selecting 0); an
        output fault at row r gives mask(P[r]) + P[last] - P[r]; an edge
        fault, nothing.  The array must hold no injected fault: several
        faults at once stay on the wave engine.  Every field of the table
        must lie in this array (``ValueError`` naming the first row and field
        that do not), and ``stuck_words`` makes each fault's words from this
        array's ``reg_specs``.  Callers cut their work into calls of
        ``ArrayConfig.per_step`` (fault, tile) pairs.
        """
        if self._masks:
            raise ValueError("stream_faults needs an array without injected faults")
        cfg = self.config
        values, indexes = self._tile_stack(values, indexes)
        sites = self._fault_table(sites)
        act, psum, flags = self._wave_inputs(
            blocks, north_values, test4_mask, lead=values.shape[:1]
        )
        x_rows, k, m = len(act), cfg.active_slots, cfg.m
        # The selections, without and with the test-4 override, and their
        # per-element weights: (tiles, rows, cols, n) and (tiles, rows, m,
        # cols) when every wave uses one, else one per wave in front.
        forced = np.broadcast_to(flags, (x_rows,))
        per_wave = 0 < np.count_nonzero(forced) < x_rows
        sel = np.stack([indexes, np.broadcast_to(self._forced_sel, indexes.shape)])
        sel = sel if per_wave else sel[int(forced.any())]
        pe = _element_weights(values[..., :k], sel[..., :k], m).swapaxes(-1, -2)
        if per_wave:
            pick = forced.astype(np.intp)
            sel, pe = sel[pick], pe[pick]
        # Each TPE's products (X, tiles, rows, cols): a block (1, m) times
        # its wave's per-element weights (m, cols) by integer ``np.matmul``.
        products = np.matmul(act[..., None, :], pe)[..., 0, :]
        clean = wrap_signed(psum[..., None] + products.sum(axis=2), cfg.acc_width)
        waves, at = np.arange(x_rows)[:, None, None], np.arange(len(values))[:, None]

        code, row, col, element, bit, stuck = sites.T

        def read(spec, words, ids):  # (..., faults) words through faults ``ids``' stuck bits
            and_bits, or_bits = stuck_words(spec.width, spec.signed, bit[ids], stuck[ids])
            return (words & and_bits) | or_bits

        def picked(r, chosen):  # (X, tiles, faults) elements chosen, one past m picking 0
            return np.where(chosen < m, act[waves, at, r, np.minimum(chosen, m - 1)], 0)

        sums = np.repeat(clean[:, :, None], len(sites), axis=2)
        for cls, spec in list(cfg.reg_specs.items())[:-1]:  # an edge fault changes no sum
            ids = np.flatnonzero(code == CLASS_CODE[cls])
            if cls in (RegClass.WEIGHT, RegClass.WEIGHT_INDEX):
                ids = ids[element[ids] < k]  # a gated slot changes nothing
            if not len(ids):
                continue
            r, c, e = row[ids], col[ids], element[ids]
            if cls is RegClass.ACTIVATION:
                before, spread = act[:, :, r, e], np.arange(cfg.cols) >= c[:, None]
                delta = (read(spec, before, ids) - before)[..., None] * spread * pe[..., r, e, :]
                c = slice(None)  # every column, the ones west of the fault adding 0
                if ids[-1] - ids[0] == len(ids) - 1:  # a class-ordered table: whole rows
                    ids = slice(ids[0], ids[-1] + 1)  # update faster by slice
            elif cls is RegClass.OUTPUT:  # the row prefix sums P[r]
                before = psum[..., None] + np.cumsum(products, axis=2)[:, :, r, c]
                before = wrap_signed(before, cfg.acc_width)
                delta = read(spec, before, ids) - before
            else:
                weight, chosen = values[:, r, c, e], sel[..., r, c, e]
                if cls is RegClass.WEIGHT:
                    delta = (read(spec, weight, ids) - weight) * picked(r, chosen)
                else:
                    after = np.where(forced[:, None, None], chosen, read(spec, chosen, ids))
                    delta = weight * (picked(r, after) - picked(r, chosen))
            sums[:, :, ids, c] += delta
        return clean, wrap_signed(sums, cfg.acc_width)

    def run_compute(self, a):
        """Stream the rows of ``a`` (X x rows*m) through the loaded weights.

        Returns (results, cycles): results is the X x cols product of ``a``
        with the pruned dense weights, computed wave by wave through the
        array's (possibly faulty) registers; cycles is X + rows + cols - 1.
        Activations that are not integers in the signed ``data_width`` range
        are rejected.
        """
        cfg = self.config
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[1] != cfg.block_rows:
            raise ValueError(
                f"activation matrix must be (X, {cfg.block_rows}), got {a.shape}"
            )
        check_signed_range("activation", a, cfg.data_width)
        blocks = a.reshape(a.shape[0], cfg.rows, cfg.m)
        return self.stream(blocks)

    # -- south edge and read-back ------------------------------------------

    def edge_compare(self, raw_sums, golden) -> np.ndarray:
        """Pass raw column sums through the edge accumulators and add goldens.

        This is the comparison step of the self-test: the returned values are
        what the detection logic inspects, and they pass through the (possibly
        faulty) edge accumulator register of each column.  Sums come as one
        row, one row per test, or one per test and stacked tile.
        """
        cfg = self.config
        raw = np.asarray(raw_sums, dtype=np.int64)
        shape_ok = raw.ndim in (1, 2, 3) and raw.size and raw.shape[-1] == cfg.cols
        if not shape_ok or np.shape(golden) != raw.shape:
            raise ValueError(f"edge comparison needs {cfg.cols} values per side and test")
        acc = cfg.acc_width
        raw = wrap_signed(raw, acc)
        edge = _masked(self._masks, RegClass.EDGE_ACCUMULATOR, raw, np.s_[..., 0, :, 0])
        return wrap_signed(edge + wrap_signed(np.asarray(golden, dtype=np.int64), acc), acc)

    def registers(self) -> dict[RegClass, np.ndarray]:
        """Read-back of every stored register file, as the datapath sees it.

        One (rows, cols, elements) copy per class, read through the injected
        faults: position indexes as unsigned patterns, the other classes as
        signed words.  Edge accumulators store nothing, so they are absent.
        """
        return {cls: self._read(cls).copy() for cls in self._regs}
