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
set per wave, which lets a whole self-test session run as one stream.
``step`` advances one cycle and is the reference it is tested against.

The same wave engine carries an optional axis after the waves, in one of two
uses.  ``stream_lanes`` evaluates a batch of single faults in one pass, lane l
seeing only fault l (parallel-pattern single-fault propagation), which is what
campaigns run on.  ``stream_tiles`` streams a stack of packed tiles in one
pass, tile t standing in for the loaded weights, which is what the tiled
driver runs on.  ``LANE_BUDGET`` bounds how many lanes or tiles share a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from stasim.arith import check_signed_range, wrap_signed
from stasim.sparsity import SparseWeightTile, pack_tile

#: Elements (lanes or tiles x waves x rows x cols x m) one pass of the wave
#: engine may hold in each of its temporaries.  It sets how many fault lanes
#: or stacked tiles share a pass, and so bounds memory whatever the array
#: size, fault count or layer size.
LANE_BUDGET = 1 << 15


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

    def per_pass(self, waves: int) -> int:
        """Fault lanes or stacked tiles a pass of ``waves`` waves may carry.

        At least one, whatever ``LANE_BUDGET`` allows.
        """
        return max(1, LANE_BUDGET // (max(waves, 1) * self.rows * self.cols * self.m))

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
        if self.stuck not in (0, 1):
            raise ValueError(f"stuck polarity must be 0 or 1, got {self.stuck}")
        spec = config.reg_specs[self.reg_class]
        for name, value, limit in zip(
            ("row", "col", "element", "bit"),
            (self.row, self.col, self.element, self.bit),
            spec.shape + (spec.width,),
        ):
            if not 0 <= value < limit:
                raise ValueError(
                    f"{name} {value} outside 0..{limit - 1} "
                    f"for {self.reg_class.value}"
                )

    def mask_bits(self, config: ArrayConfig) -> tuple[int, int]:
        """The (and, or) words this fault applies to its register's reads.

        A signed register's sign bit drives its sign extension too, so a
        stuck sign bit forces every bit from width-1 upward.
        """
        spec = config.reg_specs[self.reg_class]
        if spec.signed and self.bit == spec.width - 1:
            bits = -(1 << self.bit)
        else:
            bits = 1 << self.bit
        return (-1, bits) if self.stuck else (~bits, 0)

    def spec(self) -> str:
        """Compact ``class:row:col:element:bit:stuck`` form."""
        return (
            f"{self.reg_class.value}:{self.row}:{self.col}:"
            f"{self.element}:{self.bit}:{self.stuck}"
        )


def _identity_masks(shape) -> tuple[np.ndarray, np.ndarray]:
    return np.full(shape, -1, dtype=np.int64), np.zeros(shape, dtype=np.int64)


def _masked(masks, cls: RegClass, values: np.ndarray, at=...) -> np.ndarray:
    """``values`` read as if latched in cells ``at`` of ``cls``, through ``masks``.

    ``masks`` maps faulted classes to (and_mask, or_mask) pairs shaped like
    the register file, optionally with a leading lane axis; ``at`` indexes
    the trailing (rows, cols, elements) dimensions.  Data and accumulator
    registers hold signed words; position-index registers hold unsigned
    patterns, so a forced index can point past the block (selecting
    nothing) but never goes negative.
    """
    pair = masks.get(cls)
    if pair is None:
        return values
    and_mask, or_mask = pair
    return (values & and_mask[at]) | or_mask[at]


class FaultLanes:
    """A batch of single-fault lanes for the wave engine.

    Lane l carries exactly ``faults[l]``, validated once and kept as row l of
    ``sites``: ``CLASS_CODE``, row, col, element and
    ``FaultSite.mask_bits``; ``take`` cuts sub-batches.  ``masks`` maps each
    faulted class to (and_mask, or_mask) arrays shaped (count, *spec.shape),
    the identity in every other lane; unfaulted classes are absent.
    """

    def __init__(self, config: ArrayConfig, faults: Sequence[FaultSite]):
        sites = []
        for fault in faults:
            fault.validate(config)
            cell = (CLASS_CODE[fault.reg_class], fault.row, fault.col, fault.element)
            sites.append(cell + fault.mask_bits(config))
        self.config, self.count = config, len(faults)
        self.sites = np.array(sites, dtype=np.int64).reshape(-1, 6)

    def take(self, lanes) -> "FaultLanes":
        """The lanes at positions ``lanes`` of this batch, in that order."""
        part = FaultLanes(self.config, ())
        part.sites, part.count = self.sites[lanes], len(lanes)
        return part

    @cached_property
    def masks(self) -> dict[RegClass, tuple[np.ndarray, np.ndarray]]:
        masks = {}
        for cls, code in CLASS_CODE.items():
            (lanes,) = np.nonzero(self.sites[:, 0] == code)
            if len(lanes):
                _, *cell, and_bits, or_bits = self.sites[lanes].T
                shape = (self.count,) + self.config.reg_specs[cls].shape
                and_mask, or_mask = masks[cls] = _identity_masks(shape)
                and_mask[(lanes, *cell)], or_mask[(lanes, *cell)] = and_bits, or_bits
        return masks


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
        self.cycles = 0

    # -- fault management -------------------------------------------------

    def inject(self, fault: FaultSite) -> None:
        """Add a stuck-at fault; a bit cannot be stuck at both polarities."""
        fault.validate(self.config)
        if fault.reg_class not in self._masks:
            shape = self.config.reg_specs[fault.reg_class].shape
            self._masks[fault.reg_class] = _identity_masks(shape)
        and_mask, or_mask = self._masks[fault.reg_class]
        and_bits, or_bits = fault.mask_bits(self.config)
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

        Loading runs column-parallel, one grid row per cycle, so it costs
        ``rows`` cycles.  Output and activation registers are cleared.
        """
        cfg = self.config
        cfg.check_tile(tile)
        self._regs[RegClass.WEIGHT][:] = tile.values
        self._regs[RegClass.WEIGHT_INDEX][:] = tile.indexes
        for cls in (RegClass.ACTIVATION, RegClass.OUTPUT):
            self._regs[cls][:] = 0
        self.weights_loaded = True
        self.cycles += cfg.rows

    # -- datapath ----------------------------------------------------------

    def _multiply(self, masks, regs, act: np.ndarray, test4_mask) -> np.ndarray:
        """Multiply phase on read activation blocks ``act`` (..., rows, cols, m).

        ``regs`` is a (weights, indexes) pair of register files, (rows, cols,
        n) or a (tiles, rows, cols, n) stack, read through ``masks``.  Each
        active slot multiplies its weight by the element its index register
        (or the test-4 forced pattern) selects; an index past the block
        selects nothing.  ``test4_mask`` is one flag or one per wave, since
        waves never interact.  Returns the per-TPE sums.
        """
        cfg = self.config
        k = cfg.active_slots
        weight_file, index_file = regs
        weights = _masked(masks, RegClass.WEIGHT, weight_file)[..., :k, None]

        def element_weights(sel):
            # Each element's weight is the sum of the weights of the slots
            # that select it, so one product per element covers every slot.
            return (weights * (sel[..., :k, None] == np.arange(cfg.m))).sum(axis=-2)

        flags = np.asarray(test4_mask)
        stored = _masked(masks, RegClass.WEIGHT_INDEX, index_file)
        per_element = element_weights(self._forced_sel if flags.all() else stored)
        if flags.any() and not flags.all():  # per-wave flags that differ
            per_wave = flags.reshape(flags.shape + (1,) * (act.ndim - 1))
            per_element = np.where(per_wave, element_weights(self._forced_sel), per_element)
        # Integer einsum wraps like ``(act * per_element).sum(-1)`` but
        # builds no product temporary.
        return np.einsum("...m,...m->...", act, per_element)

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
        self.cycles += 1
        return south

    def _loaded(self) -> tuple[np.ndarray, np.ndarray]:
        """The loaded (weights, indexes) register files, for the wave engine."""
        if not self.weights_loaded:
            raise RuntimeError("weights must be loaded before streaming through the array")
        return self._regs[RegClass.WEIGHT], self._regs[RegClass.WEIGHT_INDEX]

    def _wave_inputs(self, blocks, north_values, test4_mask, bubbles: int, lead=()):
        """Wrapped (west blocks, north values, test-4 flags) per wave, for the engine.

        ``blocks`` is (X, *lead, rows, m).  The stream's X waves come first,
        then ``bubbles`` zero waves, which keep the last row's test-4 flag:
        the override holds while it drains.
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
        if flags.ndim:
            if flags.shape != (x_rows,):
                raise ValueError(f"need one test-4 flag per input row, got {flags.shape}")
            flags = np.append(flags, np.full(bubbles, x_rows > 0 and flags[-1]))

        waves = x_rows + bubbles
        act = np.zeros((waves,) + want, dtype=np.int64)
        act[:x_rows] = wrap_signed(blocks, cfg.data_width)
        psum = np.zeros((waves, cfg.cols), dtype=np.int64)
        psum[:x_rows] = wrap_signed(norths, cfg.acc_width)[:, None]
        return act, psum, flags

    def _wavefront(self, masks, regs, act: np.ndarray, psum: np.ndarray, test4_mask):
        """The wave engine: every wave of a skewed stream, with no clock loop.

        Wave x meets TPE (r, c) at cycle x + r + c, and registers are
        rewritten every cycle, so a stuck bit only touches the waves passing
        through it.  ``act`` (waves, ..., rows, m) holds the west blocks,
        ``psum`` (waves, ..., cols) the north values and ``regs`` the
        (weights, indexes) register files, (rows, cols, n) or stacked as
        (tiles, rows, cols, n); ``masks`` are read as ``_masked`` reads them.
        An axis of size 1 after the waves spreads to the masks' lane axis, or
        to the tile axis of stacked registers.  Returns (south sums, the
        activation blocks each column read, and per row the last wave's
        latched partial sums with a wave axis of 1).
        """
        cfg = self.config
        latched_out = []
        for j in range(cfg.cols):
            # The hop east reads this column's register, stuck bits included.
            act = _masked(masks, RegClass.ACTIVATION, act, np.s_[..., j, :])
            if j == 0:  # the first read fixes the lane axis
                seen = np.empty(act.shape[:-1] + (cfg.cols, cfg.m), dtype=np.int64)
            seen[..., j, :] = act
        contrib = self._multiply(masks, regs, seen, test4_mask)

        # Partial sums cascade south; the row below reads each row's output
        # register, stuck bits included.
        for i in range(cfg.rows):
            psum = wrap_signed(psum + contrib[..., i, :], cfg.acc_width)
            latched_out.append(psum[-1:])
            psum = _masked(masks, RegClass.OUTPUT, psum, np.s_[..., i, :, 0])
        return psum, seen, latched_out

    def stream(self, blocks, north_values=None, test4_mask=False):
        """Feed X input rows with systolic skew and collect finished sums.

        ``blocks`` has shape (X, rows, m): the per-array-row activation block
        of each input row.  ``north_values[x]`` rides along with input row x
        and reaches each column's north port exactly when that row's wave
        arrives there.  ``test4_mask`` is one flag or one per row.  Returns
        (results, cycles) where results[x, j] is the column-j sum for input
        row x and cycles == X + rows + cols - 1.
        """
        cfg = self.config
        # One trailing bubble wave (zero block, zero north value) is
        # appended: once the stream drains, it is what every TPE's
        # registers hold.
        act, psum, flags = self._wave_inputs(blocks, north_values, test4_mask, bubbles=1)
        south, seen, latched_out = self._wavefront(self._masks, self._loaded(), act, psum, flags)
        # Column j latches what column j-1 passed on; column 0 the bubble.
        self._regs[RegClass.ACTIVATION][:, 0] = 0
        self._regs[RegClass.ACTIVATION][:, 1:] = seen[-1, :, :-1]
        self._regs[RegClass.OUTPUT][..., 0] = np.concatenate(latched_out)

        x_rows = len(south) - 1
        total = x_rows + cfg.rows + cfg.cols - 1
        self.cycles += total
        return south[:x_rows], total

    def stream_lanes(
        self, lanes: FaultLanes, blocks, north_values=None, test4_mask=False
    ) -> np.ndarray:
        """``stream`` once per fault lane, in one pass of the wave engine.

        Lane l sees the loaded weights and only its own fault; the faults
        injected into this array are not applied.  Returns results of shape
        (X, lanes.count, cols), where results[:, l] is what ``stream``
        returns with lane l's fault alone injected.  Registers and the cycle
        count are left untouched.
        """
        act, psum, flags = self._wave_inputs(blocks, north_values, test4_mask, bubbles=0)
        south, _, _ = self._wavefront(
            lanes.masks, self._loaded(), act[:, None], psum[:, None], flags
        )
        return np.broadcast_to(south, (len(south), lanes.count, self.config.cols))

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
        what ``stream`` returns with tile t loaded.  Registers and the cycle
        count are left untouched, and no tile need be loaded.
        """
        cfg = self.config
        regs = np.asarray(values), np.asarray(indexes)
        for name, part in zip(("values", "indexes"), regs):
            if part.ndim != 4 or part.shape[1:] != (cfg.rows, cfg.cols, cfg.n):
                raise ValueError(
                    f"tile {name} must have shape (tiles, {cfg.rows}, {cfg.cols}, "
                    f"{cfg.n}), got {part.shape}"
                )
            if not np.issubdtype(part.dtype, np.integer):
                raise ValueError(f"tile {name} must be integers, got dtype {part.dtype}")
        if regs[0].shape != regs[1].shape:
            raise ValueError(f"{len(regs[0])} tile values for {len(regs[1])} tile indexes")
        act, psum, flags = self._wave_inputs(
            blocks, north_values, test4_mask, bubbles=0, lead=regs[0].shape[:1]
        )
        south, _, _ = self._wavefront(self._masks, regs, act, psum[:, None], flags)
        return south

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
        return self._edge_sum(self._masks, raw, golden)

    def edge_compare_lanes(self, lanes: FaultLanes, raw_sums, golden) -> np.ndarray:
        """``edge_compare`` once per fault lane.

        ``raw_sums`` (..., lanes.count, cols) pass through each lane's own
        edge accumulators; ``golden`` broadcasts against them.
        """
        return self._edge_sum(lanes.masks, raw_sums, golden)

    def _edge_sum(self, masks, raw_sums, golden) -> np.ndarray:
        acc = self.config.acc_width
        raw = wrap_signed(np.asarray(raw_sums, dtype=np.int64), acc)
        edge = _masked(masks, RegClass.EDGE_ACCUMULATOR, raw, np.s_[..., 0, :, 0])
        return wrap_signed(edge + wrap_signed(np.asarray(golden, dtype=np.int64), acc), acc)

    def registers(self) -> dict[RegClass, np.ndarray]:
        """Read-back of every stored register file, as the datapath sees it.

        One (rows, cols, elements) copy per class, read through the injected
        faults: position indexes as unsigned patterns, the other classes as
        signed words.  Edge accumulators store nothing, so they are absent.
        """
        return {cls: self._read(cls).copy() for cls in self._regs}
