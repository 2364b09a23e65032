"""Stuck-at fault campaigns: enumerate, inject, measure coverage.

A campaign walks the whole single-fault universe of an array configuration.
Every fault is judged on its own, as if alone on a fresh array: the
workload's tiles are visited in order, one self-test session per tile, and
the first session that flags anything records the detection tile.  Coverage
is the detected fraction; the cumulative curve tracks it tile by tile.

Optionally the campaign checks, per detected fault, that the session verdict
names the injected register class, and, per undetected fault, whether the
fault is actually harmless (bit-identical matmul results on random inputs).

Faults are evaluated in fault lanes (parallel-pattern single-fault
propagation): a chunk of faults, one per lane, shares each pass of the wave
engine, detected lanes drop out after every tile and only the survivors go
on to the next one.  Each fault is validated and turned into its mask words
once per campaign; one ``classify`` call judges every lane a chunk's session
detects.  Everything runs in the calling process; there is no worker pool.
Outcomes fill one integer table by lane id, a row per fault, and the report
counts it with ``np.bincount`` by register class and by detection tile.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from stasim.array import CLASS_CODE, ArrayConfig, FaultLanes, FaultSite, RegClass, TensorArray
from stasim.selftest import (
    EXPECTED_COMPARED,
    VERDICT_KINDS,
    GoldenReference,
    VerdictKind,
    classify,
    compute_golden,
    lane_session,
)
from stasim.sparsity import SparseWeightTile

#: Random activation rows per tile that an undetected fault must leave
#: bit-identical to count as harmless.
HARMLESS_ROWS = 40


def enumerate_faults(config: ArrayConfig) -> list[FaultSite]:
    """Every stuck-at fault of the configuration, exactly once.

    Covers both polarities of every bit of every register in
    ``config.reg_specs``, class by class in that order, then row, column,
    element, bit and polarity.
    """
    return [
        FaultSite(cls, row, col, element, bit, stuck)
        for cls, spec in config.reg_specs.items()
        for row, col, element, bit, stuck in np.ndindex(*spec.shape, spec.width, 2)
    ]


def random_tiles(
    rng: np.random.Generator,
    config: ArrayConfig,
    count: int,
    magnitude: int | None = None,
) -> list[SparseWeightTile]:
    """Random dense weight tiles, pruned and packed; ``magnitude`` bounds |weight|."""
    if count < 1:
        raise ValueError(f"tile count {count} must be at least 1")
    limit = (1 << (config.data_width - 1)) - 1
    if magnitude is not None and not 0 <= magnitude <= limit:
        raise ValueError(
            f"magnitude {magnitude} outside 0..{limit} for {config.data_width}-bit weights"
        )
    lo, hi = (-limit - 1, limit + 1) if magnitude is None else (-magnitude, magnitude + 1)
    tiles = []
    for _ in range(count):
        dense = rng.integers(lo, hi, size=config.tile_shape, dtype=np.int64)
        tiles.append(config.pack(dense))
    return tiles


#: The verdict that names each register class.
_NAMING_VERDICT = {
    RegClass.ACTIVATION: VerdictKind.ACTIVATION_WINDOW,
    RegClass.WEIGHT: VerdictKind.WEIGHT_REGISTER,
    RegClass.WEIGHT_INDEX: VerdictKind.WEIGHT_INDEX_REGISTER,
    RegClass.OUTPUT: VerdictKind.OUTPUT_REGISTER,
    RegClass.EDGE_ACCUMULATOR: VerdictKind.COMPARISON_ADDER,
}
_NAMING_CODES = np.array([VERDICT_KINDS.index(_NAMING_VERDICT[cls]) for cls in RegClass])


def _classification_outcome(sites: np.ndarray, failed, kinds, windows):
    """Per lane, 1 if the verdict named the injected class, 0 if not, -1 if unchecked.

    Lane l ran with the fault of ``FaultLanes`` site ``sites[l]`` alone;
    ``failed`` (4, lanes) flags the tests its session failed, and ``kinds``
    and ``windows`` are the session's ``classify`` output.  Weight, output and
    edge-accumulator faults must be named at the injected column.  Index
    faults are only checked when test 3 alone flagged them, activation
    faults when test 4 alone did (the window must then contain the injected
    column); any other signature leaves the verdict unchecked.
    """
    t1f, t2f, t3f, t4f = failed
    classes, cols = sites[:, 0], sites[:, 2]
    index = classes == CLASS_CODE[RegClass.WEIGHT_INDEX]
    activation = classes == CLASS_CODE[RegClass.ACTIVATION]
    first, lo, hi = windows.T
    correct = np.where(
        activation,
        (first >= 0) & (lo <= cols) & (cols <= hi),
        kinds[np.arange(len(cols)), cols] == _NAMING_CODES[classes],
    )
    checked = np.where(
        index, t3f & ~(t1f | t2f | t4f), ~activation | (t4f & ~(t1f | t2f | t3f))
    )
    return np.where(checked, correct, -1)


def _harmless_harness(
    tiles: Sequence[SparseWeightTile], config: ArrayConfig, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per tile: ``HARMLESS_ROWS`` random activation blocks and their fault-free outputs.

    The rows run as one stream, since streamed rows never interact.
    """
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << (config.data_width - 1)), 1 << (config.data_width - 1)
    shape = (HARMLESS_ROWS, config.rows, config.m)
    stacks = [rng.integers(lo, hi, size=shape, dtype=np.int64) for _ in tiles]
    array = TensorArray(config)
    clean = []
    for tile, stack in zip(tiles, stacks):
        array.load_weights(tile)
        out, _ = array.stream(stack)
        clean.append(out)
    return stacks, clean


def _sweep(array, tiles, universe: FaultLanes, ids, waves, settle) -> list[int]:
    """Walk lanes ``ids`` of ``universe`` through ``tiles``.

    Per tile, the lanes still live are cut into chunks of as many lanes as
    ``ArrayConfig.per_pass`` allows for passes of ``waves`` waves, and
    ``settle(tile index, lanes, lane ids)`` returns one flag per lane of a
    chunk: flagged lanes drop out, the rest go on to the next tile.  Returns
    the ids no tile settled, in order.
    """
    per_pass = array.config.per_pass(waves)
    live = np.asarray(ids, dtype=np.int64)
    for ti, tile in enumerate(tiles):
        if not len(live):
            break
        array.load_weights(tile)
        left = []
        for start in range(0, len(live), per_pass):
            chunk = live[start : start + per_pass]
            left.append(chunk[~settle(ti, universe.take(chunk), chunk)])
        live = np.concatenate(left)
    return live.tolist()


def _evaluate_faults(
    tiles: Sequence[SparseWeightTile],
    goldens: Sequence[GoldenReference],
    universe: FaultLanes,
    verify_classification: bool,
    harness: Optional[tuple[list[np.ndarray], list[np.ndarray]]],
) -> np.ndarray:
    """The outcome table, one row per ``universe`` lane, -1 where unknown.

    Columns: detection tile, then the classification-ok and harmless flags (0/1).
    """
    array = TensorArray(universe.config)
    table = np.full((universe.count, 3), -1, dtype=np.int64)
    detected_tile, classification_ok, harmless = table.T
    expected = np.array(EXPECTED_COMPARED, dtype=np.int64)[:, None, None]

    def detect(ti, lanes, live):
        raw, compared = lane_session(array, goldens[ti], lanes)
        failed = (compared != expected).any(axis=2)
        hits = failed.any(axis=0)
        detected_tile[live[hits]] = ti
        if verify_classification and hits.any():
            kinds, windows = classify(raw[:, hits], compared[:, hits], goldens[ti])
            classification_ok[live[hits]] = _classification_outcome(
                lanes.sites[hits], failed[:, hits], kinds, windows
            )
        return hits

    # Budgeted on the session's four test vectors.
    undetected = _sweep(array, tiles, universe, range(universe.count), 4, detect)

    if harness is not None:
        stacks, clean = harness

        def differs(ti, lanes, live):
            got = array.stream_lanes(lanes, stacks[ti])
            return (got != clean[ti][:, None]).any(axis=(0, 2))

        harmless[undetected] = 0
        harmless[_sweep(array, tiles, universe, undetected, len(stacks[0]), differs)] = 1
    return table


@dataclass
class CoverageReport:
    """Aggregated campaign outcome."""

    config: ArrayConfig
    tiles: int
    total_faults: int
    detected: int
    per_class: dict[str, dict[str, int]]
    cumulative_curve: list[float]
    classification_checked: int
    classification_correct: int
    harmless_checked: bool

    @property
    def coverage(self) -> float:
        return self.detected / self.total_faults if self.total_faults else 0.0

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "tiles": self.tiles,
            "total_faults": self.total_faults,
            "detected": self.detected,
            "coverage": self.coverage,
            "per_class": self.per_class,
            "cumulative_curve": self.cumulative_curve,
            "classification": {
                "checked": self.classification_checked,
                "correct": self.classification_correct,
            },
            "harmless_checked": self.harmless_checked,
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def write_curve_csv(self, path) -> None:
        """Cumulative coverage after each tile, as tile_index,coverage rows."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tile_index", "coverage"])
            for i, cov in enumerate(self.cumulative_curve, start=1):
                writer.writerow([i, f"{cov:.6f}"])


def run_campaign(
    tiles: Sequence[SparseWeightTile],
    config: ArrayConfig,
    *,
    faults: Optional[Sequence[FaultSite]] = None,
    verify_classification: bool = True,
    check_harmless: bool = False,
    seed: int = 0,
    jobs: int = 1,
) -> CoverageReport:
    """Measure self-test coverage of the fault universe over a workload.

    Deterministic for a given argument set.  ``jobs`` must be at least 1 and
    is otherwise ignored: the campaign runs in one process.
    """
    if jobs < 1:
        raise ValueError(f"jobs {jobs} must be at least 1")
    if not tiles:
        raise ValueError("campaign needs at least one weight tile")
    universe = FaultLanes(config, list(enumerate_faults(config) if faults is None else faults))
    goldens = [compute_golden(tile, config) for tile in tiles]
    harness = _harmless_harness(tiles, config, seed) if check_harmless else None

    detected_tile, classification_ok, harmless = _evaluate_faults(
        tiles, goldens, universe, verify_classification, harness
    ).T

    detected = detected_tile >= 0
    counts = {
        name: np.bincount(universe.sites[rows, 0], minlength=len(RegClass)).tolist()
        for name, rows in (
            ("total", slice(None)),
            ("detected", detected),
            ("undetected", ~detected),
            ("harmless_verified", harmless == 1),
            ("not_harmless", harmless == 0),
        )
    }
    per_class = {
        cls.value: {name: column[code] for name, column in counts.items()}
        for cls, code in CLASS_CODE.items()
    }
    by_tile = np.bincount(detected_tile[detected], minlength=len(tiles))
    curve = np.cumsum(by_tile) / universe.count if universe.count else []
    return CoverageReport(
        config=config,
        tiles=len(tiles),
        total_faults=universe.count,
        detected=int(detected.sum()),
        per_class=per_class,
        cumulative_curve=list(map(float, curve)),
        classification_checked=int((classification_ok >= 0).sum()),
        classification_correct=int((classification_ok == 1).sum()),
        harmless_checked=check_harmless,
    )
