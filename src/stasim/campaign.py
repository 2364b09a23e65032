"""Stuck-at fault campaigns: enumerate, inject, measure coverage.

A campaign walks the whole single-fault universe of an array configuration.
Every fault is judged on its own, as if alone on a fresh array: the
workload's tiles are visited in order, one self-test session per tile, and
the first session that flags anything records the detection tile.  Coverage
is the detected fraction; the cumulative curve tracks it tile by tile.

Optionally the campaign checks, per detected fault, that the session verdict
names the injected register class, and, per undetected fault, whether the
fault is actually harmless (bit-identical matmul results on random inputs).

Faults are one ``fault_sites`` table, and the tiles one stack with one
stacked golden.  A call of the detection walk derives, from one fault-free
pass, the session sums of the faults still undetected on its tiles in closed
form (``fault_sessions``), and one ``classify`` call judges each detected
fault's first detecting session.  Calls cover one tile until the live faults
times the tiles left fit one call, which then covers them all; the harmless
walk cuts its calls alike.  All runs in the calling process.  Outcomes fill
one integer table, a row per fault, counted by ``np.bincount``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from stasim.array import CLASS_CODE, ArrayConfig, FaultSite, RegClass, TensorArray, fault_sites
from stasim.selftest import (
    EXPECTED_COMPARED,
    VERDICT_KINDS,
    GoldenReference,
    VerdictKind,
    _golden,
    classify,
    fault_sessions,
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
        for row, col, element, bit, stuck in np.ndindex(*spec.limits)
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
    """Per fault, 1 if the verdict named the injected class, 0 if not, -1 if unchecked.

    Session f ran with the fault of ``fault_sites`` row ``sites[f]`` alone;
    ``failed`` (4, faults) flags the tests it failed, and ``kinds``
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


def _walk(faults: np.ndarray, tiles: int, step: int, judge) -> np.ndarray:
    """Walk ``faults`` over the tiles in order, each until ``judge`` flags it.

    ``judge(ids, span)`` judges faults ``ids`` on the tiles of slice
    ``span`` in one call and returns which of them it flagged.  A call
    covers one tile, with the live faults in chunks of ``step``, until the
    live faults times the tiles left fit one call (``step`` (fault, tile)
    pairs); the next call then covers every tile left.  Returns the faults
    never flagged.
    """
    start, live = 0, faults
    while start < tiles and len(live):
        stop = tiles if len(live) * (tiles - start) <= step else start + 1
        live = np.concatenate([
            ids[~judge(ids, slice(start, stop))]
            for ids in np.split(live, range(step, len(live), step))
        ])
        start = stop
    return live


def _evaluate_faults(
    values: np.ndarray,
    indexes: np.ndarray,
    golden: GoldenReference,
    sites: np.ndarray,
    verify_classification: bool,
    harness: Optional[np.ndarray],
) -> np.ndarray:
    """The outcome table, one row per fault of ``sites``, -1 where unknown.

    ``values`` and ``indexes`` are the workload's tiles stacked, and
    ``golden`` their stacked golden reference.  Columns: detection tile,
    then the classification-ok and harmless flags (0/1).  A fault drops out
    of the detection walk at the first tile whose session flags it, and
    out of the harness walk at the first tile whose results it changes;
    ``_walk`` sizes the calls by ``ArrayConfig.per_step``.
    """
    config = golden.config
    array = TensorArray(config)
    table = np.full((len(sites), 3), -1, dtype=np.int64)
    detected_tile, classification_ok, harmless = table.T
    expected = np.reshape(EXPECTED_COMPARED, (4, 1, 1, 1))

    def detect(ids, span):
        part = GoldenReference(golden.per_test[:, span], config)
        raw, compared = fault_sessions(array, values[span], indexes[span], sites[ids], part)
        failed = (compared != expected).any(axis=-1)  # (4, tiles, faults)
        hits = failed.any(axis=0)
        flagged = hits.any(axis=0)
        # Each detected fault's first detecting tile, and its session there.
        (f,) = np.nonzero(flagged)
        t = hits[:, f].argmax(axis=0)
        detected_tile[ids[f]] = span.start + t
        if verify_classification and len(f):
            kinds, windows = classify(raw[:, t, f], compared[:, t, f], golden)
            classification_ok[ids[f]] = _classification_outcome(
                sites[ids[f]], failed[:, t, f], kinds, windows
            )
        return flagged

    def changed(ids, span):
        clean, got = array.stream_faults(values[span], indexes[span], sites[ids], harness[:, span])
        hits = (got != clean[:, :, None]).any(axis=(0, 1, 3))
        harmless[ids[hits]] = 0
        return hits

    tiles = len(values)
    escapes = _walk(np.arange(len(sites)), tiles, config.per_step(4), detect)  # 4 session waves
    if harness is not None:
        harmless[escapes] = 1
        _walk(escapes, tiles, config.per_step(len(harness)), changed)
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
    faults: Optional[Iterable[FaultSite]] = None,
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
    sites = fault_sites(config, faults)
    for tile in tiles:
        config.check_tile(tile)
    values = np.stack([tile.values for tile in tiles])
    indexes = np.stack([tile.indexes for tile in tiles])
    harness = None
    if check_harmless:  # per tile, HARMLESS_ROWS random activation blocks as one stream
        rng, half = np.random.default_rng(seed), 1 << (config.data_width - 1)
        shape = (HARMLESS_ROWS, config.rows, config.m)
        harness = np.stack([rng.integers(-half, half, shape, np.int64) for _ in tiles], axis=1)

    detected_tile, classification_ok, harmless = _evaluate_faults(
        values, indexes, _golden(values, indexes, config), sites, verify_classification, harness
    ).T

    detected = detected_tile >= 0
    counts = {
        name: np.bincount(sites[rows, 0], minlength=len(RegClass)).tolist()
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
    curve = np.cumsum(by_tile) / len(sites) if len(sites) else []
    return CoverageReport(
        config=config,
        tiles=len(tiles),
        total_faults=len(sites),
        detected=int(detected.sum()),
        per_class=per_class,
        cumulative_curve=list(map(float, curve)),
        classification_checked=int((classification_ok >= 0).sum()),
        classification_correct=int((classification_ok == 1).sum()),
        harmless_checked=check_harmless,
    )
