"""Periodic online self-test of the loaded weight tile.

A test session streams four crafted activation vectors through the array and
compares each column sum against a golden value precomputed from the packed
tile (never from array state).  The vectors are chosen so that the first two
produce bitwise-complementary column sums on a healthy array, which lets the
classifier tell weight-register, output-register and comparison-adder faults
apart from the complementarity pattern alone; the third exercises the
position-index registers, and the fourth overrides them with a fixed
column-dependent selection so that activation-register faults reappear with a
recognisable column period.  The four vectors run as one stream of the wave
engine, and ``classify`` judges any number of sessions at once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from stasim.arith import mask_of, wrap_signed
from stasim.array import ArrayConfig, FaultLanes, TensorArray
from stasim.sparsity import SparseWeightTile

#: Column sums a healthy array produces after golden addition, per test.
#: The golden cancels every product, so these are also the north values the
#: session feeds each column: a healthy column compares equal to its input.
EXPECTED_COMPARED = (0, -1, 0, 0)


def session_vectors(m: int) -> list[np.ndarray]:
    """The four m-element test vectors: ones, minus-ones, ramp, ramp."""
    ones = np.ones(m, dtype=np.int64)
    ramp = np.arange(1, m + 1, dtype=np.int64)
    return [ones, -ones, ramp, ramp]


@dataclass(frozen=True, eq=False)
class GoldenReference:
    """Golden values added to the raw column sums, one row per test.

    ``per_test`` has shape (4, cols) for one tile, or (4, tiles, cols) for a
    stack of tiles, and is valid only on an array of ``config``, the
    configuration it was computed for.  Construction checks that it is
    integer, with 4 tests first and ``config.cols`` columns last.
    """

    per_test: np.ndarray
    config: ArrayConfig

    def __post_init__(self) -> None:
        per_test = np.asarray(self.per_test)
        if not np.issubdtype(per_test.dtype, np.integer):
            raise ValueError(f"golden values must be integers, got dtype {per_test.dtype}")
        shape = per_test.shape
        if per_test.ndim not in (2, 3) or shape[0] != 4 or shape[-1] != self.config.cols:
            raise ValueError(
                f"golden values must have shape (4, {self.config.cols}) or "
                f"(4, tiles, {self.config.cols}), got {shape}"
            )
        object.__setattr__(self, "per_test", per_test.astype(np.int64))

    @property
    def cols(self) -> int:
        return self.per_test.shape[-1]


def _golden(values: np.ndarray, indexes: np.ndarray, config: ArrayConfig) -> GoldenReference:
    """Golden values of packed tiles, (rows, cols, n) or (tiles, rows, cols, n).

    For column j with per-column weight sum S_j (active slots only):
    test 1 adds -S_j, test 2 adds +S_j, test 3 adds the negated
    position-weighted sum -sum((index+1) * weight), and test 4 adds
    -((j mod m) + 1) * S_j to cancel the forced-selection response.
    """
    k = config.active_slots
    w = values[..., :k]
    pos = indexes[..., :k]
    wsum = w.sum(axis=(-3, -1))
    ramp_weighted = ((pos + 1) * w).sum(axis=(-3, -1))
    forced = (np.arange(config.cols, dtype=np.int64) % config.m) + 1
    per_test = np.stack(
        [
            -wsum,
            wsum,
            -ramp_weighted,
            -forced * wsum,
        ]
    )
    return GoldenReference(wrap_signed(per_test, config.acc_width), config)


def compute_golden(tile: SparseWeightTile, config: ArrayConfig) -> GoldenReference:
    """Golden values for a tile, from the software-side packed model.

    ``_golden`` holds the formula, which also serves stacks of tiles.
    """
    config.check_tile(tile)
    return _golden(tile.values, tile.indexes, config)


class VerdictKind(str, Enum):
    OK = "ok"
    WEIGHT_REGISTER = "weight_register"
    OUTPUT_REGISTER = "output_register"
    COMPARISON_ADDER = "comparison_adder"
    WEIGHT_INDEX_REGISTER = "weight_index_register"
    ACTIVATION_WINDOW = "activation_window"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Verdict:
    """Per-column classification outcome.

    Activation verdicts carry the window of columns that could host the
    faulty activation register; ``first_col`` is the earliest failing column
    the window was derived from.
    """

    column: int
    kind: VerdictKind
    first_col: Optional[int] = None
    window: Optional[tuple[int, int]] = None

    def to_dict(self) -> dict:
        data: dict = {"column": self.column, "verdict": self.kind.value}
        if self.kind is VerdictKind.ACTIVATION_WINDOW:
            data["first_col"] = self.first_col
            data["window"] = list(self.window)
        return data


def locate_activation(test4_failures: Iterable[int], m: int) -> Optional[tuple[int, int]]:
    """Window of columns that can explain a set of test-4 failures.

    The forced selection repeats every m columns, so a single faulty
    activation register fails only columns congruent to each other mod m.
    When the failing set honours that period, the fault lies within the m
    columns ending at the first failure: window ``(first - m + 1 .. first)``,
    clipped at column 0.  A set that breaks the period returns None.
    """
    cols = sorted(set(int(c) for c in test4_failures))
    if not cols:
        raise ValueError("no failing columns to locate")
    first = cols[0]
    if any((c - first) % m for c in cols):
        return None
    return (max(0, first - m + 1), first)


#: ``classify`` names each verdict kind by its position in this tuple.
VERDICT_KINDS = tuple(VerdictKind)
# The positions, in ``VerdictKind`` order.
_OK, _WEIGHT, _OUTPUT, _ADDER, _INDEX, _WINDOW, _UNCLASSIFIED = range(len(VERDICT_KINDS))


def classify(raw, compared, golden: GoldenReference) -> tuple[np.ndarray, np.ndarray]:
    """Name the faulty register class behind each column's misbehaviour.

    ``raw`` and ``compared`` are sessions' sums, (4, ..., cols).  Returns
    ``kinds`` (..., cols), verdicts as positions in ``VERDICT_KINDS``, and
    ``windows`` (..., 3), each session's (first test-4 failure, window start,
    window end), -1s where it has no window.

    Columns where tests 1/2 deviate are judged by complementarity: the first
    two column sums are complementary before golden addition and again after
    it when only a weight register lies; complementary before but not after
    points at the comparison adder; complementary in neither view points at
    the output-register chain.  Columns clean on tests 1/2 but failing test 3
    indict a position-index register.  Columns failing only test 4 are named
    activation windows; the window itself is located from every test-4
    failure (``locate_activation``), including columns already named by
    earlier tests, because a corrupted activation element disturbs the
    selection test at all columns in its residue class and the earliest one
    bounds the fault position.
    """
    raw = np.asarray(raw, dtype=np.int64)
    compared = np.asarray(compared, dtype=np.int64)
    fails = compared != np.reshape(EXPECTED_COMPARED, (4,) + (1,) * (compared.ndim - 1))
    # Tests 1 and 2 are bitwise complements when every one of the
    # accumulator's bits differs between them.
    ones = mask_of(golden.config.acc_width)
    raw_comp = ((raw[0] ^ raw[1]) & ones) == ones
    compared_comp = ((compared[0] ^ compared[1]) & ones) == ones
    pair_kind = np.where(
        raw_comp,
        np.where(compared_comp, _WEIGHT, _ADDER),
        np.where(compared_comp, _UNCLASSIFIED, _OUTPUT),
    )
    test4 = fails[3]
    first = test4.argmax(axis=-1)
    offset = np.arange(test4.shape[-1]) - first[..., None]
    m = golden.config.m
    located = test4.any(axis=-1) & ~(test4 & (offset % m != 0)).any(axis=-1)
    test4_kind = np.where(test4, np.where(located, _WINDOW, _UNCLASSIFIED)[..., None], _OK)
    kinds = np.where(fails[0] | fails[1], pair_kind, np.where(fails[2], _INDEX, test4_kind))
    window = np.stack([first, np.maximum(0, first - m + 1), first], axis=-1)
    return kinds, np.where(located[..., None], window, -1)


def session_verdicts(kinds, windows) -> tuple[Verdict, ...]:
    """One session's ``classify`` output, (cols,) and (3,), as verdicts."""
    first, lo, hi = np.asarray(windows).tolist()
    return tuple(
        Verdict(j, VerdictKind.ACTIVATION_WINDOW, first, (lo, hi))
        if code == _WINDOW
        else Verdict(j, VERDICT_KINDS[code])
        for j, code in enumerate(np.asarray(kinds).tolist())
    )


@dataclass(frozen=True)
class TestReport:
    """Everything one self-test session observed for one tile."""

    tile_id: Optional[str]
    raw: tuple[tuple[int, ...], ...]
    compared: tuple[tuple[int, ...], ...]
    detected: bool
    verdicts: tuple[Verdict, ...]

    def failing_columns(self, test: int) -> tuple[int, ...]:
        """Columns whose compared value deviates for one test (0-based)."""
        return tuple(
            j
            for j, v in enumerate(self.compared[test])
            if v != EXPECTED_COMPARED[test]
        )

    def to_dict(self) -> dict:
        return {
            "tile_id": self.tile_id,
            "raw": [list(row) for row in self.raw],
            "compared": [list(row) for row in self.compared],
            "detected": self.detected,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


@lru_cache(maxsize=16)
def _session_stream(rows: int, m: int) -> tuple[np.ndarray, ...]:
    """The four tests as one read-only (blocks, north values, test-4 flags) stream.

    Waves never interact, so test 4's selection override is a per-wave flag.
    """
    blocks = np.stack([np.tile(v, (rows, 1)) for v in session_vectors(m)])
    stream = (blocks, np.array(EXPECTED_COMPARED, dtype=np.int64), np.arange(4) == 3)
    for part in stream:
        part.flags.writeable = False
    return stream


def _check_session(array: TensorArray, golden: GoldenReference) -> None:
    if not array.weights_loaded:
        raise RuntimeError("load a weight tile before running a self-test session")
    if golden.config != array.config:
        want, got = asdict(array.config), asdict(golden.config)
        wrong = "; ".join(f"{k} {got[k]!r}, not {v!r}" for k, v in want.items() if got[k] != v)
        raise ValueError(f"golden reference computed for another array: {wrong}")
    if golden.per_test.ndim != 2:
        raise ValueError(
            f"a session needs one tile's golden reference, got shape {golden.per_test.shape}"
        )


def _reports(raw, compared, golden: GoldenReference, tile_ids) -> list[TestReport]:
    """One report per session of sums (4, sessions, cols), classified at once."""
    kinds, windows = classify(raw, compared, golden)
    # Every deviating column has a verdict.
    detected = (kinds != _OK).any(axis=-1).tolist()
    return [
        TestReport(
            tile_id=tile_id,
            raw=tuple(map(tuple, raw_rows)),
            compared=tuple(map(tuple, compared_rows)),
            detected=hit,
            verdicts=session_verdicts(session_kinds, session_windows),
        )
        for tile_id, raw_rows, compared_rows, hit, session_kinds, session_windows in zip(
            tile_ids,
            np.swapaxes(raw, 0, 1).tolist(),
            np.swapaxes(compared, 0, 1).tolist(),
            detected,
            kinds,
            windows,
            strict=True,
        )
    ]


def run_session(
    array: TensorArray,
    golden: GoldenReference,
    tile_id: Optional[str] = None,
) -> TestReport:
    """Run the four-test session against the currently loaded tile.

    The four vectors share one pass of the wave engine, which writes no
    register.  Its sums are those of the hardware's two passes (tests 1-3,
    then test 4 under the array-wide override), since waves never interact.
    Cycles are the driver's business: ``CycleStats`` charges a session
    exactly four initiation cycles, since drain overlaps resumed streaming.
    """
    _check_session(array, golden)
    cfg = array.config
    raw, _ = array.stream(*_session_stream(cfg.rows, cfg.m))
    compared = array.edge_compare(raw, golden.per_test)
    return _reports(raw[:, None], compared[:, None], golden, [tile_id])[0]


def stacked_sessions(array: TensorArray, values, indexes, tile_ids) -> list[TestReport]:
    """``run_session`` once per tile of a stack, in one pass of the wave engine.

    ``values`` and ``indexes`` are (tiles, rows, cols, n) stacks of packed
    tiles, as ``TensorArray.stream_tiles`` takes them.  Report t, named
    ``tile_ids[t]``, is what ``run_session`` reports with tile t loaded into
    ``array`` and the golden computed from it; no tile need be loaded.
    """
    cfg = array.config
    blocks, norths, flags = _session_stream(cfg.rows, cfg.m)
    per_tile = np.broadcast_to(blocks[:, None], (4, len(values)) + blocks.shape[1:])
    raw = array.stream_tiles(values, indexes, per_tile, norths, flags)
    golden = _golden(values, indexes, cfg)
    return _reports(raw, array.edge_compare(raw, golden.per_test), golden, tile_ids)


def lane_session(
    array: TensorArray, golden: GoldenReference, lanes: FaultLanes
) -> tuple[np.ndarray, np.ndarray]:
    """``run_session``'s raw and compared sums once per fault lane.

    Returns (raw, compared), each (4, lanes.count, cols); lane l is what a
    session reports with only lane l's fault injected.  Nothing is
    classified.
    """
    _check_session(array, golden)
    cfg = array.config
    raw = array.stream_lanes(lanes, *_session_stream(cfg.rows, cfg.m))
    return raw, array.edge_compare_lanes(lanes, raw, golden.per_test[:, None])
