"""Periodic online self-test of the loaded weight tile.

A test session streams four crafted activation vectors through the array and
compares each column sum against a golden value precomputed from the packed
tile (never from array state).  The vectors are chosen so that the first two
produce bitwise-complementary column sums on a healthy array, which lets the
classifier tell weight-register, output-register and comparison-adder faults
apart from the complementarity pattern alone; the third exercises the
position-index registers, and the fourth overrides them with a fixed
column-dependent selection so that activation-register faults reappear with a
recognisable column period.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from stasim.arith import mask_of, wrap_signed
from stasim.array import ArrayConfig, FaultLanes, TensorArray
from stasim.sparsity import SparseWeightTile

#: Column sums a healthy array produces after golden addition, per test.
EXPECTED_COMPARED = (0, -1, 0, 0)


def session_vectors(m: int) -> list[np.ndarray]:
    """The four m-element test vectors: ones, minus-ones, ramp, ramp."""
    ones = np.ones(m, dtype=np.int64)
    ramp = np.arange(1, m + 1, dtype=np.int64)
    return [ones, -ones, ramp, ramp]


#: Per-test value fed to every column's partial-sum input alongside the vector.
TOP_SUMS = (0, -1, 0, 0)


@dataclass(frozen=True)
class GoldenReference:
    """Golden values added to the raw column sums, one row per test.

    ``per_test`` has shape (4, cols).  ``m`` and ``acc_width`` ride along so
    the classifier can reason about selection periods and bit widths without
    reaching back to a config object.
    """

    per_test: np.ndarray
    m: int
    acc_width: int

    @property
    def cols(self) -> int:
        return self.per_test.shape[1]


def compute_golden(tile: SparseWeightTile, config: ArrayConfig) -> GoldenReference:
    """Golden values for a tile, from the software-side packed model.

    For column j with per-column weight sum S_j (active slots only):
    test 1 adds -S_j, test 2 adds +S_j, test 3 adds the negated
    position-weighted sum -sum((index+1) * weight), and test 4 adds
    -((j mod m) + 1) * S_j to cancel the forced-selection response.
    """
    config.check_tile(tile)
    k = config.active_slots
    w = tile.values[..., :k]
    pos = tile.indexes[..., :k]
    wsum = w.sum(axis=(0, 2))
    ramp_weighted = ((pos + 1) * w).sum(axis=(0, 2))
    forced = (np.arange(config.cols, dtype=np.int64) % config.m) + 1
    per_test = np.stack(
        [
            -wsum,
            wsum,
            -ramp_weighted,
            -forced * wsum,
        ]
    )
    return GoldenReference(
        per_test=wrap_signed(per_test, config.acc_width),
        m=config.m,
        acc_width=config.acc_width,
    )


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


def classify(raw, compared, golden: GoldenReference) -> tuple[Verdict, ...]:
    """Name the faulty register class behind each column's misbehaviour.

    Columns where tests 1/2 deviate are judged by complementarity: the first
    two column sums are complementary before golden addition and again after
    it when only a weight register lies; complementary before but not after
    points at the comparison adder; complementary in neither view points at
    the output-register chain.  Columns clean on tests 1/2 but failing test 3
    indict a position-index register.  Columns failing only test 4 are named
    activation windows; the window itself is located from every test-4
    failure, including columns already named by earlier tests, because a
    corrupted activation element disturbs the selection test at all columns
    in its residue class and the earliest one bounds the fault position.
    """
    raw = np.asarray(raw, dtype=np.int64)
    compared = np.asarray(compared, dtype=np.int64)
    cols = golden.cols
    # Tests 1 and 2 are bitwise complements when every one of the
    # accumulator's bits differs between them.
    ones = mask_of(golden.acc_width)
    raw_comps = ((raw[0] ^ raw[1]) & ones) == ones
    compared_comps = ((compared[0] ^ compared[1]) & ones) == ones

    verdicts: dict[int, Verdict] = {}
    test4_only: list[int] = []
    test4_all = [
        j for j in range(cols) if compared[3, j] != EXPECTED_COMPARED[3]
    ]
    for j in range(cols):
        t12_bad = compared[0, j] != EXPECTED_COMPARED[0] or (
            compared[1, j] != EXPECTED_COMPARED[1]
        )
        if t12_bad:
            raw_comp, compared_comp = raw_comps[j], compared_comps[j]
            if raw_comp and compared_comp:
                kind = VerdictKind.WEIGHT_REGISTER
            elif not raw_comp and not compared_comp:
                kind = VerdictKind.OUTPUT_REGISTER
            elif raw_comp and not compared_comp:
                kind = VerdictKind.COMPARISON_ADDER
            else:
                kind = VerdictKind.UNCLASSIFIED
            verdicts[j] = Verdict(j, kind)
        elif compared[2, j] != EXPECTED_COMPARED[2]:
            verdicts[j] = Verdict(j, VerdictKind.WEIGHT_INDEX_REGISTER)
        elif compared[3, j] != EXPECTED_COMPARED[3]:
            test4_only.append(j)
        else:
            verdicts[j] = Verdict(j, VerdictKind.OK)

    if test4_only:
        window = locate_activation(test4_all, golden.m)
        for j in test4_only:
            if window is None:
                verdicts[j] = Verdict(j, VerdictKind.UNCLASSIFIED)
            else:
                verdicts[j] = Verdict(
                    j,
                    VerdictKind.ACTIVATION_WINDOW,
                    first_col=test4_all[0],
                    window=window,
                )
    return tuple(verdicts[j] for j in range(cols))


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


def _session_passes(config: ArrayConfig):
    """The session's streams, as (blocks, north values, test4_mask) each.

    Tests 1-3 share one pipelined pass; test 4 runs as a second pass because
    its index-override signal applies array-wide per cycle and must not
    overlap earlier waves still in flight.
    """
    blocks = np.stack([np.tile(v, (config.rows, 1)) for v in session_vectors(config.m)])
    norths = np.array(TOP_SUMS, dtype=np.int64)
    return ((blocks[:3], norths[:3], False), (blocks[3:], norths[3:], True))


def _check_session(array: TensorArray, golden: GoldenReference) -> None:
    cfg = array.config
    if not array.weights_loaded:
        raise RuntimeError("load a weight tile before running a self-test session")
    if golden.cols != cfg.cols or golden.m != cfg.m:
        raise ValueError("golden reference does not match the array geometry")


def run_session(
    array: TensorArray,
    golden: GoldenReference,
    tile_id: Optional[str] = None,
) -> TestReport:
    """Run the four-test session against the currently loaded tile.

    Occupancy accounting is the driver's business: a session costs exactly
    four initiation cycles there, since drain overlaps resumed streaming.
    """
    _check_session(array, golden)
    raw = np.vstack(
        [array.stream(b, n, test4_mask=t4)[0] for b, n, t4 in _session_passes(array.config)]
    )
    compared = np.stack(
        [array.edge_compare(raw[t], golden.per_test[t]) for t in range(4)]
    )
    expected = np.array(EXPECTED_COMPARED, dtype=np.int64)[:, None]
    detected = bool(np.any(compared != expected))
    verdicts = classify(raw, compared, golden)
    return TestReport(
        tile_id=tile_id,
        raw=tuple(tuple(int(v) for v in row) for row in raw),
        compared=tuple(tuple(int(v) for v in row) for row in compared),
        detected=detected,
        verdicts=verdicts,
    )


def lane_session(
    array: TensorArray, golden: GoldenReference, lanes: FaultLanes
) -> tuple[np.ndarray, np.ndarray]:
    """``run_session``'s raw and compared sums once per fault lane.

    Returns (raw, compared), each (4, lanes.count, cols); lane l is what a
    session reports with only lane l's fault injected.  Nothing is
    classified, and registers and the cycle count are left untouched.
    """
    _check_session(array, golden)
    raw = np.concatenate(
        [
            array.stream_lanes(lanes, b, n, test4_mask=t4)
            for b, n, t4 in _session_passes(array.config)
        ]
    )
    return raw, array.edge_compare_lanes(lanes, raw, golden.per_test[:, None])
