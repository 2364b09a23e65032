"""Differential test: the array classifier against a scalar, column-by-column one.

``scalar_classify`` and ``scalar_outcome`` are the reference: they judge one
session at a time, one column after another, as the rules in ``classify``'s
and ``_classification_outcome``'s docstrings read.  The array forms must
agree with them on every lane of random (raw, compared) arrays, including
sessions whose test-4 failures break the period (no window) and columns
left unclassified.  ``tests/test_lanes.py`` uses the same reference for its
campaign differential.
"""

import numpy as np
import pytest

from stasim.arith import mask_of
from stasim.array import ArrayConfig, FaultLanes, FaultSite, RegClass
from stasim.campaign import _classification_outcome
from stasim.selftest import (
    EXPECTED_COMPARED,
    GoldenReference,
    Verdict,
    VerdictKind,
    classify,
    locate_activation,
    session_verdicts,
)


def scalar_classify(raw, compared, golden):
    """Verdicts of one session's (4, cols) sums, column by column."""
    raw = np.asarray(raw, dtype=np.int64)
    compared = np.asarray(compared, dtype=np.int64)
    cols = golden.cols
    ones = mask_of(golden.acc_width)
    raw_comps = ((raw[0] ^ raw[1]) & ones) == ones
    compared_comps = ((compared[0] ^ compared[1]) & ones) == ones

    verdicts = {}
    test4_only = []
    test4_all = [j for j in range(cols) if compared[3, j] != EXPECTED_COMPARED[3]]
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
                    j, VerdictKind.ACTIVATION_WINDOW, first_col=test4_all[0], window=window
                )
    return tuple(verdicts[j] for j in range(cols))


def scalar_outcome(fault, compared, verdicts):
    """Did one session's verdicts name the injected class?  None when unchecked."""
    expected = np.array(EXPECTED_COMPARED, dtype=np.int64)[:, None]
    t1f, t2f, t3f, t4f = (np.asarray(compared) != expected).any(axis=1)
    cls = fault.reg_class
    if cls is RegClass.WEIGHT:
        return verdicts[fault.col].kind is VerdictKind.WEIGHT_REGISTER
    if cls is RegClass.OUTPUT:
        return verdicts[fault.col].kind is VerdictKind.OUTPUT_REGISTER
    if cls is RegClass.EDGE_ACCUMULATOR:
        return verdicts[fault.col].kind is VerdictKind.COMPARISON_ADDER
    if cls is RegClass.WEIGHT_INDEX:
        if t3f and not (t1f or t2f or t4f):
            return verdicts[fault.col].kind is VerdictKind.WEIGHT_INDEX_REGISTER
        return None
    if t4f and not (t1f or t2f or t3f):
        for v in verdicts:
            if v.kind is VerdictKind.ACTIVATION_WINDOW:
                lo, hi = v.window
                return lo <= fault.col <= hi
        return False
    return None


def random_sessions(rng, lanes, cols, m, width):
    """(raw, compared) of ``lanes`` sessions, biased toward every verdict.

    Words are narrow so complementary pairs are common.  Each lane draws,
    per test, whether to fail at all and at which columns; test-4 failures
    often follow the period m, and half the lanes fail one test only.
    """
    lo, hi = -(1 << (width - 1)), 1 << (width - 1)
    raw = rng.integers(lo, hi, size=(4, lanes, cols))
    compared = np.broadcast_to(np.reshape(EXPECTED_COMPARED, (4, 1, 1)), raw.shape).copy()
    noise = rng.integers(lo, hi, size=raw.shape)
    for lane in range(lanes):
        # Complementary raw pairs, then compared pairs, at random columns.
        flip = rng.random(cols) < 0.5
        raw[1, lane, flip] = ~raw[0, lane, flip]
        failing = rng.random((4, cols)) < rng.random()
        failing[rng.random(4) < 0.5] = False
        if rng.random() < 0.5:
            first = int(rng.integers(0, cols))
            failing[3] = False
            failing[3, first::m] = rng.random(len(range(first, cols, m))) < 0.8
            failing[3, first] = True
        single = int(rng.integers(0, 8))
        if single < 4:  # half the lanes fail one test only
            failing[np.arange(4) != single] = False
            failing[single, rng.integers(0, cols)] = True
        compared[:, lane][failing] = noise[:, lane][failing]
        pair = failing[0] | failing[1]
        comp = pair & (rng.random(cols) < 0.5)
        compared[1, lane, comp] = ~compared[0, lane, comp]
        # A failing column must really differ from the expected value.
        for t in range(4):
            same = failing[t] & (compared[t, lane] == EXPECTED_COMPARED[t])
            compared[t, lane, same] += 1
    return raw, compared


@pytest.mark.parametrize("seed", range(4))
def test_array_classifier_matches_scalar_copy(seed):
    rng = np.random.default_rng(seed)
    seen = set()
    outcomes = set()
    for _ in range(100):
        lanes = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 10))
        m = int(rng.integers(1, 6))
        width = int(rng.integers(2, 7))
        golden = GoldenReference(np.zeros((4, cols), dtype=np.int64), m=m, acc_width=width)
        raw, compared = random_sessions(rng, lanes, cols, m, width)
        kinds, windows = classify(raw, compared, golden)
        assert kinds.shape == (lanes, cols) and windows.shape == (lanes, 3)

        faults = [
            FaultSite(list(RegClass)[c], 0, int(rng.integers(0, cols)), 0, 0, 0)
            for c in rng.integers(0, len(RegClass), size=lanes)
        ]
        cfg = ArrayConfig(rows=1, cols=cols, m=m, n=1, data_width=2, acc_width=width)
        sites = FaultLanes(cfg, faults).sites
        failed = (compared != np.reshape(EXPECTED_COMPARED, (4, 1, 1))).any(axis=2)
        verdict_ok = _classification_outcome(sites, failed, kinds, windows)
        for lane, fault in enumerate(faults):
            want = scalar_classify(raw[:, lane], compared[:, lane], golden)
            got = session_verdicts(kinds[lane], windows[lane])
            assert got == want
            # The one-session form gives the same verdicts.
            alone = classify(raw[:, lane], compared[:, lane], golden)
            assert session_verdicts(*alone) == want
            seen.update((v.kind, v.window is None) for v in want)
            test4 = [j for j in range(cols) if compared[3, lane, j] != EXPECTED_COMPARED[3]]
            if test4 and locate_activation(test4, m) is None:
                seen.add("aperiodic")
            outcome = scalar_outcome(fault, compared[:, lane], want)
            assert {1: True, 0: False, -1: None}[verdict_ok[lane]] == outcome
            outcomes.add((fault.reg_class, outcome))
    # Every verdict, window-less test-4 failures and every outcome occurred.
    windowed = VerdictKind.ACTIVATION_WINDOW
    assert {(kind, kind is not windowed) for kind in VerdictKind} <= seen
    assert "aperiodic" in seen
    for cls in RegClass:
        assert {(cls, True), (cls, False)} <= outcomes
    for cls in (RegClass.ACTIVATION, RegClass.WEIGHT_INDEX):
        assert (cls, None) in outcomes
