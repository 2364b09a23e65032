"""Output checks for the benchmark, independent of the simulator's own code.

Matmul results are compared with a numpy oracle that prunes, multiplies and
wraps on its own; cycle counts with the closed form of the driver's timing
model; campaign reports with their internal invariants and with digests
recorded per declared seed.  ``self_check`` proves that the oracle agrees
with the simulator's packing and that corrupted outputs are caught.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from stasim import (
    ArrayConfig,
    FaultSite,
    Layer,
    RegClass,
    Workload,
    densify,
    pack_tile,
    random_tiles,
    run_campaign,
    tiled_matmul,
)

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Column values every fault-free session must compare to, per test.
CLEAN_COMPARED = (0, -1, 0, 0)


def oracle_prune(dense, m: int, n: int) -> np.ndarray:
    """Keep the n largest magnitudes of every m-row column block.

    Ties go to the lower position: a stable sort on descending magnitude
    keeps equal magnitudes in position order.
    """
    w = np.asarray(dense, dtype=np.int64)
    rows, cols = w.shape
    blocks = w.reshape(rows // m, m, cols)
    order = np.argsort(-np.abs(blocks), axis=1, kind="stable")
    keep = np.zeros(blocks.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :n, :], True, axis=1)
    return np.where(keep, blocks, 0).reshape(rows, cols)


def oracle_matmul(a, w, config: ArrayConfig) -> np.ndarray:
    """Dense product with the pruned weights, wrapped at ``acc_width``."""
    if config.active_slots != config.n:
        raise ValueError("the oracle models configurations with every slot active")
    product = np.asarray(a, dtype=np.int64) @ oracle_prune(w, config.m, config.n)
    half = 1 << (config.acc_width - 1)
    return (product + half) % (2 * half) - half


def matmul_cycles(layers, config: ArrayConfig) -> int:
    """Closed form: every tile costs R load + (X + R + C - 1) stream + 4 test."""
    r, c = config.rows, config.cols
    total = 0
    for a, w in layers:
        x, k = a.shape
        tiles = -(-k // config.block_rows) * -(-w.shape[1] // c)
        total += tiles * (r + x + r + c - 1 + 4)
    return total


def matmul_errors(output, layers, expected, config: ArrayConfig) -> list[str]:
    """Everything wrong with one ``tiled_matmul`` call's output."""
    results, stats, reports = output
    errors = []
    for li, (got, want) in enumerate(zip(results, expected)):
        if got.shape != want.shape or not np.array_equal(got, want):
            errors.append(f"layer {li}: result differs from the numpy oracle")
    if len(results) != len(expected):
        errors.append(f"{len(results)} results for {len(expected)} layers")
    want_cycles = matmul_cycles(layers, config)
    if stats.total_cycles != want_cycles:
        errors.append(f"sim_cycles {stats.total_cycles} != closed form {want_cycles}")
    # Every layer of a workload shares one X, so the overhead is exact.
    x = layers[0][0].shape[0]
    overhead = overhead_fraction(stats)
    if overhead != Fraction(4, x + 2 * config.rows + config.cols - 1):
        errors.append(f"test_overhead {overhead} != 4/(X+2R+C-1)")
    if len(reports) != stats.tiles_executed:
        errors.append(f"{len(reports)} session reports for {stats.tiles_executed} tiles")
    for rep in reports:
        if rep.detected or any(
            any(v != want for v in row) for row, want in zip(rep.compared, CLEAN_COMPARED)
        ):
            errors.append(f"fault-free session {rep.tile_id} did not land on (0, -1, 0, 0)")
            break
    return errors


def overhead_fraction(stats) -> Fraction:
    """Test cycles over the cycles the same run takes without testing."""
    return Fraction(stats.test_cycles, stats.total_cycles - stats.test_cycles)


def campaign_errors(report: dict, tiles: int, total: int, harmless: bool) -> list[str]:
    """Invariants every coverage report must satisfy."""
    errors = []
    curve = report["cumulative_curve"]
    if report["tiles"] != tiles or len(curve) != tiles:
        errors.append(f"curve of {len(curve)} points for {tiles} tiles")
    if report["total_faults"] != total:
        errors.append(f"{report['total_faults']} faults reported, {total} evaluated")
    buckets = report["per_class"].values()
    if sum(b["total"] for b in buckets) != report["total_faults"]:
        errors.append("per-class totals do not add up to total_faults")
    if sum(b["detected"] for b in buckets) != report["detected"]:
        errors.append("per-class detections do not add up to detected")
    for name, b in report["per_class"].items():
        if b["detected"] + b["undetected"] != b["total"]:
            errors.append(f"{name}: detected + undetected != total")
        judged = b["harmless_verified"] + b["not_harmless"]
        if judged != (b["undetected"] if harmless else 0):
            errors.append(f"{name}: {judged} harmless verdicts for {b['undetected']} escapes")
    if any(a > b for a, b in zip(curve, curve[1:])):
        errors.append("cumulative curve decreases")
    if curve and curve[-1] != report["detected"] / report["total_faults"]:
        errors.append("curve does not end at the detected fraction")
    if report["coverage"] != report["detected"] / report["total_faults"]:
        errors.append("coverage != detected / total_faults")
    cls = report["classification"]
    if not 0 <= cls["correct"] <= cls["checked"] <= report["detected"]:
        errors.append("classification counts out of order")
    return errors


def sessions_per_fault(report: dict) -> float:
    """Sessions run per fault: a fault first detected at tile t costs t + 1,
    an escape costs one session per tile."""
    total = report["total_faults"]
    detected_by = [round(c * total) for c in report["cumulative_curve"]]
    sessions = 0
    previous = 0
    for t, cum in enumerate(detected_by):
        sessions += (cum - previous) * (t + 1)
        previous = cum
    sessions += (total - report["detected"]) * report["tiles"]
    return sessions / total


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    """The report digest recorded for this workload and seed, if any."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def digest_errors(recorded: str | None, got: str) -> list[str]:
    """A mismatch with the recorded digest; nothing when none is recorded."""
    if recorded is not None and recorded != got:
        return [f"report digest {got[:12]} != recorded {recorded[:12]}"]
    return []


def self_check() -> list[str]:
    """Problems with the checks themselves; empty when they can be trusted."""
    problems = []
    rng = np.random.default_rng(12345)
    for m, n in ((4, 2), (4, 1), (3, 2), (5, 3), (6, 2), (7, 1)):
        for lo, hi in ((-3, 4), (-(1 << 15), 1 << 15)):
            dense = rng.integers(lo, hi, size=(4 * m, 9), dtype=np.int64)
            if not np.array_equal(oracle_prune(dense, m, n), densify(pack_tile(dense, m, n))):
                problems.append(f"oracle pruning disagrees with pack_tile at {n}:{m}")

    config = ArrayConfig(rows=2, cols=3)
    a = rng.integers(-(1 << 15), 1 << 15, size=(5, 16), dtype=np.int64)
    w = rng.integers(-(1 << 15), 1 << 15, size=(16, 5), dtype=np.int64)
    layers = [(a, w)]
    expected = [oracle_matmul(a, w, config)]
    output = tiled_matmul(Workload([Layer(a, w)]), config)
    if matmul_errors(output, layers, expected, config):
        problems.append("a correct matmul fails its checks")
    results, stats, reports = output
    bad_result = [results[0].copy()]
    bad_result[0][2, 1] += 1
    bad_stats = dataclasses.replace(stats, compute_cycles=stats.compute_cycles + 1)
    bad_report = dataclasses.replace(
        reports[1], compared=((1, 0, 0), *reports[1].compared[1:])
    )
    for name, corrupt in (
        ("result", (bad_result, stats, reports)),
        ("cycle count", (results, bad_stats, reports)),
        ("session report", (results, stats, [reports[0], bad_report, *reports[2:]])),
    ):
        if not matmul_errors(corrupt, layers, expected, config):
            problems.append(f"a corrupted matmul {name} passes its checks")

    faults = [FaultSite(cls, 0, 1, 0, 1, s) for cls in RegClass for s in (0, 1)]
    tiles = random_tiles(rng, config, 3, magnitude=8)
    report = run_campaign(tiles, config, faults=faults, check_harmless=True).to_dict()
    if campaign_errors(report, 3, len(faults), True):
        problems.append("a correct campaign report fails its checks")
    for name, path, value in (
        ("detected count", ("detected",), report["detected"] + 1),
        ("class total", ("per_class", "weight", "total"), 1 + report["per_class"]["weight"]["total"]),
        ("curve order", ("cumulative_curve", 0), report["cumulative_curve"][-1] + 0.1),
        ("curve length", ("cumulative_curve",), report["cumulative_curve"][1:]),
    ):
        bad = copy.deepcopy(report)
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        if not campaign_errors(bad, 3, len(faults), True):
            problems.append(f"a corrupted campaign {name} passes its checks")
    if not digest_errors(digest("a"), digest("b")):
        problems.append("a digest mismatch passes its check")
    return problems
