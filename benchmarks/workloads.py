"""The benchmark's workloads: inputs from a seed, one timed call, its checks.

Every timed call goes through a module attribute (``stasim.driver.tiled_matmul``,
``stasim.campaign.run_campaign``, ``stasim.cli.main``) so that the traced run
can wrap it.  ``make`` is the set-up that ``setup_s`` times; ``expect``
prepares what the checks compare against and is not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import stasim.campaign
import stasim.cli
import stasim.driver
from stasim import ArrayConfig, enumerate_faults, random_tiles, synthetic_workload

import checks

CONFIG = ArrayConfig()

#: Tile mix of acceptance criterion 8: six full-range tiles, then four of
#: shrinking magnitude whose small sums let some faults escape tile 0.
MAGNITUDES = (None,) * 6 + (4096, 512, 64, 8)

#: Every FAULT_STRIDE-th fault of each register class.  The stride is odd
#: because the polarity is the innermost loop of ``enumerate_faults``: an
#: even stride would pick stuck-at-0 faults only.
FAULT_STRIDE = 33


def sample_faults(universe):
    """A fixed sample keeping every register class at its share of the universe."""
    by_class: dict = {}
    for fault in universe:
        by_class.setdefault(fault.reg_class, []).append(fault)
    return [f for group in by_class.values() for f in group[::FAULT_STRIDE]]


class Matmul:
    """``tiled_matmul`` with testing on, over one random layer of a fixed shape."""

    work_unit = "sim_cycles"

    def __init__(self, shape: tuple[int, int, int]):
        self.shape = shape

    def make(self, seed: int, workdir: Path):
        return synthetic_workload(np.random.default_rng(seed), [self.shape])

    def expect(self, workload):
        return [checks.oracle_matmul(layer.a, layer.w, CONFIG) for layer in workload.layers]

    def call(self, workload):
        return stasim.driver.tiled_matmul(workload, CONFIG, testing=True)

    def check(self, workload, expected, output):
        """(errors, exact simulated statistics, work done) of one call."""
        layers = [(layer.a, layer.w) for layer in workload.layers]
        errors = checks.matmul_errors(output, layers, expected, CONFIG)
        stats = output[1]
        exact = {
            "sim_cycles": stats.total_cycles,
            "test_overhead": float(checks.overhead_fraction(stats)),
        }
        return errors, exact, stats.total_cycles


class Campaign:
    """``run_campaign`` in-process over a fixed fault sample and the criterion-8 tiles."""

    work_unit = "faults"

    def make(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        tiles = [random_tiles(rng, CONFIG, 1, magnitude=mag)[0] for mag in MAGNITUDES]
        return seed, tiles, sample_faults(enumerate_faults(CONFIG))

    def expect(self, inputs):
        return checks.recorded_digest("campaign", inputs[0])

    def call(self, inputs):
        seed, tiles, faults = inputs
        return stasim.campaign.run_campaign(
            tiles,
            CONFIG,
            faults=faults,
            verify_classification=True,
            check_harmless=True,
            seed=seed,
            jobs=1,
        )

    def check(self, inputs, recorded, report):
        _, tiles, faults = inputs
        data = report.to_dict()
        errors = checks.campaign_errors(data, len(tiles), len(faults), harmless=True)
        exact = campaign_exact(data, report.to_json())
        errors += checks.digest_errors(recorded, exact["digest"])
        return errors, exact, len(faults)


class CampaignCli:
    """``stasim campaign`` on a 4x4 array, whole universe, two worker processes."""

    work_unit = "faults"
    config = ArrayConfig(rows=4, cols=4)
    tiles = 4

    def make(self, seed: int, workdir: Path):
        argv = [
            "campaign", "--rows", "4", "--cols", "4", "--tiles", str(self.tiles),
            "--harmless", "--jobs", "2", "--seed", str(seed),
            "-o", str(workdir / "coverage.json"), "--curve", str(workdir / "curve.csv"),
        ]
        return seed, argv, workdir

    def expect(self, inputs):
        return len(enumerate_faults(self.config)), checks.recorded_digest("campaign_cli", inputs[0])

    def call(self, inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            return stasim.cli.main(inputs[1])

    def check(self, inputs, expected, status):
        workdir = inputs[2]
        total, recorded = expected
        if status != 0:
            return [f"stasim campaign exited with {status}"], {}, total
        coverage = workdir / "coverage.json"
        curve = workdir / "curve.csv"
        text = coverage.read_text()
        rows = curve.read_text().splitlines()
        coverage.unlink()
        curve.unlink()
        data = json.loads(text)
        errors = checks.campaign_errors(data, self.tiles, total, harmless=True)
        want_rows = ["tile_index,coverage"] + [
            f"{i},{c:.6f}" for i, c in enumerate(data["cumulative_curve"], start=1)
        ]
        if rows != want_rows:
            errors.append("curve CSV does not match the report's curve")
        exact = campaign_exact(data, text + "\n".join(rows))
        errors += checks.digest_errors(recorded, exact["digest"])
        return errors, exact, total


def campaign_exact(data: dict, artifacts: str) -> dict:
    """Exact statistics of one campaign call; the digest covers every artifact."""
    return {
        "coverage": data["coverage"],
        "sessions_per_fault": checks.sessions_per_fault(data),
        "digest": checks.digest(artifacts),
    }


WORKLOADS = {
    "campaign": Campaign(),
    "matmul_long": Matmul((256, 64, 32)),
    "matmul_short": Matmul((8, 256, 128)),
    "campaign_cli": CampaignCli(),
}
