"""Run one stasim benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload campaign --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``.  Timed calls repeat until the
next one would end past ``--seconds`` (at least MIN_CALLS of them); every
call's output is checked.  Host time is wall-clock time on this machine;
simulated statistics are exact and printed beside it.  With ``--trace 0``
the final JSON line holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones: half the time runs untraced, half with spans around
stasim's public functions (written to ``.bench_out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

MIN_CALLS = 3
#: Set-ups per run; ``setup_s`` is their median.  Each runs in a fresh
#: interpreter, between timed calls and spread over the window, so that the
#: set-ups meet the same machine load as the calls do.
SETUP_REPEATS = 9

#: Times one set-up in a fresh interpreter: import stasim, make the inputs.
#: numpy is imported before the clock starts: its import is not stasim's
#: work, yet takes about half of a fresh interpreter's set-up.
SETUP_PROBE = """
import sys
from pathlib import Path
from time import perf_counter
import numpy
t0 = perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].make(int(sys.argv[4]), Path(sys.argv[5]))
print(perf_counter() - t0)
"""


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(BENCH_DIR),
         workload, str(seed), str(workdir)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Measurement:
    """Timed calls of one phase and what their checks found."""

    def __init__(self):
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.exact: dict | None = None
        self.work = 0

    @property
    def median(self) -> float:
        return statistics.median(self.samples)


def measure(spec, inputs, expected, seconds: float, tracer=None, probes=()) -> Measurement:
    """Call the workload until ``seconds`` are spent, checking every output.

    ``probes`` are run one at a time between calls, evenly over the window.
    """
    result = Measurement()
    pending = list(probes)
    start = perf_counter()
    while True:
        while pending and perf_counter() - start >= (len(probes) - len(pending)) * seconds / len(probes):
            pending.pop()()
        if tracer is not None:
            tracer.request = result.attempted
        result.attempted += 1
        t0 = perf_counter()
        try:
            output = spec.call(inputs)
        except Exception:
            traceback.print_exc()
            result.failed += 1
        else:
            result.samples.append(perf_counter() - t0)
            errors, exact, result.work = spec.check(inputs, expected, output)
            if result.exact is None:
                result.exact = exact
            elif exact != result.exact:
                errors.append(f"simulated statistics changed between calls: {exact}")
            for error in errors:
                print(f"check failed: {error}", file=sys.stderr)
            result.failed += bool(errors)
        typical = result.median if result.samples else 0.0
        if result.attempted >= MIN_CALLS and perf_counter() - start + typical > seconds:
            for probe in pending:
                probe()
            return result


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value:>14.6g} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stasim" / "__init__.py").is_file():
        print(f"error: no stasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import numpy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    inputs = spec.make(args.seed, workdir)
    problems = checks.self_check()
    if problems:
        for problem in problems:
            print(f"self-check failed: {problem}", file=sys.stderr)
        return 3
    expected = spec.expect(inputs)

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# host: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}; host times depend on the machine and its load, "
          "so compare them only as ratios between runs on one machine")
    if args.trace:
        plain = measure(spec, inputs, expected, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            timed = measure(spec, inputs, expected, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        phases = (plain, timed)
        metrics = tracer.summary(len(timed.samples) or 1, sum(timed.samples) or 1.0)
        metrics["campaign.sessions_per_fault"] = (timed.exact or {}).get("sessions_per_fault", 0.0)
        metrics["trace.overhead"] = timed.median / plain.median
        units = {name: _layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            show(name, value, units[name])
    else:
        setups = []

        def probe():
            setups.append(probe_setup(args.workload, args.seed, workdir))

        timed = measure(spec, inputs, expected, args.seconds, probes=[probe] * SETUP_REPEATS)
        phases = (timed,)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": timed.median,
            "work_per_s": timed.work / timed.median,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
        show("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} set-ups")
        show("wall_s", timed.median, "s", f"host, median of {len(timed.samples)} calls")
        tail_point = tail(timed.samples)
        if tail_point:
            show(f"wall_s_p{tail_point[0]:.0f}", tail_point[1], "s", "host, 10 calls beyond")
        show(f"{spec.work_unit}_per_s", metrics["work_per_s"], "1/s",
             f"work_per_s: {timed.work} {spec.work_unit} per call")
        show("peak_rss_mb", metrics["peak_rss_mb"], "MB")

    exact = dict(timed.exact or {})
    digest = exact.pop("digest", None)
    for name, value in exact.items():
        show(name, value, "exact")
    if digest:
        print(f"{'report_digest':34s} {digest[:16]}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    show("error_rate", failed / attempted, "failed/attempted")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_pct"):
        return "%"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
