"""Record the report digest of each campaign workload for the declared seeds.

    python3 benchmarks/record_digests.py

Run it only at a commit whose campaign results are trusted: ``run.py`` then
counts a failure whenever a report for one of these seeds differs, so a
change that was meant to leave the simulation alone cannot move coverage,
per-class counts or the curve unnoticed.  Other seeds are checked for the
report invariants and for repeating exactly within a run.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED_SEEDS = range(40)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads

    table = {}
    for name in ("campaign", "campaign_cli"):
        spec = workloads.WORKLOADS[name]
        table[name] = {}
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            for seed in DECLARED_SEEDS:
                inputs = spec.make(seed, Path(tmp))
                errors, exact, _ = spec.check(inputs, spec.expect(inputs), spec.call(inputs))
                # A digest recorded earlier may differ: that is what is being replaced.
                stale = checks.digest_errors(checks.recorded_digest(name, seed), exact["digest"])
                errors = [e for e in errors if e not in stale]
                if errors:
                    print(f"{name} seed {seed}: {'; '.join(errors)}", file=sys.stderr)
                    return 1
                table[name][str(seed)] = exact["digest"]
                print(f"{name} seed {seed}: coverage {exact['coverage']:.6f}", flush=True)
    with open(checks.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
