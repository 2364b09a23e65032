"""Command-line front end.

Subcommands: ``prune`` packs a dense weight CSV, ``matmul`` runs a tiled
multiply with or without online testing, ``selftest`` runs one test session
against a weight tile (optionally with injected faults), and ``campaign``
sweeps the fault universe and writes coverage artifacts.

Exit codes: 0 clean, 1 a self-test detected a fault, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from stasim.array import ArrayConfig, FaultSite, RegClass, TensorArray
from stasim.campaign import random_tiles, run_campaign
from stasim.driver import Layer, Workload, tiled_matmul
from stasim.selftest import compute_golden, run_session
from stasim.sparsity import densify, read_matrix_csv, write_matrix_csv

_CONFIG_KEYS = ("rows", "cols", "m", "n", "data_width", "acc_width", "mode", "seed")

#: Every class by its value, plus three short names.
_CLASS_ALIASES = {cls.value: cls for cls in RegClass} | {
    "act": RegClass.ACTIVATION,
    "index": RegClass.WEIGHT_INDEX,
    "edge": RegClass.EDGE_ACCUMULATOR,
}


def parse_fault_spec(spec: str) -> FaultSite:
    """Parse ``class:row:col:element:bit:stuck`` (e.g. ``weight:3:5:1:7:1``)."""
    parts = spec.split(":")
    if len(parts) != 6:
        raise ValueError(
            f"fault spec {spec!r} must have six ':'-separated fields "
            "(class:row:col:element:bit:stuck)"
        )
    cls = _CLASS_ALIASES.get(parts[0].strip().lower())
    if cls is None:
        raise ValueError(
            f"unknown register class {parts[0]!r}; "
            f"expected one of {sorted(set(_CLASS_ALIASES))}"
        )
    try:
        row, col, element, bit, stuck = (int(p) for p in parts[1:])
    except ValueError as exc:
        raise ValueError(f"fault spec {spec!r}: non-integer field") from exc
    return FaultSite(cls, row, col, element, bit, stuck)


def read_config_file(path) -> dict:
    """Parse a flat ``key=value`` config file ('#' starts a comment)."""
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; "
                    f"valid keys: {', '.join(_CONFIG_KEYS)}"
                )
            if key == "mode":
                values[key] = raw
                continue
            try:
                values[key] = int(raw)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} needs an integer, got {raw!r}"
                ) from None
    return values


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    grp = parent.add_argument_group("array configuration")
    grp.add_argument("--config", metavar="FILE", help="key=value config file")
    grp.add_argument("--rows", type=int)
    grp.add_argument("--cols", type=int)
    grp.add_argument("--m", type=int, help="sparsity block size")
    grp.add_argument("--n", type=int, help="weight slots per TPE")
    grp.add_argument("--data-width", type=int, dest="data_width")
    grp.add_argument("--acc-width", type=int, dest="acc_width")
    grp.add_argument("--mode", help="sparsity mode, e.g. 2:4 or 1:4")
    grp.add_argument("--seed", type=int, help="seed for all randomness")
    return parent


def resolve_config(args) -> tuple[ArrayConfig, int]:
    """Merge defaults, config file and explicit flags; returns (config, seed)."""
    merged: dict = {}
    if args.config:
        merged.update(read_config_file(args.config))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    seed = int(merged.pop("seed", 0))
    if seed < 0:
        raise ValueError(f"seed {seed} must be at least 0")
    return ArrayConfig(**merged), seed


def _write_json(path, data) -> None:
    """Write a JSON artifact: two-space indent, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_prune(args) -> int:
    config, _ = resolve_config(args)
    dense = read_matrix_csv(args.weights)
    tile = config.pack(dense)
    mask = densify(tile) != 0
    # One keep/drop bit string per block; blocks[i, j] is block (i, j).
    blocks = mask.reshape(tile.grid_rows, tile.m, -1).transpose(0, 2, 1)
    payload = tile.to_dict()
    payload["masks"] = [
        ["".join(map(str, block)) for block in row] for row in blocks.astype(int).tolist()
    ]
    _write_json(args.output, payload)
    kept = int(mask.sum())
    total = dense.size
    print(
        f"packed {dense.shape[0]}x{dense.shape[1]} weights into "
        f"{tile.grid_rows}x{tile.grid_cols} blocks ({tile.n}:{tile.m}); "
        f"non-zero ratio {kept}/{total} = {kept / total:.4f}"
    )
    return 0


def _tile_from_csv(path, config: ArrayConfig):
    """Read a weight CSV, zero-pad it to one tile and pack it for ``config``."""
    w = read_matrix_csv(path)
    br, cols = config.tile_shape
    if w.shape[0] > br or w.shape[1] > cols:
        raise ValueError(
            f"weight matrix {w.shape} exceeds one tile {br}x{cols}; "
            "use matmul for multi-tile workloads"
        )
    padded = np.zeros((br, cols), dtype=np.int64)
    padded[: w.shape[0], : w.shape[1]] = w
    return config.pack(padded)


def cmd_matmul(args) -> int:
    config, _ = resolve_config(args)
    a = read_matrix_csv(args.activations)
    w = read_matrix_csv(args.weights)
    testing = not args.no_testing
    workload = Workload(layers=[Layer(a=a, w=w)])
    results, stats, reports = tiled_matmul(workload, config, testing=testing)
    write_matrix_csv(args.output, results[0])
    detected = sum(1 for r in reports if r.detected)
    payload = {
        "cycles": stats.to_dict(),
        "testing": testing,
        "sessions_detected": detected,
    }
    if testing:
        baseline = stats.total_cycles - stats.test_cycles
        payload["overhead_vs_no_testing"] = stats.test_cycles / baseline
    if args.stats:
        _write_json(args.stats, payload)
    if args.reports:
        _write_json(args.reports, [r.to_dict() for r in reports])
    line = (
        f"{a.shape[0]}x{a.shape[1]} by {w.shape[0]}x{w.shape[1]} in "
        f"{stats.tiles_executed} tiles, {stats.total_cycles} cycles"
    )
    if testing:
        line += f", testing overhead {payload['overhead_vs_no_testing']:.4%}"
        if detected:
            line += f", {detected} session(s) detected faults"
    print(line)
    return 0


def cmd_selftest(args) -> int:
    config, _ = resolve_config(args)
    tile = _tile_from_csv(args.weights, config)
    array = TensorArray(config)
    for spec in args.fault or []:
        fault = parse_fault_spec(spec)
        array.inject(fault)
    array.load_weights(tile)
    golden = compute_golden(tile, config)
    report = run_session(array, golden, tile_id=args.weights)
    if args.output:
        _write_json(args.output, report.to_dict())
    flagged = [v for v in report.verdicts if v.kind.value != "ok"]
    if report.detected:
        print(
            "fault detected: "
            + "; ".join(
                f"column {v.column}: {v.kind.value}"
                + (f" window {v.window}" if v.window else "")
                for v in flagged
            )
        )
        return 1
    print("self-test clean")
    return 0


def cmd_campaign(args) -> int:
    config, seed = resolve_config(args)
    if args.jobs < 1:
        raise ValueError(f"--jobs {args.jobs} must be at least 1")
    if args.weights:
        for flag, value in (("--tiles", args.tiles), ("--magnitude", args.magnitude)):
            if value is not None:
                raise ValueError(f"--weights excludes {flag}: weight CSVs are the workload")
        tiles = [_tile_from_csv(path, config) for path in args.weights]
    else:
        rng = np.random.default_rng(seed)
        count = 10 if args.tiles is None else args.tiles
        tiles = random_tiles(rng, config, count, magnitude=args.magnitude)
    report = run_campaign(
        tiles,
        config,
        check_harmless=args.harmless,
        seed=seed,
    )
    _write_json(args.output, report.to_dict())
    if args.curve:
        report.write_curve_csv(args.curve)
    print(
        f"{report.detected}/{report.total_faults} faults detected "
        f"({report.coverage:.4%}) over {report.tiles} tiles; "
        f"classification {report.classification_correct}/"
        f"{report.classification_checked} correct where constrained"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stasim",
        description=(
            "Simulate an N:M structured-sparse systolic tensor array with "
            "periodic online self-test and stuck-at fault campaigns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _config_parent()

    p = sub.add_parser(
        "prune", parents=[parent], help="pack a dense weight CSV into a sparse tile"
    )
    p.add_argument("weights", help="dense weight matrix CSV")
    p.add_argument("-o", "--output", required=True, help="packed tile JSON path")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser(
        "matmul", parents=[parent], help="tiled matrix multiply on the array"
    )
    p.add_argument("activations", help="activation matrix CSV (X x K)")
    p.add_argument("weights", help="weight matrix CSV (K x C)")
    p.add_argument("-o", "--output", required=True, help="result matrix CSV path")
    p.add_argument("--stats", help="cycle statistics JSON path")
    p.add_argument("--reports", help="per-tile self-test report JSON path")
    p.add_argument(
        "--no-testing", action="store_true", help="skip the per-tile self-test"
    )
    p.set_defaults(func=cmd_matmul)

    p = sub.add_parser(
        "selftest", parents=[parent], help="run one self-test session on a tile"
    )
    p.add_argument("weights", help="weight matrix CSV (padded to one tile)")
    p.add_argument("-o", "--output", help="session report JSON path")
    p.add_argument(
        "--fault",
        action="append",
        metavar="CLASS:ROW:COL:ELEMENT:BIT:STUCK",
        help="inject a stuck-at fault (repeatable), e.g. weight:3:5:1:7:1",
    )
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser(
        "campaign", parents=[parent], help="sweep the stuck-at fault universe"
    )
    p.add_argument("--tiles", type=int, help="number of random workload tiles (default 10)")
    p.add_argument(
        "--weights",
        nargs="+",
        metavar="CSV",
        help="use these weight CSVs as the workload instead of random tiles",
    )
    p.add_argument(
        "--magnitude", type=int, help="bound |value| of random tile weights"
    )
    p.add_argument(
        "--harmless",
        action="store_true",
        help="verify undetected faults against random matmuls",
    )
    p.add_argument("--jobs", type=int, default=1, help="ignored; campaigns run in one process")
    p.add_argument("-o", "--output", required=True, help="coverage report JSON path")
    p.add_argument("--curve", help="cumulative coverage curve CSV path")
    p.set_defaults(func=cmd_campaign)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
