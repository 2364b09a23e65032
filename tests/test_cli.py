"""End-to-end tests of the command-line interface via main(argv)."""

import hashlib
import json

import numpy as np
import pytest

from stasim.array import FaultSite, RegClass
from stasim.cli import main, parse_fault_spec, read_config_file
from stasim.sparsity import (
    SparseWeightTile,
    densify,
    pack_tile,
    read_matrix_csv,
    write_matrix_csv,
)


def write_csv(path, arr):
    write_matrix_csv(path, np.asarray(arr, dtype=np.int64))
    return str(path)


def block_mask(blk, m):
    """Keep/drop string of one block: 1 where a non-zero value survived."""
    kept = {i for v, i in zip(blk.values, blk.indexes) if v != 0}
    return "".join("1" if i in kept else "0" for i in range(m))


@pytest.fixture
def ones_tile_csv(tmp_path):
    """A full 8x8-tile weight matrix of ones (32 dense rows, 8 columns)."""
    return write_csv(tmp_path / "w.csv", np.ones((32, 8), dtype=np.int64))


def test_prune_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(501)
    dense = rng.integers(-100, 101, size=(8, 6), dtype=np.int64)
    w_csv = write_csv(tmp_path / "w.csv", dense)
    out = tmp_path / "tile.json"
    assert main(["prune", w_csv, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    tile = SparseWeightTile.from_dict(payload)
    want = pack_tile(dense, 4, 2, 16)
    assert np.array_equal(densify(tile), densify(want))
    assert payload["masks"] == [[block_mask(blk, 4) for blk in row] for row in want.blocks]
    assert "non-zero ratio" in capsys.readouterr().out


def test_prune_ratio_of_ones(tmp_path, capsys):
    w_csv = write_csv(tmp_path / "w.csv", np.ones((8, 8), dtype=np.int64))
    assert main(["prune", w_csv, "-o", str(tmp_path / "tile.json")]) == 0
    assert "= 0.5000" in capsys.readouterr().out


def test_prune_follows_config(tmp_path, capsys):
    dense = np.arange(1, 17, dtype=np.int64).reshape(16, 1)
    w_csv = write_csv(tmp_path / "w.csv", dense)
    cfg = tmp_path / "array.cfg"
    cfg.write_text("m=8\nn=3\ndata_width=8\n")
    out = tmp_path / "tile.json"
    assert main(["prune", w_csv, "--config", str(cfg), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["m"], payload["n"], payload["data_width"]) == (8, 3, 8)
    assert payload["masks"] == [["00000111"], ["00000111"]]
    assert "(3:8)" in capsys.readouterr().out
    assert main(["prune", w_csv, "--mode", "3:4", "-o", str(out)]) == 2
    assert "mode" in capsys.readouterr().err


def test_matmul_testing_does_not_change_output(tmp_path, capsys):
    rng = np.random.default_rng(503)
    a_csv = write_csv(tmp_path / "a.csv", rng.integers(-50, 51, size=(5, 40)))
    w_csv = write_csv(tmp_path / "w.csv", rng.integers(-50, 51, size=(40, 10)))
    out_on = tmp_path / "on.csv"
    out_off = tmp_path / "off.csv"
    stats_on = tmp_path / "on.json"
    stats_off = tmp_path / "off.json"
    reports = tmp_path / "reports.json"
    assert (
        main(
            [
                "matmul", a_csv, w_csv,
                "-o", str(out_on), "--stats", str(stats_on),
                "--reports", str(reports),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "matmul", a_csv, w_csv, "--no-testing",
                "-o", str(out_off), "--stats", str(stats_off),
            ]
        )
        == 0
    )
    assert np.array_equal(read_matrix_csv(out_on), read_matrix_csv(out_off))
    on = json.loads(stats_on.read_text())
    off = json.loads(stats_off.read_text())
    tiles = on["cycles"]["tiles_executed"]
    assert tiles == 2 * 2
    assert on["cycles"]["test_cycles"] == 4 * tiles
    assert off["cycles"]["test_cycles"] == 0
    assert "overhead_vs_no_testing" not in off
    baseline = on["cycles"]["total_cycles"] - on["cycles"]["test_cycles"]
    assert on["overhead_vs_no_testing"] == pytest.approx(
        on["cycles"]["test_cycles"] / baseline
    )
    assert baseline == off["cycles"]["total_cycles"]
    assert on["sessions_detected"] == 0
    session_list = json.loads(reports.read_text())
    assert len(session_list) == tiles
    assert all(not r["detected"] for r in session_list)
    assert "testing overhead" in capsys.readouterr().out


def test_matmul_shape_mismatch_exits_2(tmp_path, capsys):
    a_csv = write_csv(tmp_path / "a.csv", np.ones((2, 8), dtype=np.int64))
    w_csv = write_csv(tmp_path / "w.csv", np.ones((9, 4), dtype=np.int64))
    assert main(["matmul", a_csv, w_csv, "-o", str(tmp_path / "r.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_selftest_clean(ones_tile_csv, tmp_path, capsys):
    assert main(["selftest", ones_tile_csv]) == 0
    assert "self-test clean" in capsys.readouterr().out


def test_selftest_weight_fault_detected(ones_tile_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["selftest", ones_tile_csv, "--fault", "weight:0:0:0:3:1", "-o", str(out)]
    )
    assert code == 1
    assert "weight_register" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["detected"]
    assert report["verdicts"][0]["verdict"] == "weight_register"
    assert all(v["verdict"] == "ok" for v in report["verdicts"][1:])


def test_selftest_activation_fault_window(ones_tile_csv, tmp_path, capsys):
    # ones prune to slots 0 and 1, so element 3 is only ever selected by the
    # forced-selection test; its ramp value 4 gains bit 0 and fails columns
    # congruent to 3 mod 4 from the faulty column onward
    out = tmp_path / "report.json"
    code = main(
        ["selftest", ones_tile_csv, "--fault", "activation:0:2:3:0:1", "-o", str(out)]
    )
    assert code == 1
    assert "window" in capsys.readouterr().out
    report = json.loads(out.read_text())
    windows = [v for v in report["verdicts"] if v["verdict"] == "activation_window"]
    assert windows
    assert windows[0]["window"] == [0, 3]
    assert windows[0]["window"][0] <= 2 <= windows[0]["window"][1]


def test_selftest_fault_on_padded_tile(tmp_path):
    w_csv = write_csv(tmp_path / "w.csv", np.ones((3, 2), dtype=np.int64))
    assert main(["selftest", w_csv]) == 0
    too_big = write_csv(tmp_path / "big.csv", np.ones((33, 8), dtype=np.int64))
    assert main(["selftest", too_big]) == 2


def test_selftest_bad_fault_spec_exits_2(ones_tile_csv, capsys):
    assert main(["selftest", ones_tile_csv, "--fault", "weight:0:0:0:3"]) == 2
    assert main(["selftest", ones_tile_csv, "--fault", "bogus:0:0:0:3:1"]) == 2
    assert main(["selftest", ones_tile_csv, "--fault", "weight:0:0:0:x:1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_selftest_conflicting_faults_exit_2(ones_tile_csv, capsys):
    faults = ["--fault", "weight:0:0:0:3:0", "--fault", "weight:0:0:0:3:1"]
    assert main(["selftest", ones_tile_csv, *faults]) == 2
    err = capsys.readouterr().err
    assert "weight:0:0:0:3:1" in err and "weight:0:0:0:3:0" in err


def test_parse_fault_spec_round_trip():
    sites = [
        FaultSite(RegClass.ACTIVATION, 1, 2, 3, 0, 1),
        FaultSite(RegClass.WEIGHT, 3, 5, 1, 7, 1),
        FaultSite(RegClass.WEIGHT_INDEX, 0, 0, 1, 1, 0),
        FaultSite(RegClass.OUTPUT, 7, 7, 0, 31, 0),
        FaultSite(RegClass.EDGE_ACCUMULATOR, 0, 4, 0, 16, 1),
    ]
    for site in sites:
        assert parse_fault_spec(site.spec()) == site
    assert parse_fault_spec("act:1:2:3:0:1") == sites[0]
    assert parse_fault_spec("edge:0:4:0:16:1") == sites[4]
    with pytest.raises(ValueError):
        parse_fault_spec("weight:1:2:3:4")


def test_read_config_file(tmp_path):
    cfg = tmp_path / "array.cfg"
    cfg.write_text(
        "# comment line\n"
        "rows = 2\n"
        "cols=2  # trailing comment\n"
        "\n"
        "mode = 1:4\n"
    )
    assert read_config_file(cfg) == {"rows": 2, "cols": 2, "mode": "1:4"}
    cfg.write_text("depth = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        read_config_file(cfg)
    cfg.write_text("rows\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(cfg)
    cfg.write_text("rows = 2\nm = x\n")
    with pytest.raises(ValueError, match=r"array\.cfg:2: key 'm' needs an integer, got 'x'"):
        read_config_file(cfg)


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "array.cfg"
    cfg.write_text("rows=4\ncols=2\nm=4\nn=2\ndata_width=8\nacc_width=16\n")
    out = tmp_path / "campaign.json"
    code = main(
        [
            "campaign", "--config", str(cfg), "--rows", "2",
            "--tiles", "1", "-o", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["rows"] == 2
    assert payload["config"]["cols"] == 2
    assert payload["config"]["data_width"] == 8


def test_campaign_outputs_are_reproducible(tmp_path, capsys):
    args = [
        "campaign", "--rows", "2", "--cols", "2",
        "--data-width", "8", "--acc-width", "16",
        "--tiles", "2",
    ]
    runs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.json"
        curve = tmp_path / f"{tag}.csv"
        assert main(args + ["-o", str(out), "--curve", str(curve)]) == 0
        runs.append((out.read_bytes(), curve.read_bytes()))
    assert runs[0] == runs[1]
    payload = json.loads(runs[0][0])
    assert payload["total_faults"] == 608
    assert payload["detected"] > 0
    assert "faults detected" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, coverage_sha256, curve_sha256",
    [
        (
            [],
            "c1b06ae3c3cce5e943d358b750a38bf0e1e1ce1a5dc54dd0340865a1bb78fa87",
            "5257908bde2e80a6f7e599398e9e3062dd60a444f5163dcc739af89a8b794e4a",
        ),
        (
            ["--rows", "4", "--cols", "4", "--mode", "1:4"],
            "f44d9657a3a285f52fabbcd8d1cdd3ad40d22aca597fbc5350fdf4edc25d9606",
            "be60d98d4c782899261a2aedb43191ff4c9270982510f3bafcdd3b51ae843b39",
        ),
    ],
    ids=["8x8-2:4", "4x4-1:4"],
)
def test_full_universe_harmless_campaign_artifacts_are_pinned(
    flags, coverage_sha256, curve_sha256, tmp_path
):
    # Whole fault universe, 10 random tiles, seed 0, harmless check on: the
    # bytes of both artifacts are pinned, so any engine change that moves a
    # single outcome shows here.
    out, curve = tmp_path / "coverage.json", tmp_path / "curve.csv"
    assert main(["campaign", "--harmless", *flags, "-o", str(out), "--curve", str(curve)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == coverage_sha256
    assert hashlib.sha256(curve.read_bytes()).hexdigest() == curve_sha256


def test_campaign_with_explicit_weight_csvs(tmp_path):
    rng = np.random.default_rng(509)
    w_csv = write_csv(
        tmp_path / "w.csv", rng.integers(-100, 101, size=(8, 2), dtype=np.int64)
    )
    out = tmp_path / "campaign.json"
    code = main(
        [
            "campaign", "--rows", "2", "--cols", "2",
            "--data-width", "8", "--acc-width", "16",
            "--weights", w_csv, "-o", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["tiles"] == 1


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["prune", str(tmp_path / "absent.csv"), "-o", str(tmp_path / "t.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_csv_cell_beyond_int64_exits_2(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text(f"1,2,3,4\n5,{1 << 63},7,8\n")
    w_csv = write_csv(tmp_path / "w.csv", np.ones((4, 1), dtype=np.int64))
    assert main(["matmul", str(big), w_csv, "-o", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert f"big.csv:2: column 1: value {1 << 63} does not fit 64 bits" in err


@pytest.mark.parametrize("command", ["prune", "selftest"])
def test_out_of_range_weight_exits_2_with_its_location(command, tmp_path, capsys):
    w = np.ones((8, 4), dtype=np.int64)
    w[6, 3] = 40000
    w_csv = write_csv(tmp_path / "w.csv", w)
    out = ["-o", str(tmp_path / "out.json")]
    assert main([command, "--rows", "2", "--cols", "4", w_csv, *out]) == 2
    assert "weight row 6 column 3: value 40000 outside 16-bit" in capsys.readouterr().err


def test_campaign_negative_magnitude_exits_2(tmp_path, capsys):
    args = ["campaign", "--rows", "2", "--cols", "2", "--magnitude", "-5"]
    assert main(args + ["-o", str(tmp_path / "c.json")]) == 2
    assert "magnitude -5 outside 0..32767 for 16-bit weights" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(4))
def test_campaign_magnitude_beyond_data_width_exits_2(seed, tmp_path, capsys):
    """Rejected up front, whatever weights the seed would have drawn."""
    args = ["campaign", "--rows", "1", "--cols", "1", "--tiles", "1", "--seed", str(seed)]
    out = tmp_path / "c.json"
    assert main(args + ["--magnitude", "40000", "-o", str(out)]) == 2
    assert "magnitude 40000 outside 0..32767 for 16-bit weights" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--magnitude", "32767", "-o", str(out)]) == 0


@pytest.mark.parametrize("source", ["flag", "config file"])
def test_negative_seed_exits_2_naming_the_seed(source, tmp_path, capsys):
    if source == "flag":
        args = ["--seed", "-1"]
    else:
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("seed = -1\n")
        args = ["--config", str(cfg)]
    argv = ["campaign", "--rows", "1", "--cols", "1", "--tiles", "1", *args]
    assert main(argv + ["-o", str(tmp_path / "c.json")]) == 2
    assert "seed -1 must be at least 0" in capsys.readouterr().err


def test_prune_one_active_slot_mode(tmp_path):
    """Under 1:4 each block keeps its one largest value; the gated slot holds (0, 0)."""
    w_csv = write_csv(tmp_path / "w.csv", [[1], [0], [0], [9]])
    out = tmp_path / "tile.json"
    assert main(["prune", w_csv, "--mode", "1:4", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["blocks"] == [[{"values": [9, 0], "indexes": [3, 0]}]]
    assert payload["masks"] == [["0001"]]


@pytest.mark.parametrize("count", [-3, 0])
def test_campaign_tile_count_below_one_exits_2_naming_it(count, tmp_path, capsys):
    out = tmp_path / "c.json"
    args = ["campaign", "--rows", "1", "--cols", "1", "--tiles", str(count), "-o", str(out)]
    assert main(args) == 2
    assert f"tile count {count} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_jobs_below_one_exits_2_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "c.json"
    args = ["campaign", "--rows", "1", "--cols", "1", "--tiles", "1", "-o", str(out)]
    assert main(args + ["--jobs", "-5"]) == 2
    assert "--jobs -5 must be at least 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--jobs", "2"]) == 0


@pytest.mark.parametrize(
    "extra, flag",
    [(["--tiles", "-4", "--magnitude", "3"], "--tiles"), (["--magnitude", "3"], "--magnitude")],
    ids=["tiles", "magnitude"],
)
def test_campaign_weights_exclude_random_tile_flags(extra, flag, tmp_path, capsys):
    w_csv = write_csv(tmp_path / "w.csv", np.ones((4, 2), dtype=np.int64))
    out = tmp_path / "c.json"
    args = ["campaign", "--rows", "1", "--cols", "2", "--weights", w_csv, "-o", str(out)]
    assert main(args + extra) == 2
    assert f"--weights excludes {flag}" in capsys.readouterr().err
    assert not out.exists()
    assert main(args) == 0
