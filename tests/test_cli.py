"""The ``daos`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_workloads_subcommand(self):
        args = build_parser().parse_args(["workloads"])
        assert args.command == "workloads"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "parsec3/freqmine"])
        assert args.config == "baseline"
        assert args.machine == "i3.metal"

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--machine", "z1d.metal", "--seed", "9", "--time-scale", "0.1",
             "run", "parsec3/freqmine", "-c", "prcl"]
        )
        assert args.machine == "z1d.metal"
        assert args.seed == 9
        assert args.time_scale == 0.1
        assert args.config == "prcl"

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "w", "-c", "warp"])

    def test_tune_samples(self):
        args = build_parser().parse_args(["tune", "parsec3/raytrace", "-n", "6"])
        assert args.samples == 6

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "parsec3/freqmine" in out
        assert "splash2x/ocean_ncp" in out

    def test_unknown_workload_is_clean_error(self, capsys):
        rc = main(["--time-scale", "0.05", "run", "parsec3/doom"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_run_baseline(self, capsys):
        rc = main(["--time-scale", "0.05", "run", "splash2x/volrend"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        assert "avg RSS" in out

    def test_run_prcl_prints_normalised(self, capsys):
        rc = main(["--time-scale", "0.1", "run", "splash2x/volrend", "-c", "prcl"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme" in out
        assert "S/volrend" in out

    def test_record_prints_heatmap(self, capsys):
        rc = main(["--time-scale", "0.1", "record", "splash2x/volrend"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "monitor:" in out
        assert "addr [" in out

    def test_wss(self, capsys):
        rc = main(["--time-scale", "0.1", "wss", "splash2x/volrend"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50" in out

    def test_fleet_smoke(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = ["fleet", "-n", "30", "--duration", "60", "--sanitize"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        out = capsys.readouterr().out
        assert "30 tenants" in out
        assert "digest" in out

    def test_fleet_sharded_smoke(self, capsys):
        rc = main(["fleet", "-n", "30", "--duration", "60", "--shards", "3"])
        assert rc == 0
        assert "3 pool(s)" in capsys.readouterr().out

    def test_tune_smoke(self, capsys):
        # Tiny scale: the tuned value is meaningless, but the whole
        # sample→fit→peak→report pipeline must run.
        rc = main(["--time-scale", "0.05", "tune", "splash2x/volrend", "-n", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best min_age" in out

    def test_schemes_from_file(self, capsys, tmp_path):
        scheme_file = tmp_path / "my.schemes"
        scheme_file.write_text("4K max min min 2s max pageout\n")
        rc = main(
            ["--time-scale", "0.1", "schemes", "splash2x/volrend", "-f", str(scheme_file)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pageout" in out

    def test_missing_scheme_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.schemes"
        rc = main(["schemes", "splash2x/volrend", "-f", str(missing)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scheme file")
        assert len(err.strip().splitlines()) == 1

    def test_headerless_checkpoint_exits_4(self, capsys, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_text('{"format": "daos-ckpt-v1"}\n')
        assert main(["resume", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'kind'" in err
        assert len(err.strip().splitlines()) == 1
