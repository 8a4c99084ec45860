"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_select_args(self):
        a = build_parser().parse_args(
            ["select", "--n", "300", "--strategy", "Pad"])
        assert a.command == "select" and a.n == 300 and a.strategy == "Pad"

    def test_csv_flags(self):
        a = build_parser().parse_args(["table3", "--csv", "out.csv"])
        assert a.csv == "out.csv"
        a = build_parser().parse_args(
            ["figures", "--kernel", "RESID", "--csv", "f.csv"])
        assert a.kernel == "RESID" and a.csv == "f.csv"

    def test_full_flag(self):
        a = build_parser().parse_args(["table3", "--full"])
        assert a.full

    def test_resilience_flags(self):
        a = build_parser().parse_args(
            ["table3", "--checkpoint", "out/t3.jsonl", "--resume",
             "--budget", "2.5"])
        assert a.checkpoint == "out/t3.jsonl" and a.resume
        assert a.budget == 2.5
        a = build_parser().parse_args(
            ["figures", "--kernel", "RESID", "--checkpoint", "f.jsonl"])
        assert a.checkpoint == "f.jsonl" and not a.resume

    def test_lattice_args(self):
        a = build_parser().parse_args(
            ["lattice", "--kernel", "RESID", "--n", "200", "--assoc", "1",
             "--assoc", "4", "--line", "64", "--strategy", "Orig",
             "--csv", "lat.csv"])
        assert a.command == "lattice" and a.kernel == "RESID"
        assert a.n == 200 and a.assoc == [1, 4] and a.line == [64]
        assert a.strategy == ["Orig"] and a.csv == "lat.csv"
        a = build_parser().parse_args(["lattice"])
        assert a.kernel == "JACOBI" and a.n == 300
        assert a.assoc is None and a.line is None

    def test_parallel_flags(self):
        a = build_parser().parse_args(
            ["table3", "--parallel", "4", "--point-timeout", "30"])
        assert a.parallel == 4 and a.point_timeout == 30.0
        a = build_parser().parse_args(["figures"])
        assert a.parallel == 1 and a.point_timeout is None
        assert not a.resume_force
        a = build_parser().parse_args(
            ["table3", "--checkpoint", "t.jsonl", "--resume-force"])
        assert a.resume_force

    @pytest.mark.parametrize("command", ["simulate", "table3", "figures",
                                         "lattice"])
    @pytest.mark.parametrize("flag", [["--extrapolate"],
                                      ["--trace-form", "flat"]])
    def test_simulation_path_flags_are_gone(self, command, flag):
        # Extrapolation over flat traces is the one exact path.
        argv = [command, *flag]
        if command == "simulate":
            argv += ["--n", "64"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestValidation:
    """Usage errors exit 2 with a one-line stderr message, no traceback."""

    def check(self, capsys, argv, match):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and match in err
        assert len(err.strip().splitlines()) == 1

    def test_nonpositive_n(self, capsys):
        self.check(capsys, ["select", "--n", "0"], "--n must be positive")
        self.check(capsys, ["simulate", "--kernel", "JACOBI", "--n", "-5"],
                   "--n must be positive")

    def test_unknown_strategy(self, capsys):
        self.check(capsys, ["select", "--n", "40", "--strategy", "Bogus"],
                   "unknown strategy")
        self.check(capsys,
                   ["simulate", "--kernel", "JACOBI", "--strategy", "Nope",
                    "--n", "40"],
                   "unknown strategy")

    def test_lattice_bad_grid(self, capsys):
        self.check(capsys, ["lattice", "--strategy", "Bogus"],
                   "unknown strategy")
        self.check(capsys, ["lattice", "--assoc", "0"],
                   "--assoc must be >= 1")
        self.check(capsys, ["lattice", "--line", "48"],
                   "--line must be a power of two")

    def test_out_of_range_level(self, capsys):
        self.check(capsys, ["mgrid", "--level", "1"], "--level")
        self.check(capsys, ["mgrid", "--level", "99"], "--level")

    def test_resume_without_checkpoint(self, capsys):
        self.check(capsys, ["table3", "--resume"],
                   "--resume requires --checkpoint")

    def test_resume_with_missing_checkpoint(self, capsys, tmp_path):
        self.check(capsys,
                   ["table3", "--resume", "--checkpoint",
                    str(tmp_path / "nope.jsonl")],
                   "does not exist")

    def test_nonpositive_budget(self, capsys):
        self.check(capsys, ["table3", "--budget", "0"],
                   "--budget must be positive")

    def test_nonpositive_parallel(self, capsys):
        self.check(capsys, ["table3", "--parallel", "0"],
                   "--parallel must be >= 1")

    def test_nonpositive_point_timeout(self, capsys):
        self.check(capsys, ["table3", "--point-timeout", "0"],
                   "--point-timeout must be positive")

    def test_resume_force_without_checkpoint(self, capsys):
        self.check(capsys, ["table3", "--resume-force"],
                   "--resume-force requires --checkpoint")


class TestCommands:
    def test_select(self, capsys):
        assert main(["select", "--n", "300", "--strategy", "GcdPad"]) == 0
        out = capsys.readouterr().out
        assert "30 x 14" in out and "352 x 304" in out

    def test_select_untiled(self, capsys):
        main(["select", "--n", "300", "--strategy", "Orig"])
        assert "(untiled)" in capsys.readouterr().out

    def test_select_small_cache(self, capsys):
        main(["select", "--n", "40", "--cs", "256"])
        assert "strategy : GcdPad" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--kernel", "JACOBI",
                     "--strategy", "Tile", "--n", "200"]) == 0
        out = capsys.readouterr().out
        assert "L1 miss rate" in out and "MFlops" in out

    def test_lattice(self, capsys, tmp_path):
        csv_path = tmp_path / "lat.csv"
        assert main(["lattice", "--n", "24", "--strategy", "Orig",
                     "--strategy", "GcdPad", "--assoc", "1", "--assoc", "2",
                     "--line", "32", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "L1 miss rate" in out and "1-way" in out and "2-way" in out
        assert "Padding gap" in out and "MFlops" in out
        assert csv_path.exists()
        # header + 2 strategies x 2 assocs x 1 line size
        assert len(csv_path.read_text().strip().splitlines()) == 5

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "(22, 13)" in out

    def test_fig22(self, capsys):
        assert main(["fig22"]) == 0
        assert "GcdPad" in capsys.readouterr().out

    def test_section1(self, capsys):
        assert main(["section1"]) == 0
        out = capsys.readouterr().out
        assert "1024" in out and "362" in out

    @pytest.mark.slow
    def test_mgrid(self, capsys):
        assert main(["mgrid", "--level", "5"]) == 0
        assert "improvement" in capsys.readouterr().out

    def test_table3_parallel_with_injected_kill(self, capsys, tmp_path,
                                                monkeypatch):
        # End-to-end: a parallel sweep whose second worker is SIGKILLed
        # still exits 0, prints the table, and journals every point.
        monkeypatch.setenv("REPRO_FAULT_WORKER", "kill:2")
        ckpt = tmp_path / "t3.jsonl"
        assert main(["table3", "--n", "40", "--parallel", "2",
                     "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert ckpt.exists()
