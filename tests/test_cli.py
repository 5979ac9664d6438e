import argparse
import dataclasses
import sys

import numpy as np
import pytest

import knotopt as ko
from knotopt import cli, optimize
from conftest import fail_on_call


class TestCurveFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        vertices = rng.standard_normal((12, 3)) * np.pi
        text = cli.serialize_curve(vertices, comment="round trip")
        parsed = cli.parse_curve(text)
        assert np.array_equal(parsed, vertices)

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\npolyline 4 2  # inline\n0 0\n1 0 # vertex\n1 1\n0 1\n"
        parsed = cli.parse_curve(text)
        assert parsed.shape == (4, 2)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(cli.CurveParseError, match="parse error at line 1"):
            cli.parse_curve("polygon 4 2\n")
        with pytest.raises(cli.CurveParseError, match="parse error at line 3"):
            cli.parse_curve("polyline 4 2\n0 0\n1 0 0\n1 1\n0 1\n")
        with pytest.raises(cli.CurveParseError, match="parse error"):
            cli.parse_curve("polyline 4 2\n0 0\n1 0\n")

    def test_read_write_files(self, tmp_path):
        p = ko.regular_ngon(10)
        path = tmp_path / "ngon.txt"
        cli.write_curve(path, p)
        q = cli.read_curve(path)
        assert np.array_equal(q.vertices, p.vertices)


class TestConfigFile:
    def test_parse_and_reject_unknown_keys(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("method = projgd\nmax_iter = 7\n# comment\nalpha=2.5\n")
        values = cli.parse_config_file(good)
        assert values == {"method": "projgd", "max_iter": 7, "alpha": 2.5}
        bad = tmp_path / "bad.cfg"
        bad.write_text("stepsize = 3\n")
        with pytest.raises(cli.CurveParseError, match="unknown key"):
            cli.parse_config_file(bad)

    def test_booleans_in_any_case(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for text, value in (("1", True), ("TRUE", True), ("Yes", True),
                            ("0", False), ("False", False), ("NO", False)):
            cfg.write_text(f"single_thread = {text}\n")
            assert cli.parse_config_file(cfg) == {"single_thread": value}

    def test_non_boolean_exit_two(self, tmp_path, capsys):
        # At one time any word but 1/true/yes read as false.
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        cfg = tmp_path / "maybe.cfg"
        cfg.write_text("single_thread = maybe\n")
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(curve_file), "--config", str(cfg),
                         "--max-iter", "1", "--out-dir", str(out_dir)])
        assert code == 2
        assert ("parse error at line 1: bad value for 'single_thread'"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_every_optimizer_setting_reachable(self):
        # A field of OptimizerConfig that no run key changes is a dead knob.
        cfg = cli.RunConfig(method="lbfgs", metric="l2", alpha=7.0, max_iter=3,
                            grad_tol=1e-6, quad_k=2, budget_s=5.0)
        built = cfg.optimizer_config()
        default = optimize.OptimizerConfig()
        for f in dataclasses.fields(optimize.OptimizerConfig):
            assert getattr(built, f.name) != getattr(default, f.name), f.name

    def test_run_flags_are_the_config_keys(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {a.dest: a.option_strings
                   for a in subparsers.choices["run"]._actions if a.dest != "help"}
        names = ["config"] + [f.name for f in dataclasses.fields(cli.RunConfig)]
        assert options == {n: ["--" + n.replace("_", "-")] for n in names}


class TestGenerate:
    def test_ngon_file(self, tmp_path):
        out = tmp_path / "ngon.txt"
        code = cli.main(["generate", "ngon", "--n", "256", "--out", str(out)])
        assert code == 0
        polygon = cli.read_curve(out)
        assert polygon.num_vertices == 256

    def test_torus_knot_embedded(self, tmp_path):
        out = tmp_path / "trefoil.txt"
        code = cli.main(["generate", "torus-knot", "--p", "2", "--q", "3",
                         "--n", "120", "--out", str(out)])
        assert code == 0
        polygon = cli.read_curve(out)
        assert ko.proximity_report(polygon.vertices).min_distance > 0.0

    def test_undersized_rejected(self, tmp_path):
        out = tmp_path / "bad.txt"
        code = cli.main(["generate", "ngon", "--n", "3", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["coil", "--n", "48", "--windings", "0"],
        ["ngon", "--n", "8", "--dim", "1"],
        ["perturbed-circle", "--n", "32", "--amplitude", "nan"],
        ["torus-knot", "--n", "60", "--p", "2", "--q", "4"],
    ], ids=["windings-0", "dim-1", "amplitude-nan", "p2-q4"])
    def test_bad_value_exit_two(self, tmp_path, capsys, argv):
        out = tmp_path / "bad.txt"
        code = cli.main(["generate", *argv, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR usage: ")
        assert not out.exists()


class TestRun:
    def test_near_minimal_input_single_row(self, tmp_path, capsys):
        curve_file = tmp_path / "ngon64.txt"
        cli.write_curve(curve_file, ko.regular_ngon(64))
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(curve_file),
                         "--out-dir", str(out_dir), "--max-iter", "50"])
        assert code == 0
        rows = (out_dir / "trace.csv").read_text().strip().splitlines()
        assert rows[0] == cli.TRACE_HEADER
        assert len(rows) == 2  # header + the initial (already minimal) row
        final = cli.read_curve(out_dir / "final.txt")
        assert final.num_vertices == 64

    def test_snapshots_written(self, tmp_path):
        curve_file = tmp_path / "coil.txt"
        cli.write_curve(curve_file, ko.coiled_unknot(48, windings=2))
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(curve_file),
                         "--out-dir", str(out_dir), "--max-iter", "20",
                         "--snapshot-every", "10"])
        assert code == 0
        snaps = sorted(q.name for q in out_dir.glob("snap_*.txt"))
        assert "snap_000000.txt" in snaps
        assert "snap_000010.txt" in snaps

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("polyline 5 2\n0 0\n1 0\n")
        code = cli.main(["run", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "parse error at line" in capsys.readouterr().err

    @pytest.mark.parametrize("text,line", [
        ("polyline 4 2\n0 0\n1 nan\n1 1\n0 1\n", 3),
        ("polyline 0 0\n", 1),
    ])
    def test_bad_header_or_non_finite_exit_two(self, text, line, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(bad), "--out-dir", str(out_dir)])
        assert code == 2
        assert f"parse error at line {line}" in capsys.readouterr().err
        assert not (out_dir / "trace.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {curve_file}\nmethod = projgd\nmetric = w32\nmax_iter = 4\n"
        )
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--out-dir", str(out_dir),
                         "--max-iter", "2"])
        assert code == 0
        rows = (out_dir / "trace.csv").read_text().strip().splitlines()
        assert len(rows) - 1 <= 3  # override wins: at most iterations 0..2

    def test_linesearch_failure_keeps_trace_exit_one(self, tmp_path, monkeypatch,
                                                     capsys):
        curve_file = tmp_path / "coil.txt"
        cli.write_curve(curve_file, ko.coiled_unknot(48, windings=2))
        monkeypatch.setattr(optimize, "armijo_step", fail_on_call(
            optimize.armijo_step, 1, ko.LineSearchFailure("injected")))
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(curve_file),
                         "--out-dir", str(out_dir), "--max-iter", "10"])
        assert code == 1
        rows = (out_dir / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + iteration 0
        final = out_dir / "final.txt"
        assert final.read_text().splitlines()[0] == "# status linesearch_failure"
        assert cli.read_curve(final).num_vertices == 48
        captured = capsys.readouterr()
        assert "status linesearch_failure" in captured.out
        assert "ERROR" not in captured.err

    def test_numerical_failure_keeps_trace_exit_one(self, tmp_path, monkeypatch,
                                                    capsys):
        curve_file = tmp_path / "coil.txt"
        cli.write_curve(curve_file, ko.coiled_unknot(48, windings=2))
        monkeypatch.setattr(optimize, "factorize", fail_on_call(
            optimize.factorize, 3, ko.SingularSystem("injected")))
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(curve_file),
                         "--out-dir", str(out_dir), "--max-iter", "10"])
        assert code == 1
        rows = (out_dir / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + iterations 0 and 1
        assert "status numerical_failure" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--method", "bogus"),
                                            ("--metric", "bogus"),
                                            ("--alpha", "-1"),
                                            ("--alpha", "nan"),
                                            ("--quad-k", "0"),
                                            ("--snapshot-every", "-3")])
    def test_bad_setting_exit_two(self, flag, value, tmp_path, capsys):
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(curve_file), "--out-dir",
                         str(out_dir), flag, value])
        assert code == 2
        assert "ERROR usage:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", ["metric = bogus", "alpha = -1",
                                      "quad_k = 0", "snapshot_every = -3"])
    def test_bad_config_value_exit_two(self, line, tmp_path, capsys):
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {curve_file}\n{line}\n")
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == 2
        assert "ERROR usage:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_malformed_input_creates_no_out_dir(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("polyline 5 2\n0 0\n1 0\n")
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(bad), "--out-dir", str(out_dir)])
        assert code == 2
        assert "ERROR CurveParseError: parse error at line" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_value_error_while_running_is_not_usage(self, tmp_path, monkeypatch,
                                                    capsys):
        # Only the check step's ValueErrors are usage errors; one raised by
        # the optimizer is a fault of the program and propagates.
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))

        def broken_run(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(optimize, "run", broken_run)
        with pytest.raises(ValueError, match="injected"):
            cli.main(["run", "--input", str(curve_file),
                      "--out-dir", str(tmp_path / "out")])
        assert "ERROR usage" not in capsys.readouterr().err

    def test_trace_energies_non_increasing(self, tmp_path):
        curve_file = tmp_path / "coil.txt"
        cli.write_curve(curve_file, ko.coiled_unknot(48, windings=2))
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--input", str(curve_file),
                         "--out-dir", str(out_dir), "--max-iter", "15"]) == 0
        rows = (out_dir / "trace.csv").read_text().strip().splitlines()[1:]
        energies = [float(r.split(",")[2]) for r in rows]
        assert all(np.isfinite(energies))
        assert all(b <= a for a, b in zip(energies, energies[1:]))


class TestDeterminism:
    def test_identical_runs_identical_traces(self, tmp_path):
        curve_file = tmp_path / "coil.txt"
        cli.write_curve(curve_file, ko.coiled_unknot(48, windings=2))
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert cli.main(["run", "--input", str(curve_file),
                             "--out-dir", str(out_dir), "--max-iter", "10",
                             "--seed", "7"]) == 0
            outputs.append((out_dir / "trace.csv").read_text())

        def strip_time(text):
            rows = []
            for line in text.strip().splitlines():
                cells = line.split(",")
                del cells[1]
                rows.append(",".join(cells))
            return "\n".join(rows)

        assert strip_time(outputs[0]) == strip_time(outputs[1])


class TestBench:
    def test_grid_outputs(self, tmp_path):
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        out_dir = tmp_path / "bench"
        code = cli.main([
            "bench", "--inputs", str(curve_file),
            "--methods", "projgd,lbfgs", "--metrics", "w32,l2",
            "--budget-s", "2", "--max-iter", "40",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        summary = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "cell,final_energy,iterations,seconds,status"
        assert len(summary) == 5  # 2 methods x 2 metrics
        assert len(list(out_dir.glob("pc__*.csv"))) == 4

    def test_cells_take_the_canonical_metric_name(self, tmp_path):
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        out_dir = tmp_path / "bench"
        code = cli.main(["bench", "--inputs", str(curve_file), "--methods", "projgd",
                         "--metrics", "W32", "--budget-s", "1", "--max-iter", "1",
                         "--out-dir", str(out_dir)])
        assert code == 0
        assert sorted(f.name for f in out_dir.glob("pc__*.csv")) == ["pc__projgd__w32.csv"]
        assert "pc__projgd__w32," in (out_dir / "summary.csv").read_text()

    def test_budget_respected(self, tmp_path):
        curve_file = tmp_path / "coil.txt"
        cli.write_curve(curve_file, ko.coiled_unknot(64, windings=3))
        out_dir = tmp_path / "bench"
        code = cli.main([
            "bench", "--inputs", str(curve_file),
            "--methods", "projgd", "--metrics", "l2",
            "--budget-s", "1.5", "--out-dir", str(out_dir),
        ])
        assert code == 0
        rows = (out_dir / "coil__projgd__l2.csv").read_text().strip().splitlines()[1:]
        last_time = float(rows[-1].split(",")[1])
        assert last_time <= 1.5 + 3.0  # budget plus one-iteration overshoot

    def test_summary_deterministic(self, tmp_path):
        # With stopping by iteration count (budget slack), the summary is a
        # pure function of inputs, configuration, and seed apart from the
        # wall-clock column.
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        summaries = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert cli.main([
                "bench", "--inputs", str(curve_file),
                "--methods", "projgd,ncg", "--metrics", "w32",
                "--budget-s", "600", "--max-iter", "8",
                "--out-dir", str(out_dir),
            ]) == 0
            rows = (out_dir / "summary.csv").read_text().strip().splitlines()
            stripped = []
            for row in rows:
                cells = row.split(",")
                del cells[3]  # seconds column
                stripped.append(",".join(cells))
            summaries.append("\n".join(stripped))
        assert summaries[0] == summaries[1]

    def test_unknown_method_exit_two(self, tmp_path):
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        code = cli.main([
            "bench", "--inputs", str(curve_file), "--methods", "adam",
            "--metrics", "l2", "--budget-s", "1",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 2


    def test_unknown_metric_exit_two_before_any_cell(self, tmp_path, capsys):
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        out_dir = tmp_path / "x"
        code = cli.main([
            "bench", "--inputs", str(curve_file), "--methods", "projgd",
            "--metrics", "w32,bogus", "--budget-s", "1",
            "--out-dir", str(out_dir),
        ])
        assert code == 2
        assert "ERROR usage:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_embedded_input_exit_one(self, tmp_path, capsys):
        bow_tie = tmp_path / "bow.txt"
        bow_tie.write_text("polyline 4 2\n0 0\n1 1\n1 0\n0 1\n")
        out_dir = tmp_path / "x"
        code = cli.main([
            "bench", "--inputs", str(bow_tie), "--methods", "projgd",
            "--metrics", "w32", "--budget-s", "1", "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR SelfIntersection:")
        assert not out_dir.exists()

    def test_malformed_later_input_runs_nothing(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        cli.write_curve(good, ko.perturbed_circle(24))
        bad = tmp_path / "bad.txt"
        bad.write_text("polyline 5 2\n0 0\n1 0\n")
        out_dir = tmp_path / "x"
        code = cli.main([
            "bench", "--inputs", f"{good},{bad}", "--methods", "projgd",
            "--metrics", "w32", "--budget-s", "1", "--out-dir", str(out_dir),
        ])
        assert code == 2
        assert "ERROR CurveParseError:" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_duplicate_stems_exit_two(self, tmp_path, capsys):
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "c.txt")
            cli.write_curve(paths[-1], ko.perturbed_circle(24))
        out_dir = tmp_path / "x"
        code = cli.main([
            "bench", "--inputs", ",".join(map(str, paths)), "--methods",
            "projgd", "--metrics", "w32", "--budget-s", "1",
            "--out-dir", str(out_dir),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR usage:")
        assert not out_dir.exists()

    @pytest.mark.parametrize("methods,metrics", [("projgd,projgd", "w32"),
                                                 ("projgd", ""),
                                                 ("projgd", "w32,W32"),
                                                 ("projgd", "w32,w32geometric")])
    def test_repeated_or_missing_names_exit_two(self, methods, metrics, tmp_path,
                                                capsys):
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        out_dir = tmp_path / "x"
        code = cli.main([
            "bench", "--inputs", str(curve_file), "--methods", methods,
            "--metrics", metrics, "--budget-s", "1", "--out-dir", str(out_dir),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR usage:")
        assert not out_dir.exists()


class TestSingleThread:
    # Without threadpoolctl the flag cannot be honoured, so it is refused.
    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_refused_without_threadpoolctl(self, command, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        curve_file = tmp_path / "pc.txt"
        cli.write_curve(curve_file, ko.perturbed_circle(24))
        args = {
            "run": ["run", "--input", str(curve_file)],
            "bench": ["bench", "--inputs", str(curve_file), "--methods",
                      "projgd", "--metrics", "l2", "--budget-s", "1"],
        }[command]
        code = cli.main(args + ["--out-dir", str(tmp_path / "out"),
                                "--single-thread"])
        assert code == 2
        err = capsys.readouterr().err
        for var in ("OMP_NUM_THREADS=1", "OPENBLAS_NUM_THREADS=1",
                    "MKL_NUM_THREADS=1"):
            assert var in err
        assert not (tmp_path / "out" / "trace.csv").exists()


class TestCheck:
    def test_valid_curve(self, tmp_path, capsys):
        curve_file = tmp_path / "tre.txt"
        cli.write_curve(curve_file, ko.torus_knot(2, 3, 60))
        assert cli.main(["check", "--input", str(curve_file)]) == 0
        out = capsys.readouterr().out
        assert "energy" in out and "min_pair_distance" in out

    def test_self_intersecting_curve(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("polyline 4 2\n0 0\n2 2\n0 2\n2 0\n")
        assert cli.main(["check", "--input", str(bad)]) == 1
        assert "SelfIntersection" in capsys.readouterr().err

    def test_pair_within_contact_scale_exit_one(self, tmp_path, capsys):
        # A gap of 1e-10 of the length is contact: both commands stop at the
        # input, before a run would report AlreadyColliding.
        near = tmp_path / "near.txt"
        near.write_text("polyline 8 2\n0 0\n3 0\n3 2\n2 2\n2 1.4e-9\n"
                        "1 1.4e-9\n1 2\n0 2\n")
        assert cli.main(["check", "--input", str(near)]) == 1
        assert capsys.readouterr().err.startswith("ERROR SelfIntersection:")
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--input", str(near), "--metric", "l2",
                         "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR SelfIntersection:")
        assert not out_dir.exists()

    def test_binary_file_exit_two(self, tmp_path, capsys):
        binary = tmp_path / "bin.txt"
        binary.write_bytes(b"polyline 4 2\n\xc0\xff\n")
        assert cli.main(["check", "--input", str(binary)]) == 2
        assert capsys.readouterr().err.startswith("ERROR UnicodeDecodeError:")

    @pytest.mark.parametrize("text,line", [
        ("polyline 4 2\n0 0\n1 0\ninf 1\n0 1\n", 4),
        ("polyline 0 0\n", 1),
        ("polyline 4 1\n0\n1\n2\n3\n", 1),
    ])
    def test_bad_header_or_non_finite_exit_two(self, text, line, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert cli.main(["check", "--input", str(bad)]) == 2
        assert f"parse error at line {line}" in capsys.readouterr().err
