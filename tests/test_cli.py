"""End-to-end runs of the command-line front end.

Everything goes through ``run_cli`` with an argv list, never a
subprocess, so exit codes and stderr text are asserted directly.
"""

import csv
import json
import re

import numpy as np
import pytest
import scipy.linalg

import tanmor.cli
import tanmor.gramians
import tanmor.reduction

from tanmor import StateSpace
from tanmor.cli import COMPARE_HEADER, TRACE_HEADER, build_parser, run_cli
from tanmor.modelio import load_model, save_model

from helpers import modal_stable, perturbed_trsyl


@pytest.fixture()
def plant(tmp_path):
    """A small dense-text model on disk, returned as (path, system)."""
    sys = modal_stable(2, 2, 2, seed=3)
    path = tmp_path / "plant.txt"
    save_model(sys, path, format="dense")
    return path, sys


def reduce_args(model_path, out_prefix, *extra):
    return [
        "reduce",
        "--model",
        str(model_path),
        "--max-order",
        "4",
        "--out",
        str(out_prefix),
        *extra,
    ]


def read_trace(prefix):
    with open(str(prefix) + ".trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestArgHandling:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(["shrink", "--model", "x"]) == 2
        capsys.readouterr()

    def test_missing_required_option_exits_2(self, capsys):
        assert run_cli(["reduce", "--model", "x", "--out", "y"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run_cli(["reduce", "--help"]) == 0
        assert "--max-order" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["reduce", "--model", "m", "--max-order", "6", "--out", "o"]
        )
        assert args.strategy == "max-error"
        assert args.K == 100
        assert args.omega_min == 1e-2
        assert args.omega_max == 1e2
        assert args.baseline == "balanced"
        assert args.timings is False


class TestReduceRun:
    def test_writes_trace_model_and_report(self, plant, tmp_path, capsys):
        path, _ = plant
        out = tmp_path / "run"
        assert run_cli(reduce_args(path, out)) == 0
        assert (tmp_path / "run.trace.csv").exists()
        assert (tmp_path / "run.model.txt").exists()
        assert (tmp_path / "run.report.json").exists()
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "run.trace.csv" in stdout

    def test_trace_layout(self, plant, tmp_path, capsys):
        """Header row is fixed, every data row has one cell per column."""
        path, _ = plant
        out = tmp_path / "run"
        run_cli(reduce_args(path, out))
        capsys.readouterr()
        header, rows = read_trace(out)
        assert header == TRACE_HEADER
        assert rows
        for row in rows:
            assert len(row) == len(TRACE_HEADER)
            assert float(row[1]) >= 0.0
            assert int(row[2]) >= 1 and int(row[3]) >= int(row[2])
            assert row[7] in ("0", "1")
            assert row[8] == "0.000"
        orders = [int(r[4]) for r in rows]
        assert orders == sorted(orders)

    def test_reduced_model_file_loads(self, plant, tmp_path, capsys):
        path, sys = plant
        out = tmp_path / "run"
        run_cli(reduce_args(path, out))
        capsys.readouterr()
        red = load_model(tmp_path / "run.model.txt", format="dense")
        assert red.n <= 4
        assert (red.p, red.q) == (sys.p, sys.q)

    def test_report_contents(self, plant, tmp_path, capsys):
        path, _ = plant
        out = tmp_path / "run"
        run_cli(reduce_args(path, out))
        capsys.readouterr()
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert set(report) == {
            "model",
            "format",
            "n",
            "p",
            "q",
            "strategy",
            "max_order",
            "iterations",
            "order",
            "gamma0",
            "gamma",
            "error_norm",
            "stable",
            "stop_reason",
        }
        assert report["format"] == "dense"
        assert (report["n"], report["p"], report["q"]) == (4, 2, 2)
        assert report["strategy"] == "max-error"
        assert report["max_order"] == 4
        assert report["order"] <= 4
        assert report["iterations"] >= 1
        assert report["gamma"] <= 1e-8 * report["gamma0"]
        assert isinstance(report["error_norm"], float)
        assert report["stable"] is True
        assert report["stop_reason"] == "converged-gamma"

    def test_identical_invocations_byte_identical(self, plant, tmp_path, capsys):
        """Two runs of the same configuration must not differ by a byte.

        The random strategy is the stressful case since it owns an RNG.
        """
        path, _ = plant
        extra = ["--strategy", "random", "--seed", "7", "--K", "40"]
        run_cli(reduce_args(path, tmp_path / "a", *extra))
        run_cli(reduce_args(path, tmp_path / "b", *extra))
        capsys.readouterr()
        first = (tmp_path / "a.trace.csv").read_bytes()
        second = (tmp_path / "b.trace.csv").read_bytes()
        assert first == second
        assert (tmp_path / "a.model.txt").read_bytes() == (
            tmp_path / "b.model.txt"
        ).read_bytes()

    def test_timings_flag_changes_seconds_column(self, plant, tmp_path, capsys):
        path, _ = plant
        run_cli(reduce_args(path, tmp_path / "t", "--timings"))
        capsys.readouterr()
        _, rows = read_trace(tmp_path / "t")
        for row in rows:
            assert re.fullmatch(r"\d+\.\d{3}", row[8])
            assert float(row[8]) >= 0.0

    def test_zero_model_reports_null_error(self, tmp_path, capsys):
        """An already-perfect model stops before the first iteration."""
        sys = StateSpace([[-1.0]], [[1.0, 0.0]], [[0.0], [0.0]])
        path = tmp_path / "silent.txt"
        save_model(sys, path)
        out = tmp_path / "run"
        assert run_cli(reduce_args(path, out)) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["iterations"] == 0
        assert report["order"] == 0
        assert report["error_norm"] is None
        assert report["stable"] is True
        _, rows = read_trace(out)
        assert rows == []

    def test_matrix_market_in_and_out(self, tmp_path, capsys):
        sys = modal_stable(3, 2, 2, seed=11)
        save_model(sys, tmp_path / "mm_plant", format="mm")
        out = tmp_path / "run"
        rc = run_cli(
            [
                "reduce",
                "--model",
                str(tmp_path / "mm_plant"),
                "--format",
                "mm",
                "--max-order",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        for key in "ABCD":
            assert (tmp_path / f"run.model.{key}.mtx").exists()
        red = load_model(tmp_path / "run.model", format="mm")
        assert red.n <= 3
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["format"] == "mm"


class TestGridFile:
    def grid(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text(
            "# test grid\n"
            "0.5 1.0  # two on one line\n"
            "\n"
            "2.0\n"
        )
        return path

    def test_discrete_uses_grid(self, plant, tmp_path, capsys):
        path, _ = plant
        out = tmp_path / "run"
        rc = run_cli(
            reduce_args(
                path,
                out,
                "--strategy",
                "discrete",
                "--grid-file",
                str(self.grid(tmp_path)),
            )
        )
        assert rc == 0
        capsys.readouterr()
        _, rows = read_trace(out)
        for row in rows:
            assert float(row[1]) in (0.5, 1.0, 2.0)

    def test_grid_file_requires_discrete(self, plant, tmp_path, capsys):
        path, _ = plant
        rc = run_cli(
            reduce_args(path, tmp_path / "x", "--grid-file", str(self.grid(tmp_path)))
        )
        assert rc == 2
        assert "discrete" in capsys.readouterr().err

    def test_unreadable_token_exits_1(self, plant, tmp_path, capsys):
        path, _ = plant
        bad = tmp_path / "grid.txt"
        bad.write_text("1.0\nfast\n")
        rc = run_cli(
            reduce_args(
                path, tmp_path / "x", "--strategy", "discrete", "--grid-file", str(bad)
            )
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[ParseError]")


class TestOrderSweep:
    def test_orders_write_compare_csv(self, plant, tmp_path, capsys):
        path, _ = plant
        out = tmp_path / "run"
        rc = run_cli(reduce_args(path, out, "--orders", "2,4"))
        assert rc == 0
        capsys.readouterr()
        with open(str(out) + ".compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == COMPARE_HEADER
        assert [int(r[0]) for r in rows[1:]] == [2, 4]
        for row in rows[1:]:
            assert int(row[1]) <= int(row[0])
            assert float(row[2]) >= 0.0
            assert row[3] in ("0", "1")
            assert float(row[4]) >= 0.0

    def test_orders_run_the_greedy_loop_once(self, plant, tmp_path, capsys, monkeypatch):
        calls = []
        for owner in (tanmor.cli, tanmor.reduction):

            def counting(*args, _inner=owner.reduce, **kwargs):
                calls.append(1)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(owner, "reduce", counting)
        path, _ = plant
        out = tmp_path / "run"
        assert run_cli(reduce_args(path, out, "--orders", "2,4,6")) == 0
        capsys.readouterr()
        assert len(calls) == 1
        # Every row is read off the reported run; order 6 exceeds the
        # budget of 4 and reports the final model.
        _, trace_rows = read_trace(out)
        with open(str(out) + ".compare.csv", newline="") as fh:
            compare = list(csv.reader(fh))[1:]
        assert compare[-1][1:3] == [trace_rows[-1][4], trace_rows[-1][6]]

    def test_orders_compute_the_parent_gramian_once(
        self, plant, tmp_path, capsys, monkeypatch
    ):
        # One Gramian of the parent serves the greedy run, its error norms
        # and the balanced baseline; the other is the observability Gramian.
        path, sys = plant
        solved = []
        inner = tanmor.gramians.controllability_gramian

        def counting(s):
            solved.append(s.A)
            return inner(s)

        monkeypatch.setattr(tanmor.gramians, "controllability_gramian", counting)
        args = reduce_args(path, tmp_path / "run", "--orders", "2,4", "--baseline", "balanced")
        assert run_cli(args) == 0
        capsys.readouterr()
        parent = [A for A in solved if A.shape == sys.A.shape and np.allclose(A, sys.A)]
        assert len(parent) == 1
        assert len(solved) == 2

    def test_sweep_against_no_baseline(self, plant, tmp_path, capsys):
        path, _ = plant
        out = tmp_path / "run"
        rc = run_cli(
            reduce_args(path, out, "--orders", "2", "--baseline", "none")
        )
        assert rc == 0
        capsys.readouterr()
        with open(str(out) + ".compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert np.isnan(float(rows[1][4]))

    def test_malformed_orders_exit_2(self, plant, tmp_path, capsys):
        path, _ = plant
        rc = run_cli(reduce_args(path, tmp_path / "x", "--orders", "2,six"))
        assert rc == 2
        assert "comma-separated" in capsys.readouterr().err
        # usage errors must be rejected before the run produces anything
        assert list(tmp_path.glob("x.*")) == []


class TestFailureExits:
    def test_missing_model_exits_1(self, tmp_path, capsys):
        rc = run_cli(reduce_args(tmp_path / "absent.txt", tmp_path / "x"))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[IoError]")

    def test_malformed_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("A =\n1 junk\nB =\n1\nC =\n1\n")
        rc = run_cli(reduce_args(bad, tmp_path / "x"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]")
        assert ":2: cannot parse number" in err

    def test_no_output_written_on_failure(self, tmp_path, capsys):
        run_cli(reduce_args(tmp_path / "absent.txt", tmp_path / "x"))
        capsys.readouterr()
        assert not list(tmp_path.glob("x.*"))

    def test_refused_parent_gramian_exits_1(self, plant, tmp_path, capsys, monkeypatch):
        path, _ = plant
        perturbed_trsyl(monkeypatch)
        rc = run_cli(reduce_args(path, tmp_path / "x"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[IllConditionedLyapunov]: Sylvester residual ")
        assert not list(tmp_path.glob("x.*"))

    def test_negative_order_exits_2_before_the_run(
        self, plant, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("reduce ran on a sweep request it refuses")

        monkeypatch.setattr(tanmor.cli, "reduce", no_run)
        path, _ = plant
        rc = run_cli(reduce_args(path, tmp_path / "x", "--orders", "8,-1"))
        assert rc == 2
        assert capsys.readouterr().err == "error: orders must be nonnegative\n"
        assert not list(tmp_path.glob("x.*"))

    def test_unstable_parent_with_balanced_baseline_exits_1_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # The stability verdict reads the Schur form load_model kept for its
        # pole check, so the whole command runs one Schur decomposition.
        path = tmp_path / "unstable.txt"
        parent = StateSpace(np.diag([1.0, -2.0, -3.0]), np.ones((3, 1)), np.ones((1, 3)))
        save_model(parent, path)
        schur, shapes = scipy.linalg.schur, []

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return schur(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting)
        rc = run_cli(reduce_args(path, tmp_path / "x", "--orders", "2"))
        assert rc == 1
        assert capsys.readouterr().err == (
            "error[UnstableSystem]: balanced truncation requires a strictly stable system\n"
        )
        assert not list(tmp_path.glob("x.*"))
        assert shapes == [(3, 3)]
