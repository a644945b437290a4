import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lsts import StationaryAR, run_experiment, run_test, simulate
from lsts.cli import bench_cells, build_parser, main, read_series
from lsts.sieve import ESTIMATORS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def ar_file(tmp_path):
    path = tmp_path / "ar.csv"
    x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=7)
    path.write_text("".join(f"{v:.17g}\n" for v in x))
    return path


class TestSimulate:
    def test_byte_identical_repeats(self, capsys):
        code1, out1, _ = run_cli(capsys, "simulate", "--model", "ar1", "--phi", "0.5", "--T", "128", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "simulate", "--model", "ar1", "--phi", "0.5", "--T", "128", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 128

    def test_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "alt3", "--T", "256")
        assert code == 0
        assert len(out.splitlines()) == 256

    def test_ma1_autocorrelation(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "ma1", "--theta", "0.9", "--T", "10000", "--seed", "4")
        assert code == 0
        x = np.array([float(v) for v in out.split()])
        xc = x - x.mean()
        rho = (xc[:-1] @ xc[1:]) / (xc @ xc)
        assert abs(rho - 0.9 / 1.81) < 0.02

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--model", "garch", "--T", "64")
        assert code == 3
        assert "garch" in err

    def test_too_short(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--model", "ar1", "--T", "4")
        assert code == 3

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "sim.csv"
        code, out, _ = run_cli(capsys, "simulate", "--model", "alt1", "--T", "64", "-o", str(out_path))
        assert code == 0
        assert out == ""
        assert len(out_path.read_text().splitlines()) == 64


class TestTest:
    def test_stationary_series_text(self, ar_file, capsys):
        code, out, _ = run_cli(capsys, "test", str(ar_file), "--N", "16", "--seed", "3")
        assert code == 0
        assert "statistic" in out and "decision" in out
        assert "N=16 M=8" in out

    def test_round_trip_matches_library(self, ar_file, capsys):
        code, out, _ = run_cli(capsys, "test", str(ar_file), "--N", "16", "--seed", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=7)
        direct = run_test(x, N=16, B=200, alpha=0.05, seed=3)
        assert payload["results"]["statistic"] == pytest.approx(direct.statistic, rel=1e-12)
        assert payload["results"]["critical_value"] == pytest.approx(direct.critical_value, rel=1e-12)

    def test_short_series(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("".join(f"{v}\n" for v in range(10)))
        code, _, err = run_cli(capsys, "test", str(path))
        assert code == 3
        assert "too short" in err

    @pytest.mark.parametrize("command", ["test", "surface"])
    def test_short_series_mentions_differencing_only_with_diff(self, tmp_path, capsys, command):
        path = tmp_path / "short.csv"
        path.write_text("".join(f"{v}\n" for v in range(20)))
        code, _, err = run_cli(capsys, command, str(path))
        assert (code, err) == (3, "lsts: error: series too short: 20 observations, need 32\n")
        code, _, err = run_cli(capsys, command, str(path), "--diff")
        assert (code, err) == (3, "lsts: error: series too short: 19 observations after differencing, need 32\n")

    def test_estimator_choices_follow_library(self):
        sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
        estimator = next(a for a in sub.choices["test"]._actions if a.dest == "estimator")
        assert tuple(estimator.choices) == ESTIMATORS

    @pytest.mark.parametrize(
        "scale, length, window, message",
        [
            (1.0, 512, "13", "N must be an even integer >= 4, got 13"),
            (1.0, 20, "16", "series too short: 20 observations, need 32"),
            (1e160, 512, "16", "the series' autocovariance overflows float64 (max |x - mean| = {spread}); rescale the series"),
            (1e-170, 512, "16", "the series' autocovariance underflows float64 (max |x - mean| = {spread}); rescale the series"),
        ],
        ids=["odd-window", "short", "overflow", "underflow"],
    )
    def test_fails_like_surface(self, tmp_path, capsys, scale, length, window, message):
        path = tmp_path / "x.csv"
        x = simulate(StationaryAR(coeffs=(0.5,)), 512, seed=11)[:length] * scale
        path.write_text("".join(f"{v:.17g}\n" for v in x))
        message = message.format(spread=f"{np.abs(x - x.mean()).max():.3g}")
        test = run_cli(capsys, "test", str(path), "--N", window)
        surface = run_cli(capsys, "surface", str(path), "--N", window)
        assert test == surface == (3, "", f"lsts: error: {message}\n")

    @pytest.mark.parametrize("scale, flow", [(1e160, "overflows"), (1e-170, "underflows")])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_out_of_range_scale_asks_to_rescale(self, tmp_path, capsys, scale, flow, estimator):
        path = tmp_path / "scaled.csv"
        x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=11) * scale
        path.write_text("".join(f"{v:.17g}\n" for v in x))
        code, _, err = run_cli(capsys, "test", str(path), "--estimator", estimator)
        assert code == 3
        assert err.startswith(f"lsts: error: the series' autocovariance {flow} float64 (max |x - mean| = ")
        assert err.endswith("); rescale the series\n")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "test", "/nonexistent/data.csv")
        assert code == 2

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n2.0\noops\n" + "1.0\n" * 40)
        code, _, err = run_cli(capsys, "test", str(path))
        assert code == 2
        assert "oops" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [1, 11])
    def test_non_finite_value_is_parse_error(self, tmp_path, capsys, token, row):
        # a first-row nan parses as a float, so it is data, not a header to drop
        values = [f"{v}.5" for v in range(64)]
        values.insert(row - 1, token)
        path = tmp_path / "nonfinite.csv"
        path.write_text("".join(f"{v}\n" for v in values))
        code, out, err = run_cli(capsys, "test", str(path))
        assert (code, out) == (2, "")
        assert err == f"lsts: parse error: non-finite value {token!r} at data row {row}\n"

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"prix\xe9\n1.0\n2.0\n")
        code, out, err = run_cli(capsys, "test", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("lsts: parse error: input is not UTF-8 text:") and "0xe9" in err

    def test_non_utf8_stdin_is_parse_error(self):
        # a real pipe: Python's stdin text layer may turn the bad byte into a surrogate
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        data = b"prix\xe9\n" + b"".join(b"%d.5\n" % (i % 7) for i in range(64))
        proc = subprocess.run(
            [sys.executable, "-m", "lsts.cli", "test", "-", "--B", "19"],
            input=data, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"lsts: parse error: input is not UTF-8 text:") and b"0xe9" in proc.stderr

    def test_diff_flag(self, tmp_path, capsys):
        # a pure random walk differences to white noise
        rng = np.random.default_rng(5)
        walk = np.cumsum(rng.standard_normal(257))
        path = tmp_path / "walk.csv"
        path.write_text("".join(f"{v:.17g}\n" for v in walk))
        code, out, _ = run_cli(capsys, "test", str(path), "--diff", "--format", "json", "--seed", "2")
        assert code == 0
        assert json.loads(out)["config"]["T"] == 256

    def test_pre_estimator(self, tmp_path, capsys):
        x = simulate(StationaryAR(coeffs=(0.5,)), 64, seed=9)
        path = tmp_path / "x.csv"
        path.write_text("".join(f"{v:.17g}\n" for v in x))
        code, out, _ = run_cli(capsys, "test", str(path), "--estimator", "pre", "--B", "99", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["N"] is None

    def test_stdin_pipe_round_trip(self, ar_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(ar_file.read_text()))
        code, out, _ = run_cli(capsys, "test", "-", "--N", "16", "--seed", "3", "--format", "json")
        assert code == 0
        x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=7)
        direct = run_test(x, N=16, B=200, alpha=0.05, seed=3)
        assert json.loads(out)["results"]["statistic"] == pytest.approx(direct.statistic, rel=1e-12)

    def test_inadmissible_order_statistic(self, ar_file, capsys):
        code, out, err = run_cli(capsys, "test", str(ar_file), "--B", "10", "--alpha", "0.95")
        assert (code, out, err) == (3, "", "lsts: error: alpha=0.95 with B=10 leaves no admissible order statistic\n")

    def test_pre_estimator_ignores_odd_window(self, ar_file, capsys):
        code, out, err = run_cli(
            capsys, "test", str(ar_file), "--estimator", "pre", "--N", "13", "--B", "19", "--format", "json"
        )
        assert code == 0, err
        assert json.loads(out)["config"]["N"] is None


class TestSurface:
    def test_dimensions(self, ar_file, capsys):
        code, out, _ = run_cli(capsys, "surface", str(ar_file), "--N", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 8  # header + M rows
        assert all(len(line.split(",")) == 1 + 8 for line in lines)  # label + N/2 columns

    def test_zero_variance_input(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("1.0\n" * 64)
        code, out, _ = run_cli(capsys, "surface", str(path), "--N", "8")
        assert code == 0
        rows = [line.split(",")[1:] for line in out.strip().splitlines()[1:]]
        assert all(float(v) == 0.0 for row in rows for v in row)

    @pytest.mark.parametrize(
        "value, length, argv",
        [(1e308, 64, ["--N", "8"]), (1e300, 112, ["--N", "14"]), (1e200, 112, ["--N", "14"])],
        ids=["1e308-N8", "1e300-N14", "1e200-N14"],
    )
    def test_overflowing_constant_asks_to_rescale(self, tmp_path, capsys, value, length, argv):
        # a constant passes the range check, but its surface would be nan; `surface`
        # has no pre estimator, so the pre case (1e200) lives in test_sieve.py
        path = tmp_path / "flat.csv"
        path.write_text(f"{value}\n" * length)
        code, out, err = run_cli(capsys, "surface", str(path), *argv)
        assert (code, out) == (3, "")
        assert err == f"lsts: error: the series' spectral estimates overflow float64 (max |x| = {value:.3g}); rescale the series\n"

    def test_matches_library_surface(self, ar_file, capsys):
        from lsts import distance_process

        code, out, _ = run_cli(capsys, "surface", str(ar_file), "--N", "16")
        x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=7)
        proc = distance_process(x, 16)
        first_row = [float(v) for v in out.strip().splitlines()[1].split(",")[1:]]
        assert np.allclose(first_row, proc.values[0], atol=1e-15)

    def test_zero_window(self, ar_file, capsys):
        code, out, err = run_cli(capsys, "surface", str(ar_file), "--N", "0")
        assert code == 3
        assert out == ""
        assert "N must be an even integer" in err and "got 0" in err

    @pytest.mark.parametrize("command", ["test", "surface"])
    def test_window_leaves_too_few_blocks(self, ar_file, capsys, command):
        code, _, err = run_cli(capsys, command, str(ar_file), "--N", "200")
        assert code == 3
        assert "0 block(s)" in err and "T=0" not in err

    def test_truncation_warns(self, ar_file, capsys):
        with pytest.warns(UserWarning, match="truncating tail to T=126"):
            code, out, _ = run_cli(capsys, "surface", str(ar_file), "--N", "6")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 21  # header + M rows of the first 126 values

    def test_output_file(self, ar_file, tmp_path, capsys):
        out_path = tmp_path / "surf.csv"
        code, out, _ = run_cli(capsys, "surface", str(ar_file), "--N", "16", "-o", str(out_path))
        assert code == 0
        assert out == ""
        assert len(out_path.read_text().strip().splitlines()) == 9

    def test_column_selection(self, tmp_path, capsys):
        x = simulate(StationaryAR(coeffs=(0.5,)), 64, seed=2)
        path = tmp_path / "wide.csv"
        path.write_text("idx,value\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(x)))
        code, out, _ = run_cli(
            capsys, "test", str(path), "--column", "value", "--N", "8", "--B", "99", "--format", "json"
        )
        assert code == 0
        direct = run_test(x, N=8, B=99, alpha=0.05, seed=0)
        assert json.loads(out)["results"]["statistic"] == pytest.approx(direct.statistic, rel=1e-12)


class TestWarnings:
    """Warnings reach the user as one `lsts: warning:` line, without a source location."""

    @pytest.mark.parametrize("command", ["test", "surface"])
    def test_shown_as_cli_message(self, ar_file, command):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        extra = ["--B", "19"] if command == "test" else []
        proc = subprocess.run(
            [sys.executable, "-m", "lsts.cli", command, str(ar_file), "--N", "6", *extra],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "lsts: warning: series length 128 not divisible by N=6; truncating tail to T=126\n"

    def test_main_restores_warning_format(self, ar_file, capsys):
        before = warnings.formatwarning
        with pytest.warns(UserWarning):
            run_cli(capsys, "surface", str(ar_file), "--N", "6")
        assert warnings.formatwarning is before


class TestBench:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--list")
        assert code == 0
        assert "T128-N16-ar0.5" in out
        assert "T128-N16-alt2" in out
        assert "T128-pre-alt3" in out
        assert "T256-N16-ma0.9" in out

    def test_reference_values(self):
        cells = bench_cells()
        assert cells["T128-N16-ar0.5"][1] == {0.05: 0.034, 0.10: 0.092}
        assert cells["T128-N16-alt2"][1][0.05] == 0.396
        assert cells["T128-pre-alt3"][1][0.05] == 0.036
        assert cells["T128-N16-ar0.5"][0].runs == 500
        assert cells["T128-N16-alt2"][0].runs == 200

    def test_unknown_cell(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--cell", "T999-N2-ar0")
        assert code == 3
        assert "unknown cell" in err

    def test_cell_required(self, capsys):
        code, _, err = run_cli(capsys, "bench")
        assert code == 3

    @pytest.mark.parametrize(
        "B,message",
        [("0", "B must be at least 1, got 0"), ("1", "alpha=0.05 with B=1 leaves no admissible order statistic")],
        ids=["0", "1"],
    )
    def test_too_few_replicates(self, capsys, B, message):
        code, out, err = run_cli(capsys, "bench", "--cell", "T64-N8-ar0.5", "--runs", "50", "--B", B)
        assert (code, out, err) == (3, "", f"lsts: error: {message}\n")

    def test_small_cell_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--cell", "T64-N8-ar0.5", "--runs", "50", "--B", "100", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["reference"]["0.05"] == 0.050
        assert 0.0 <= payload["results"]["rejection_rates"]["0.05"] <= 1.0

    def test_pre_cell_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--cell", "T64-pre-alt1", "--runs", "50", "--B", "100", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["N"] is None
        assert payload["config"]["estimator"] == "pre"
        assert payload["results"]["reference"]["0.05"] == 0.188

    def test_text_report_is_the_report_table(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--cell", "T64-N8-ar0", "--runs", "50", "--B", "100")
        cfg = replace(bench_cells()["T64-N8-ar0"][0], runs=50, B=100, seed=0)
        reference = f"{'(reference)':>16} {0.035:>8.3f} {0.086:>8.3f}"
        assert (code, err) == (0, "")
        assert out == f"cell T64-N8-ar0\n{run_experiment(cfg).format_table()}\n{reference}\n"

    def test_text_report_shows_reference(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--cell", "T64-N8-ar0", "--runs", "50", "--B", "100")
        assert code == 0
        assert "reference" in out
        assert "0.035" in out  # published 5% rate for this cell


class TestReadSeries:
    def test_header_autodetection(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("price\n1.5\n2.5\n")
        assert np.array_equal(read_series(str(path)), [1.5, 2.5])

    def test_column_by_name(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b\n1,10\n2,20\n")
        assert np.array_equal(read_series(str(path), "b"), [10.0, 20.0])

    def test_column_by_index(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,10\n2,20\n")
        assert np.array_equal(read_series(str(path), "1"), [10.0, 20.0])

    def test_byte_order_mark_without_header(self, tmp_path):
        values = np.arange(64) + 1.5
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "".join(f"{v}\n" for v in values).encode())
        assert np.array_equal(read_series(str(path)), values)

    def test_byte_order_mark_with_header(self, tmp_path, monkeypatch):
        import io

        text = "\ufeffprice,idx\n" + "".join(f"{i + 1.5},{i}\n" for i in range(64))
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8")
        assert np.array_equal(read_series(str(path), "price"), np.arange(64) + 1.5)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert np.array_equal(read_series("-", "price"), np.arange(64) + 1.5)

    @pytest.mark.parametrize("column", ["-1", "-5"])
    def test_negative_column_rejected(self, tmp_path, capsys, column):
        # a one-column file: -1 would silently read the last column, -5 raised IndexError
        path = tmp_path / "one.csv"
        path.write_text("".join(f"{v}\n" for v in range(64)))
        code, out, err = run_cli(capsys, "test", str(path), "--column", column)
        assert code == 3
        assert out == ""
        assert err == f"lsts: error: --column index {column} out of range 0..0 (0-based)\n"

    def test_envelope_schema_stable(self, ar_file, capsys):
        _, test_out, _ = run_cli(capsys, "test", str(ar_file), "--N", "16", "--format", "json")
        _, bench_out, _ = run_cli(
            capsys, "bench", "--cell", "T64-N8-ar0", "--runs", "50", "--B", "100", "--format", "json"
        )
        for out in (test_out, bench_out):
            payload = json.loads(out)
            assert set(payload) == {"command", "seed", "config", "results", "timing"}
            assert "seconds" in payload["timing"]


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_subcommand(self, capsys):
        assert main([]) == 3

    @pytest.mark.parametrize("command", ["test", "simulate", "bench", "surface"])
    def test_subcommand_help_exits_zero(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: lsts {command}")

    @pytest.mark.parametrize("command", ["test", "surface"])
    def test_series_flags_declared_once(self, command):
        sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
        flags = [f for a in sub.choices[command]._actions for f in a.option_strings]
        assert [flags.count(f) for f in ("--column", "--N", "--diff")] == [1, 1, 1]
