"""Command-line interface: output formats, unit rescaling, config file
handling, and exit codes (0 success, 2 usage, 3 numerical failure)."""

import math
import subprocess
import sys

import numpy as np
import pytest

from helixtm import observables, spectrum
from helixtm.cli import GEOMETRY_HEADER, main
from helixtm.quadrature import integrate_harmonics

FLAT6_ARGS = ["--R", "1", "--a", "0.75", "--b", "0.25", "--omega", "6", "--p", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestGeometry:
    def test_header_and_shape(self, capsys):
        code, out, err = run_cli(capsys, "geometry", "--grid", "16")
        assert code == 0
        assert err == ""
        header, rows = parse_csv(out)
        assert ",".join(header) == GEOMETRY_HEADER
        assert len(rows) == 16
        assert len(rows[0]) == 16

    def test_first_row_values(self, capsys):
        # circular default shape at phi = 0
        _, out, _ = run_cli(capsys, "geometry", "--grid", "8")
        _, rows = parse_csv(out)
        vals = [float(v) for v in rows[0]]
        want = [0, 1.5, 0, 0, 2.5, 1.52, 0.0505263, 0, 0.6, 0.8, -1, 0, 0, 0, -0.8, 0.6]
        assert vals == pytest.approx(want, abs=5e-7)

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "geometry", "--grid", "32")
        _, second, _ = run_cli(capsys, "geometry", "--grid", "32")
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "geo.csv"
        _, stdout_text, _ = run_cli(capsys, "geometry", "--grid", "16")
        code, out, _ = run_cli(capsys, "geometry", "--grid", "16", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text


class TestSpectrum:
    def test_benchmark_block(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", *FLAT6_ARGS, "--both")
        lines = out.strip().split("\n")
        by_key = {}
        for line in lines[1:]:
            parts = line.split(",")
            by_key[(parts[1], parts[2])] = [float(v) for v in parts[3:]]
        assert by_key[("off", "E")] == pytest.approx(
            [0.0724, 1.6369, 3.0045, 7.7907, 10.9186], abs=5e-3
        )
        assert by_key[("on", "E")] == pytest.approx(
            [-1.4739, -0.0442, 2.1393, 5.7258, 9.2713], abs=5e-3
        )
        assert abs(by_key[("on", "m=0")][0]) == pytest.approx(0.8927, abs=5e-3)
        # amplitude rows are unit columns: sum of squares over m is 1
        # (to within the 6-digit print precision)
        for vc in ("off", "on"):
            mat = np.array([by_key[(vc, f"m={m}")] for m in range(-2, 3)])
            assert np.sum(mat**2, axis=0) == pytest.approx(np.ones(5), abs=1e-5)

    def test_scale_invariance_of_reported_units(self, capsys):
        # doubling every length leaves the rescaled energies unchanged
        _, small, _ = run_cli(
            capsys, "spectrum", "--R", "1", "--a", "0.5", "--b", "0.5",
            "--omega", "4", "--p", "1", "--without-vc",
        )
        _, big, _ = run_cli(
            capsys, "spectrum", "--R", "2", "--a", "1.0", "--b", "1.0",
            "--omega", "4", "--p", "1", "--without-vc",
        )
        for line_s, line_b in zip(small.strip().split("\n")[1:], big.strip().split("\n")[1:]):
            vs = [float(v) for v in line_s.split(",")[3:]]
            vb = [float(v) for v in line_b.split(",")[3:]]
            assert vb == pytest.approx(vs, abs=1e-9)

    def test_digits_flag(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", *FLAT6_ARGS, "--without-vc", "--digits", "9")
        assert "0.0723530643" in out

    def test_default_branch_sweep(self, capsys):
        # omega=6 default sweeps the first three branches
        _, out, _ = run_cli(
            capsys, "spectrum", "--R", "1", "--a", "0.75", "--b", "0.25", "--omega", "6",
            "--without-vc",
        )
        seen = {line.split(",")[0] for line in out.strip().split("\n")[1:]}
        assert seen == {"1", "2", "3"}

    def test_mirror_branch_dominant_coefficients_positive(self, capsys):
        # at p=0 the dominant +-k coefficients tie up to round-off; the
        # first of them must still print positive
        _, out, _ = run_cli(
            capsys, "spectrum", "--a", "0.75", "--b", "0.25", "--omega", "4", "--p", "0", "--both"
        )
        _, rows = parse_csv(out)
        for start in (0, 6):
            coeffs = np.array([[float(x) for x in row[3:]] for row in rows[start + 1 : start + 6]])
            dominant = coeffs[np.argmax(np.abs(coeffs), axis=0), np.arange(coeffs.shape[1])]
            assert np.all(dominant > 0)

    def test_degenerate_columns_print_unit_norm(self, capsys):
        # the round cross-section at p = omega/2 has degenerate pairs; the
        # printed columns are the real eigenvectors themselves, unit-norm
        # to the 6-digit print precision
        code, out, _ = run_cli(
            capsys, "spectrum", "--a", "0.5", "--b", "0.5", "--omega", "40", "--p", "20",
            "--n-max", "8", "--both",
        )
        assert code == 0
        _, rows = parse_csv(out)
        for start in (0, 18):
            coeffs = np.array([[float(x) for x in row[3:]] for row in rows[start + 1 : start + 18]])
            assert np.max(np.abs(np.linalg.norm(coeffs, axis=0) - 1.0)) <= 2e-5


class TestMoments:
    def test_stationary_branch_all_zero(self, capsys):
        _, out, _ = run_cli(
            capsys, "moments", "--R", "1", "--a", "0.25", "--b", "0.75",
            "--omega", "4", "--p", "0",
        )
        header, rows = parse_csv(out)
        assert header == ["p", "alpha", "Tz_without_vc", "Tz_with_vc", "ratio", "Tz_classical"]
        assert len(rows) == 5
        for row in rows:
            assert abs(float(row[2])) < 1e-10
            assert abs(float(row[3])) < 1e-10
            assert row[4] == ""  # ratio blank when the reference is zero
            assert float(row[5]) == 0.0

    def test_benchmark_upright_block(self, capsys):
        _, out, _ = run_cli(
            capsys, "moments", "--R", "1", "--a", "0.25", "--b", "0.75",
            "--omega", "4", "--p", "1",
        )
        _, rows = parse_csv(out)
        got_off = [float(r[2]) for r in rows]
        got_on = [float(r[3]) for r in rows]
        assert got_off == pytest.approx([-0.0334, 0.0895, -0.1478, 0.1901, -0.2401], abs=1e-3)
        assert got_on == pytest.approx([-0.0317, 0.0718, -0.1308, 0.1837, -0.2347], abs=1e-3)
        assert float(rows[0][5]) == pytest.approx(-0.0332, abs=2e-4)
        # ratio column is the without/with quotient
        for row in rows:
            assert float(row[4]) == pytest.approx(float(row[2]) / float(row[3]), rel=1e-4)


class TestSharedPasses:
    @pytest.mark.parametrize(
        "argv, passes",
        [
            (["moments", "--omega", "6", "--p", "0-5"], 2),
            (["thermal", "--omega", "6", "--p", "0-5", "--temperature", "0.1"], 2),
            (["spectrum", "--omega", "6", "--p", "0-5"], 1),
            (["current", "--omega", "6", "--p", "0-5", "--grid", "16"], 1),
        ],
    )
    def test_one_assembly_and_one_moment_pass_per_command(self, capsys, monkeypatch, argv, passes):
        # every branch and V_c setting shares one assembly, every state one
        # moment pass
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate_harmonics(*args, **kwargs)

        monkeypatch.setattr(spectrum, "integrate_harmonics", counting)
        monkeypatch.setattr(observables, "integrate_harmonics", counting)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == passes


class TestPotential:
    def test_multi_case_columns(self, capsys):
        _, out, _ = run_cli(
            capsys, "potential", "--a", "0.5,0.25,0.75", "--b", "0.5,0.75,0.25",
            "--omega", "4", "--grid", "64",
        )
        header, rows = parse_csv(out)
        assert header == ["phi", "Vc[a=0.5;b=0.5]", "Vc[a=0.25;b=0.75]", "Vc[a=0.75;b=0.25]"]
        table = np.array([[float(v) for v in row] for row in rows])
        assert np.all(table[:, 1:] <= 0)
        circ, upright, flat = (np.abs(table[:, j]).max() for j in (1, 2, 3))
        assert flat > 5 * circ
        assert flat > upright


class TestThermal:
    def test_structured_output_with_overflow(self, capsys):
        code, out, _ = run_cli(capsys, "thermal", *FLAT6_ARGS, "--temperature", "0.001", "--both")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "thermal toroidal moment averages, temperature = 0.001"
        assert lines[1].split() == ["p", "vc", "normalized", "unnormalized"]
        off = lines[2].split()
        on = lines[3].split()
        assert off[:2] == ["1", "off"]
        assert on[:2] == ["1", "on"]
        # at tiny temperature the normalized average collapses onto the
        # lowest sub-state moment
        assert float(off[2]) == pytest.approx(-0.0241, abs=1e-3)
        # bound levels make the raw Boltzmann sum blow up, reported as such
        assert on[3] == "overflow"
        assert float(off[3]) != 0 or off[3] == "overflow"

    def test_requires_temperature(self, capsys):
        code, _, err = run_cli(capsys, "thermal", *FLAT6_ARGS)
        assert code == 2
        assert "--temperature" in err


class TestCurrent:
    def test_column_naming_and_scaling(self, capsys):
        _, out, _ = run_cli(
            capsys, "current", "--omega", "4", "--a", "0.75", "--b", "0.25",
            "--p", "1", "--both", "--grid", "8",
        )
        header, rows = parse_csv(out)
        assert header[0] == "phi"
        assert header[1] == "j[p=1;alpha=0;vc=off]"
        assert header[6] == "j[p=1;alpha=0;vc=on]"
        assert len(header) == 11
        assert len(rows) == 8

    def test_grid_below_two_points_per_winding_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "current", "--omega", "4", "--grid", "7")
        assert code == 2
        assert out == ""
        assert err.startswith("helixtm: error:") and err.count("\n") == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# shape\nomega = 6\na=0.75\nb=0.25\np=1\n")
        _, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--without-vc")
        assert out.split("\n")[1].startswith("1,off,E,0.0723531")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega=6\na=0.75\nb=0.25\np=1\n")
        _, out, _ = run_cli(
            capsys, "spectrum", "--config", str(cfg),
            "--omega", "4", "--a", "0.5", "--b", "0.5", "--without-vc",
        )
        first = out.split("\n")[1]
        assert first.startswith("1,off,E,")
        assert "0.0723531" not in first

    def test_unknown_key_reports_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega=6\nbad_key=1\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 2
        assert ":2:" in err
        assert "bad_key" in err

    def test_bad_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega=6\na=not_a_number\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 2
        assert "not_a_number" in err


class TestExitCodes:
    def test_branch_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--p", "7", "--omega", "4")
        assert code == 2
        assert "0 <= p < omega" in err

    def test_unknown_flag_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--nope"])
        assert exc.value.code == 2

    def test_unknown_command_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuch"])
        assert exc.value.code == 2

    def test_list_shape_rejected_outside_potential(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--a", "0.25,0.75")
        assert code == 2
        assert "single" in err

    def test_mismatched_potential_lists(self, capsys):
        code, _, err = run_cli(capsys, "potential", "--a", "0.25,0.75", "--b", "0.75")
        assert code == 2
        assert "same length" in err

    def test_basis_below_two_harmonics_per_side(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n-max", "1", "--p", "1", "--without-vc")
        assert code == 2
        assert out == ""
        assert err == "helixtm: error: n_max must be >= 2, got 1\n"

    def test_invalid_shape(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--R", "-1")
        assert code == 2

    def test_numerical_failure_is_exit_three(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", *FLAT6_ARGS, "--without-vc", "--quad-tol", "1e-300"
        )
        assert code == 3
        assert "numerical failure" in err

    def test_large_matrix_elements_converge(self, capsys):
        # |H| reaches about 1.5e4 for this nearly flat coil; the stopping
        # test scales with the matrix, so it converges instead of exiting 3
        code, out, err = run_cli(capsys, "spectrum", "--a", "0.99", "--b", "0.01", "--omega", "6")
        assert code == 0
        assert err == ""
        assert out.startswith("p,vc,row,")

    @pytest.mark.parametrize("n_max", ["2", "8"])
    def test_flat_high_winding_moments_converge(self, capsys, n_max):
        # the classical column's arc length needs 64 points per winding
        # from the start at omega = 40
        code, out, err = run_cli(
            capsys, "moments", "--a", "0.99", "--b", "0.01", "--omega", "40", "--p", "1",
            "--n-max", n_max,
        )
        assert code == 0
        assert err == ""
        assert len(out.strip().split("\n")) == 1 + 2 * int(n_max) + 1

    def test_non_finite_radius_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--R", "inf")
        assert code == 2
        assert out == ""
        assert err.startswith("helixtm: error:") and err.count("\n") == 1
        assert "finite" in err

    def test_unwritable_out_path_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "geometry", "--grid", "8", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("helixtm: error:") and err.count("\n") == 1
        assert not target.exists()


class TestSharedParser:
    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # the parser is built once per process; each call after the first
        # must still print what a fresh process prints for its arguments
        argvs = [
            ["moments", "--a", "0.75", "--b", "0.25", "--omega", "6", "--p", "1", "--with-vc"],
            ["spectrum", "--omega", "4", "--p", "2", "--n-max", "3"],
            ["current", "--omega", "4", "--p", "9"],
        ]
        in_process = [run_cli(capsys, *argv) for argv in argvs]
        fresh = [
            subprocess.run([sys.executable, "-m", "helixtm.cli", *argv],
                           capture_output=True, text=True)
            for argv in argvs
        ]
        assert in_process == [(proc.returncode, proc.stdout, proc.stderr) for proc in fresh]
        assert [code for code, _, _ in in_process] == [0, 0, 2]


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "helixtm.cli", "geometry", "--grid", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(GEOMETRY_HEADER)
