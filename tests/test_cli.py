"""Command-line interface: output formats, unit rescaling, config file
handling, and exit codes (0 success, 2 usage, 3 numerical failure)."""

import io
import math
import subprocess
import sys

import numpy as np
import pytest

from helixtm import cli, geometry, observables, spectrum
from helixtm.cli import GEOMETRY_HEADER, main
from helixtm.geometry import HelixShape
from helixtm.observables import current
from helixtm.quadrature import NestedGrid, QuadratureNotConverged
from helixtm.spectrum import SpectrumConfig, make_basis, solve_states

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

    @pytest.mark.parametrize("argv", [
        ["geometry", "--grid", "2500"],
        ["potential", "--a", "0.5,0.75", "--b", "0.5,0.25", "--grid", "6000"],
        ["current", "--p", "1", "--both", "--grid", "300"],
    ])
    def test_grid_tables_are_written_block_by_block(self, monkeypatch, argv):
        # each block goes to the output as it is formatted, so the text of
        # the whole table is never held at once
        writes = []

        class Recorder(io.TextIOBase):
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(cli, "_BLOCK_VALUES", 1000)
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(argv) == 0
        rows = int(argv[argv.index("--grid") + 1])
        ncols = writes[0].count(",") + 1
        step = max(1, 1000 // ncols)
        assert len(writes) == 1 + -(-rows // step)
        assert all(chunk.count("\n") == step for chunk in writes[1:-1])
        assert "".join(writes).count("\n") == 1 + rows


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
        "argv",
        [
            ["moments", "--omega", "6", "--p", "0-5"],
            ["thermal", "--omega", "6", "--p", "0-5", "--temperature", "0.1"],
            ["spectrum", "--omega", "6", "--p", "0-5"],
            ["current", "--omega", "6", "--p", "0-5", "--grid", "16"],
        ],
    )
    def test_one_sampling_pass_per_command(self, capsys, monkeypatch, argv):
        # every branch and V_c setting, every state's moment and the arc
        # length share one nested grid of the shape
        grids = []

        class Counting(NestedGrid):
            def __init__(self, *args, **kwargs):
                grids.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(spectrum, "NestedGrid", Counting)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(grids) == 1

    def test_moments_samples_no_angle_twice(self, capsys, monkeypatch):
        angles = []
        original = geometry.winding_terms

        def recording(shape, phi, *args, **kwargs):
            angles.append(np.array(phi))
            return original(shape, phi, *args, **kwargs)

        monkeypatch.setattr(geometry, "winding_terms", recording)
        code, _, _ = run_cli(capsys, "moments", "--omega", "6", "--p", "0-5")
        assert code == 0
        sampled = np.concatenate(angles)
        # the Hamiltonian, the moments and the arc length of this round coil
        # all settle by 256 points per winding
        assert 64 <= sampled.size <= 256
        assert np.unique(sampled).size == sampled.size


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

    def test_multi_branch_columns_equal_one_state_current(self, capsys):
        # every column of a stack of branches, with and without V_c, is the
        # current of the state its header names, to the last bit
        code, out, _ = run_cli(
            capsys, "current", "--omega", "6", "--a", "0.75", "--b", "0.25", "--p", "0-5",
            "--both", "--n-max", "3", "--grid", "64", "--digits", "17",
        )
        assert code == 0
        header, rows = parse_csv(out)
        table = np.array(rows, dtype=float)
        shape = HelixShape(R=1.0, a=0.75, b=0.25, omega=6)
        phi = 2.0 * np.pi * np.arange(64) / 64
        assert np.array_equal(table[:, 0], phi)
        assert len(header) == 1 + 6 * 2 * 7
        states = {}
        for column, name in enumerate(header[1:], 1):
            p, alpha, vc = (part.split("=")[1] for part in name[2:-1].split(";"))
            key = (int(p), vc == "on")
            if key not in states:
                cfg = SpectrumConfig(include_vc=key[1], n_max=3)
                states[key] = solve_states(shape, make_basis(shape, key[0], cfg), cfg)
            want = current(states[key][int(alpha)], shape, phi) + 0.0
            assert np.array_equal(table[:, column], want), name
        assert list(states) == [(p, vc) for p in range(6) for vc in (False, True)]

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
    @pytest.mark.parametrize("command", ["spectrum", "moments", "thermal"])
    def test_under_resolved_grid_is_exit_three(self, capsys, tmp_path, command):
        # 32 -> 64 points per winding leave the n_max = 16 matrices
        # visibly unsymmetric; the stacked solve reports the first of them
        target = tmp_path / "out.txt"
        code, out, err = run_cli(
            capsys, command, *FLAT6_ARGS, "--n-max", "16", "--quad-points", "32",
            "--quad-tol", "1e6", "--temperature", "0.1", "--out", str(target),
        )
        assert code == 3
        assert out == ""
        assert err == (
            "helixtm: numerical failure: max |A - A*| = 1.353e-03 exceeds tolerance 1.0e-09\n"
        )
        assert not target.exists()

    # One stage of the shared pass fails in each case: the Hamiltonian, the
    # moments or the arc length reaches the doubling cap while the stages
    # before it settle.  The messages are those the three separate passes
    # printed before they shared one grid.
    @pytest.mark.parametrize("argv, stage, message", [
        (["moments", "--a", "0.99", "--b", "0.01", "--omega", "6", "--p", "0",
          "--quad-tol", "3e-15"],
         "hamiltonian", "no convergence after 16384 points (last change 8.586e-10)"),
        (["moments", "--a", "0.99", "--b", "0.01", "--omega", "40", "--p", "0", "--n-max", "8",
          "--quad-tol", "3e-15"],
         "moments", "no convergence after 16384 points (last change 5.995e-15)"),
        (["thermal", "--a", "0.99", "--b", "0.01", "--omega", "40", "--p", "0", "--n-max", "8",
          "--quad-tol", "3e-15", "--temperature", "1"],
         "moments", "no convergence after 16384 points (last change 5.995e-15)"),
        (["moments", "--a", "0.99", "--b", "0.01", "--omega", "40", "--p", "0",
          "--quad-tol", "1e-14"],
         "length", "no convergence after 16384 points (last change 2.842e-14)"),
    ])
    def test_each_stage_of_the_pass_fails_as_before(self, capsys, monkeypatch, tmp_path, argv,
                                                    stage, message):
        failed = []
        original = observables.settle

        def recording(grid, part, *args, **kwargs):
            try:
                return original(grid, part, *args, **kwargs)
            except QuadratureNotConverged:
                failed.append(part)
                raise

        monkeypatch.setattr(observables, "settle", recording)
        monkeypatch.setattr(spectrum, "settle", recording)
        target = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (3, "", f"helixtm: numerical failure: {message}\n")
        assert failed == [stage]
        assert not target.exists()

    @pytest.mark.parametrize("argv, status", [
        (["current", "--omega", "4", "--grid", "7"], 2),
        (["current", *FLAT6_ARGS, "--n-max", "16", "--quad-points", "32", "--quad-tol", "1e6"], 3),
        (["geometry", "--grid", "1"], 2),
    ])
    def test_failed_grid_table_leaves_no_file(self, capsys, tmp_path, argv, status):
        target = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == status
        assert err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("command", ["spectrum", "potential", "current", "thermal"])
    def test_radius_whose_square_overflows_is_exit_three(self, capsys, tmp_path, command):
        # energies and currents are reported in units of 1/R^2
        target = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, command, "--R", "1e200", "--temperature", "0.1",
                                 "--out", str(target))
        assert (code, out) == (3, "")
        assert err == "helixtm: numerical failure: R^2 overflows for R = 1e+200\n"
        assert not target.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 298. GiB for an array"),
         "Unable to allocate 298. GiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_out_of_memory_is_exit_three(self, capsys, monkeypatch, tmp_path, exc, message):
        # a basis so large that its index table does not fit: the solve
        # raises before any output, and never really allocates here
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "branch_moments", exhausted)
        target = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, "moments", "--n-max", "100000", "--out", str(target))
        assert (code, out, err) == (3, "", f"helixtm: numerical failure: {message}\n")
        assert not target.exists()

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


class TestDegenerateFrame:
    def test_round_coil_at_one_winding_is_usage_error(self, capsys, tmp_path):
        # a (omega^2 + 1) = R: the curvature vanishes at phi = pi, a grid
        # angle, where the frame is undefined; the table is refused whole
        target = tmp_path / "g.csv"
        code, out, err = run_cli(capsys, "geometry", "--omega", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("helixtm: error: curvature ") and err.count("\n") == 1
        assert err.endswith("<= KAPPA_MIN, frame undefined\n")
        assert "Traceback" not in err
        assert not target.exists()
        # an odd grid misses phi = pi and prints the table
        code, out, _ = run_cli(capsys, "geometry", "--omega", "1", "--grid", "255")
        assert code == 0
        assert len(out.strip().split("\n")) == 256


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
