"""Command-line interface: output formats, unit rescaling, config file
handling, and exit codes (0 success, 2 usage, 3 numerical failure)."""

import io
import math
import subprocess
import sys
import types

import numpy as np
import pytest

from helixtm import cli, geometry, quadrature
from helixtm.cli import GEOMETRY_HEADER, main
from helixtm.geometry import DegenerateFrame, HelixShape, frenet_frame, speed
from helixtm.observables import classical_moment_closed, current
from helixtm.spectrum import SpectrumConfig, make_basis, solve_states

FLAT6_ARGS = ["--R", "1", "--a", "0.75", "--b", "0.25", "--omega", "6", "--p", "1"]
COMMANDS = ["geometry", "potential", "spectrum", "current", "moments", "thermal"]


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


class TestShapeScale:
    """The physics commands solve the shape at unit major radius, (1, a/R, b/R, omega),
    and divide by nothing that vanishes with b."""

    @pytest.mark.parametrize("command", [
        ["spectrum", "--p", "1", "--both"],
        ["moments", "--p", "1"],
        ["current", "--p", "1", "--both", "--grid", "16"],
        ["thermal", "--p", "1", "--both", "--temperature", "0.1"],
        ["potential", "--grid", "16"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("a, b, omega", [(0.9, 0.1, 6), (0.5, 0.5, 4)])
    @pytest.mark.parametrize("scale", [1e-3, 2.0, 1e6])
    def test_numbers_do_not_depend_on_the_length_unit(self, capsys, command, a, b, omega, scale):
        def run(R, a, b):
            code, out, err = run_cli(capsys, *command, "--R", f"{R:g}", "--a", f"{a:g}",
                                     "--b", f"{b:g}", "--omega", str(omega))
            assert (code, err) == (0, "")
            return out.split("\n", 1)[1]  # potential's header names the half-axes as given

        assert run(scale, a * scale, b * scale) == run(1.0, a, b)

    def test_flat_limit_potential(self, capsys):
        # b = 1e-300 squares to 0, and V_c is the planar polar curve's:
        # -kappa^2/8 with kappa = 14.25/3.375 at phi = 0 (see test_geometry)
        code, out, err = run_cli(capsys, "potential", "--a", "0.5", "--b", "1e-300",
                                 "--omega", "4", "--grid", "4")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "0,-2.2284"

    def test_half_axis_ratio_below_the_float_range(self, capsys):
        # a/R = 1e-330 underflows; the shape still solves, as the ring it is
        code, out, err = run_cli(capsys, "spectrum", "--R", "1e10", "--a", "1e-320",
                                 "--b", "0.5", "--p", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "1,off,E,0.5,4.5,12.5,24.5,40.5"

    @pytest.mark.parametrize("command", [["spectrum"], ["moments"], ["current"],
                                         ["thermal", "--temperature", "0.1"]])
    def test_flat_limit_solves(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--b", "1e-300")
        assert (code, err) == (0, "")
        assert out


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
            ["geometry", "--grid", "16"],
            ["potential", "--grid", "16"],
            ["moments", "--omega", "6", "--p", "0-5"],
            ["moments", "--a", "0.9", "--b", "0.1", "--omega", "1", "--p", "0"],
            ["thermal", "--omega", "6", "--p", "0-5", "--temperature", "0.1"],
            ["spectrum", "--omega", "6", "--p", "0-5"],
            ["current", "--omega", "6", "--p", "0-5", "--grid", "16"],
        ],
    )
    def test_no_command_samples_an_integral(self, capsys, monkeypatch, argv):
        # the spectra and the moments take closed-form harmonics and the
        # arc length of the classical column is a complete elliptic
        # integral: no command integrates, and the commands that print no
        # grid never sample D = f^2
        def refuse(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(quadrature, "integrate_periodic", refuse)
        if argv[0] in ("spectrum", "moments", "thermal"):
            monkeypatch.setattr(geometry, "_d_form", refuse)
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")


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

    def test_unnormalized_sum_below_the_normal_range_is_overflow(self, capsys):
        # at T = 1e-310, -E/T of a bound level is inf, not an OverflowError
        # from exp: those rows print overflow, as at 1e-300, never inf or
        # nan; the levels above 0 keep their weights of 0
        code, out, err = run_cli(capsys, "thermal", "--a", "0.9", "--b", "0.1", "--omega", "6",
                                 "--p", "1-3", "--n-max", "4", "--temperature", "1e-310")
        assert code == 0 and err == ""
        rows = [line.split() for line in out.strip().split("\n")[2:]]
        assert [row[:2] for row in rows] == [[p, vc] for p in "123" for vc in ("off", "on")]
        assert [row[3] for row in rows if row[1] == "on"] == ["overflow"] * 3
        assert [row[3] for row in rows if row[1] == "off"] == ["0"] * 3
        assert "inf" not in out and "nan" not in out

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
        assert (code, out) == (2, "")
        assert err == "helixtm: error: --grid must be >= 2*omega = 8, got 7\n"


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

    @pytest.mark.parametrize("command", ["geometry", "potential"])
    def test_branch_key_is_not_read_by_the_curve_tables(self, capsys, tmp_path, command):
        # the keys are shared: a p out of range for this omega is the
        # physics commands' business, not the curve tables'
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 2\np = 3\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--grid", "4")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 5
        code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "got p=3" in err

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

    # config text (None: no file at the path), flags, and the error after
    # "helixtm: error: ", with {path} for the config path and {oserror} for
    # the text of the OSError that opening it raises
    @pytest.mark.parametrize("config, flags, message", [
        ("vc = sideways", [],
         "{path}:1: bad value for 'vc': must be one of: with, without, both"),
        ("n_max = two", [],
         "{path}:1: bad value for 'n_max': invalid literal for int() with base 10: 'two'"),
        ("omega", [], "{path}:1: expected 'key = value', got 'omega'"),
        (None, [], "cannot read config file {path}: {oserror}"),
        ("", ["--p", "3-1"], "empty branch range '3-1'"),
        ("", ["--p", "x-2"], "bad branch range 'x-2'"),
        ("", ["--p", "one"], "bad branch index 'one'"),
        ("", ["--digits", "0"], "--digits must be >= 1, got 0"),
    ])
    def test_usage_error_is_one_line(self, capsys, tmp_path, config, flags, message):
        cfg = tmp_path / "run.cfg"
        oserror = None
        if config is None:
            try:
                open(cfg, encoding="utf-8")
            except OSError as exc:
                oserror = exc
        else:
            cfg.write_text(config + "\n")
        code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg), *flags)
        assert (code, out) == (2, "")
        assert err == "helixtm: error: " + message.format(path=cfg, oserror=oserror) + "\n"

    @pytest.mark.parametrize("key", ["quad_points = 128", "quad_tol = 1e-300"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_quadrature_keys_are_unknown(self, capsys, tmp_path, command, key):
        # no command samples an integral, so no command reads a quadrature key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"omega=6\ntemperature=0.1\n{key}\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"helixtm: error: {cfg}:3: unknown key {key.split()[0]!r}\n"


class TestQuadratureFlags:
    # no command samples an integral, so every command rejects an accuracy
    # setting as an unknown flag
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag", [["--quad-points", "128"], ["--quad-tol", "1e-300"]])
    def test_rejected_by_every_command(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


FLAGS = {"--p": ["--p", "1"], "--n-max": ["--n-max", "3"], "--with-vc": ["--with-vc"],
         "--without-vc": ["--without-vc"], "--both": ["--both"], "--grid": ["--grid", "16"],
         "--temperature": ["--temperature", "0.1"]}
# the flags beyond the shape and output flags that each command reads
READ_FLAGS = {
    "geometry": {"--grid"},
    "potential": {"--grid"},
    "spectrum": {"--p", "--n-max", "--with-vc", "--without-vc", "--both"},
    "current": {"--p", "--n-max", "--with-vc", "--without-vc", "--both", "--grid"},
    "moments": {"--p", "--n-max"},
    "thermal": {"--p", "--n-max", "--with-vc", "--without-vc", "--both", "--temperature"},
}

# a value of each config key and the flags that give the same setting; the
# shape and output keys are read by every command, the others by the
# commands that take their flag (``out`` is given a path in the test)
CONFIG_FLAGS = [
    ("R", "2", ["--R", "2"]),
    ("a", "0.75", ["--a", "0.75"]),
    ("b", "0.25", ["--b", "0.25"]),
    ("omega", "6", ["--omega", "6"]),
    ("digits", "4", ["--digits", "4"]),
    ("out", None, None),
    ("p", "1-2", ["--p", "1-2"]),
    ("n_max", "3", ["--n-max", "3"]),
    ("vc", "with", ["--with-vc"]),
    ("vc", "without", ["--without-vc"]),
    ("vc", "both", ["--both"]),
    ("grid", "16", ["--grid", "16"]),
    ("temperature", "0.1", ["--temperature", "0.1"]),
]
SHARED_KEYS = {"R", "a", "b", "omega", "digits", "out"}


class TestFlagsOnlyWhereRead:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in COMMANDS for flag in FLAGS if flag not in READ_FLAGS[command]
    ])
    def test_unread_flag_is_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *FLAGS[flag]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(FLAGS[flag])}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["geometry", "--temperature", "3", "--n-max", "5", "--p", "1"],
        ["spectrum", "--grid", "7", "--temperature", "3"],
        ["potential", "--p", "1", "--n-max", "3"],
        ["moments", "--with-vc"],
    ])
    def test_flags_that_were_ignored_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_read_flag_is_accepted(self, capsys, command):
        vc = [flag for flag in ("--with-vc", "--without-vc", "--both") if flag in READ_FLAGS[command]]
        for choice in vc or [None]:
            argv = [command, "--omega", "6"]
            for flag in sorted(READ_FLAGS[command]):
                if flag not in vc or flag == choice:
                    argv += FLAGS[flag]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("command, key, value, flags", [
        pytest.param(command, key, value, flags, id=f"{command}-{key}-{value}")
        for command in COMMANDS for key, value, flags in CONFIG_FLAGS
        if key in SHARED_KEYS or flags[0] in READ_FLAGS[command]
    ])
    def test_config_value_prints_what_its_flag_prints(
            self, capsys, tmp_path, command, key, value, flags):
        # ``key = value`` in a config file gives exactly the flags' output;
        # for ``out``, the file each writes
        extra = ["--temperature", "1"] if command == "thermal" and key != "temperature" else []
        if key == "out":
            value, flags = tmp_path / "by_file.txt", ["--out", str(tmp_path / "by_flag.txt")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        by_file = run_cli(capsys, command, "--config", str(cfg), *extra)
        by_flag = run_cli(capsys, command, *flags, *extra)
        assert by_file == by_flag and by_flag[0] == 0
        if key == "out":
            assert by_flag[1] == ""
            written = (tmp_path / "by_flag.txt").read_text()
            assert (tmp_path / "by_file.txt").read_text() == written and written
        else:
            assert by_flag[1]

    def test_config_cases_cover_every_key(self):
        assert {key for key, _, _ in CONFIG_FLAGS} == set(cli._SETTINGS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_keys_stay_shared(self, capsys, tmp_path, command):
        # a config file may name every key; a command reads the ones it uses
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 6\np = 1\nn_max = 3\nvc = with\ngrid = 16\ntemperature = 0.1\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, err) == (0, "") and out


class TestExitCodes:
    def test_flattest_coil_answers(self, capsys, tmp_path):
        # rho = 1 - 1.0e-6: a trapezoid of the length would need about 3.6e7
        # points per winding; the closed form's cost does not grow as the
        # coil flattens.  The classical column is -pi omega I a b R / 2 with
        # I = 2 pi p / L^2 and L the 50-digit reference
        target = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, "moments", "--a", "0.999999", "--b", "0.000001",
                                 "--omega", "40", "--p", "1", "--digits", "12",
                                 "--out", str(target))
        assert (code, out, err) == (0, "", "")
        rows = parse_csv(target.read_text())[1]
        assert len(rows) == 5
        length = 160.43816403319736937
        want = -math.pi * 40 * (2 * math.pi / length**2) * 0.999999 * 0.000001 / 2
        assert all(float(row[5]) == pytest.approx(want, rel=1e-11) for row in rows)

    @pytest.mark.parametrize("argv", [
        # the flattest paper coil: the moments reached the cap at the default
        # tolerance, and so did the arc length at p = 0
        ["moments", "--a", "0.999", "--b", "0.001", "--omega", "6", "--p", "0"],
        ["moments", "--a", "0.999", "--b", "0.001", "--omega", "6", "--p", "1"],
        ["thermal", "--a", "0.999", "--b", "0.001", "--omega", "6", "--p", "1",
         "--temperature", "1"],
    ])
    def test_former_cap_failures_answer(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) > 2

    def test_extreme_shapes_answer_or_fail_in_one_line(self, capsys):
        # b from 1e-300 to 1e150 and a within 1e-16 to 1e-1 of R: the arc
        # length answers wherever the shape's constants do not overflow, and
        # an overflow is one stderr line, never a traceback
        rng = np.random.default_rng(90)
        codes = []
        for _ in range(40):
            b = 10 ** rng.uniform(-300, 150)
            a = 1 - 10 ** rng.uniform(-16, -1)
            omega = int(rng.integers(1, 200))
            code, out, err = run_cli(capsys, "moments", "--a", repr(a), "--b", repr(b),
                                     "--omega", str(omega), "--p", str(rng.integers(omega)))
            codes.append(code)
            if code == 0:
                assert err == "" and len(out.splitlines()) == 6
            else:
                assert code == 3 and out == ""
                assert err.startswith("helixtm: numerical failure: ") and err.count("\n") == 1
        assert codes.count(0) > 20

    def test_flattest_classical_column_matches_a_fine_trapezoid(self, capsys):
        # the length settles past the fixed cap of 16384 points per winding
        # (rho = 0.99899); the classical column is -pi omega I a b R / 2
        # with I = 2 pi p / L^2 and L from a 2^20-point trapezoid of f
        code, out, err = run_cli(capsys, "moments", "--a", "0.999", "--b", "0.001",
                                 "--omega", "6", "--p", "1-5", "--digits", "12")
        assert (code, err) == (0, "")
        shape = HelixShape(R=1.0, a=0.999, b=0.001, omega=6)
        n = 1 << 20
        length = 2 * math.pi * np.mean(speed(shape, 2 * math.pi * np.arange(n) / n))
        for row in parse_csv(out)[1]:
            p = int(row[0])
            want = -math.pi * 6 * (2 * math.pi * p / length**2) * 0.999 * 0.001 / 2
            assert float(row[5]) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("argv, status", [
        (["current", "--omega", "4", "--grid", "7"], 2),
        # b^2 overflows in the shape's functions
        (["current", "--b", "1e300"], 3),
        # a bad --grid is a usage error even where the solve would fail
        (["current", "--grid", "7", "--b", "1e300"], 2),
        (["geometry", "--grid", "1"], 2),
    ])
    def test_failed_grid_table_leaves_no_file(self, capsys, tmp_path, argv, status):
        target = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == status
        assert err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("R", ["1e154", "1e200"])
    def test_huge_radius_solves_the_ring_limit(self, capsys, R):
        # the solvers see the unit-radius shape (1, a/R, b/R, omega), whose
        # half-axes of 5e-155 and 5e-201 leave the ring: k^2/2 - 1/8 with V_c,
        # k^2/2 without, and moments that vanish with the half-axes
        code, out, err = run_cli(capsys, "spectrum", "--R", R, "--p", "1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1] == "1,off,E,0.5,4.5,12.5,24.5,40.5"
        assert lines[7] == "1,on,E,0.375,4.375,12.375,24.375,40.375"
        code, out, err = run_cli(capsys, "potential", "--R", R, "--grid", "4")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["0,-0.125", "1.5708,-0.125", "3.14159,-0.125",
                                        "4.71239,-0.125"]
        for argv in (["moments"], ["current"], ["thermal", "--temperature", "0.1"]):
            code, out, err = run_cli(capsys, *argv, "--R", R)
            assert (code, err) == (0, "")
        _, rows = parse_csv(run_cli(capsys, "moments", "--R", R, "--p", "1")[1])
        assert all(abs(float(v)) < 1e-150 for row in rows for v in row[2:] if v)

    # shapes HelixShape accepts whose functions overflow (b^2 in D and in
    # the frame)
    @pytest.mark.parametrize("argv", [
        ["geometry", "--b", "1e300"],
        ["potential", "--b", "1e300"],
        ["spectrum", "--b", "1e300"],
        ["moments", "--b", "1e300"],
        ["current", "--b", "1e300"],
        ["thermal", "--b", "1e300", "--temperature", "0.1"],
    ])
    def test_floating_point_failure_is_exit_three(self, capsys, tmp_path, argv):
        target = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert err.startswith("helixtm: numerical failure: ")
        assert not target.exists()

    # tall coils: the harmonics, v^2 and the moment weights take their
    # products of two sizes of D over a power of two, so every command
    # answers while 4 D = 4 f^2 is finite (b up to 3.9e152 at omega 17)
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--b", "1e150"],
        ["current", "--b", "1e150"],
        ["moments", "--b", "1e100"],
        ["thermal", "--b", "1e100", "--temperature", "1"],
        ["spectrum", "--b", "1e152"],
        ["current", "--b", "1e152"],
        ["current", "--b", "3.5e152"],
        ["moments", "--b", "1e120"],
        ["moments", "--b", "1e152"],
        ["thermal", "--b", "1e152", "--temperature", "1"],
    ])
    def test_tall_coils_answer(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--omega", "17", "--p", "1")
        assert (code, err) == (0, "") and out

    def test_taller_coil_moments_fail_in_one_line(self, capsys):
        # from b = 1e153 on, D = f^2 itself overflows
        code, out, err = run_cli(capsys, "moments", "--b", "1e153", "--omega", "17", "--p", "1")
        assert (code, out) == (3, "")
        assert err.startswith("helixtm: numerical failure: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("argv, p", [
        (["spectrum", "--p", "7", "--omega", "4"], 7),
        (["moments", "--p", "4"], 4),
        (["thermal", "--p", "9", "--temperature", "1"], 9),
        (["current", "--p", "5"], 5),
        (["moments", "--p", "0,1,6", "--omega", "6"], 6),
    ])
    def test_branch_out_of_range(self, capsys, argv, p):
        # every command that reads --p checks its range
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"helixtm: error: branch index must satisfy 0 <= p < omega, got p={p}\n"

    @pytest.mark.parametrize("argv", [
        ["geometry", "--omega", "0"],
        ["potential", "--omega", "-2"],
        ["spectrum", "--omega", "0"],
        ["moments", "--omega", "0", "--p", "0"],
    ])
    def test_winding_count_below_one(self, capsys, argv):
        # no branch can lie in [0, omega) here; the shape's own check reports
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        omega = argv[argv.index("--omega") + 1]
        assert err == f"helixtm: error: winding count must be >= 1, got omega={omega}\n"

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

    def test_flattest_coil_solves_at_default_settings(self, capsys):
        # max |H| is 1.5e7 for this coil; its harmonics come in closed form,
        # and the ground level is the 2^20-point trapezoid's 0.43853343
        code, out, err = run_cli(capsys, "spectrum", "--a", "0.999", "--b", "0.001",
                                 "--omega", "6", "--p", "1", "--digits", "12")
        assert (code, err) == (0, "")
        fields = out.splitlines()[1].split(",")
        assert fields[:3] == ["1", "off", "E"]
        assert float(fields[3]) == pytest.approx(0.43853343, rel=1e-6)

    def test_large_matrix_elements_converge(self, capsys):
        # |H| reaches about 1.5e4 for this nearly flat coil; its harmonics
        # come in closed form, with no stopping test to scale, so it answers
        code, out, err = run_cli(capsys, "spectrum", "--a", "0.99", "--b", "0.01", "--omega", "6")
        assert code == 0
        assert err == ""
        assert out.startswith("p,vc,row,")

    @pytest.mark.parametrize("n_max", ["2", "8"])
    def test_flat_high_winding_moments_converge(self, capsys, n_max):
        # a flat coil at omega = 40: closed-form harmonics and arc length
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


    @pytest.mark.parametrize("k", [0, 13, 77, 100, 154, 155, 200, 308])
    def test_geometry_radius_scan(self, capsys, k):
        # the frame is evaluated at unit radius and only scaled by R, so no
        # intermediate reaches R^2
        code, out, err = run_cli(capsys, "geometry", "--R", f"1e{k}", "--grid", "8")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 9

    def test_geometry_scales_with_the_radius(self, capsys):
        # the same coil in half the length unit: position and f double,
        # kappa and tau halve, and the frame is unchanged, exactly
        tables = []
        for R, half_axis in (("1", "0.5"), ("2", "1")):
            code, out, _ = run_cli(capsys, "geometry", "--R", R, "--a", half_axis,
                                   "--b", half_axis, "--digits", "17", "--grid", "64")
            assert code == 0
            header, rows = parse_csv(out)
            tables.append(np.array(rows, dtype=float))
        unit, doubled = tables
        lengths, curvatures = slice(1, 5), slice(5, 7)
        assert np.array_equal(doubled[:, lengths], 2 * unit[:, lengths])
        assert np.array_equal(doubled[:, curvatures], unit[:, curvatures] / 2)
        assert np.array_equal(doubled[:, 7:], unit[:, 7:])
        assert header[lengths] == ["x", "y", "z", "f"] and header[curvatures] == ["kappa", "tau"]

    def test_flat_limit_geometry(self, capsys):
        # b = 1e-300 squares to 0: the frame is the planar polar curve's,
        # with B = (0, 0, +-1), no torsion, and
        # kappa = |W^2 + 2 W'^2 - W W''| / (W^2 + W'^2)^(3/2)
        code, out, err = run_cli(capsys, "geometry", "--b", "1e-300", "--digits", "17")
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        table = np.array(rows, dtype=float)
        column = {name: table[:, i] for i, name in enumerate(header)}
        phi = column["phi"]
        W = 1.0 + 0.5 * np.cos(4 * phi)
        W1 = -2.0 * np.sin(4 * phi)
        W2 = -8.0 * np.cos(4 * phi)
        planar = np.abs(W * W + 2 * W1 * W1 - W * W2) / (W * W + W1 * W1) ** 1.5
        assert np.max(np.abs(column["kappa"] / planar - 1.0)) <= 1e-13
        assert np.max(np.abs(column["tau"])) < 1e-290
        assert np.max(np.abs(table[:, header.index("Bx"):header.index("Bz")])) < 1e-290
        assert set(np.abs(column["Bz"])) == {1.0}


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

    @pytest.mark.parametrize("a, omega, grid", [
        # phi = pi, in the fifth of ten blocks
        (0.5, 1, 10000),
        # a (omega^2 + 1) = R at omega 2: phi = pi/2 and 3 pi/2, in two blocks
        (0.2, 2, 16384),
    ])
    def test_degenerate_angle_in_a_later_block(self, capsys, tmp_path, a, omega, grid):
        # the table is filled block by block, all before any is written: a
        # degenerate angle anywhere refuses the whole table, leaves no file,
        # and names the smallest curvature of the whole grid, as a whole-grid
        # frame does
        target = tmp_path / "g.csv"
        code, out, err = run_cli(capsys, "geometry", "--a", str(a), "--b", str(a),
                                 "--omega", str(omega), "--grid", str(grid), "--out", str(target))
        assert (code, out) == (2, "")
        assert not target.exists()
        with pytest.raises(DegenerateFrame) as refused:
            frenet_frame(HelixShape(R=1.0, a=a, b=a, omega=omega),
                         2 * math.pi * np.arange(grid) / grid)
        assert err == f"helixtm: error: {refused.value}\n"

    @pytest.mark.parametrize("lam", [1e-3, 1e6, 1e13, 1e100])
    def test_degenerate_test_is_scale_free(self, capsys, lam):
        # the default coil in another length unit: kappa*R, not kappa,
        # decides, so the round coil at one winding is still refused and
        # the default coil still prints
        shape = ["--R", f"{lam:g}", "--a", f"{0.5 * lam:g}", "--b", f"{0.5 * lam:g}"]
        code, out, err = run_cli(capsys, "geometry", *shape, "--omega", "1")
        assert (code, out) == (2, "")
        assert err.endswith("<= KAPPA_MIN, frame undefined\n") and err.count("\n") == 1
        code, out, err = run_cli(capsys, "geometry", *shape)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 257


class TestSharedParser:
    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # the parser is built once per process; each call after the first
        # must still print what a fresh process prints for its arguments
        argvs = [
            ["spectrum", "--a", "0.75", "--b", "0.25", "--omega", "6", "--p", "1", "--with-vc"],
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


def outcome(capsys, call):
    """The exit code (returned or raised), stdout and stderr of ``call()``."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseOnce:
    @pytest.mark.parametrize("argv", [
        ["geometry", "--temperature", "3"],
        ["moments", "--with-vc"],
        ["spectrum", "--grid", "7"],
        ["moments", "--grid", "5"],
        ["moments", "--omega", "x"],
        ["spectrum", "--with-vc", "--without-vc"],
        *([command, "-h"] for command in COMMANDS),
        [],
        ["bogus"],
        ["-h"],
    ], ids=lambda argv: " ".join(argv) or "no-argv")
    def test_bad_usage_and_help_match_the_top_parser(self, capsys, argv):
        # the command's parser reads a command line alone; what it refuses
        # or leaves over prints what the top-level parser prints, byte for byte
        by_main = outcome(capsys, lambda: main(argv))
        by_top = outcome(capsys, lambda: cli._build_parser().parse_args(argv))
        assert by_main == by_top
        assert by_main[0] in (0, 2) and by_main[1] + by_main[2]

    @pytest.mark.parametrize("argv", [
        ["moments", "--grid", "5"],
        ["geometry", "--temperature", "3", "--p", "1"],
        ["thermal", "--temperature", "1", "stray"],
    ])
    def test_left_over_strings_are_reported_under_the_top_usage(self, capsys, argv):
        code, out, err = outcome(capsys, lambda: main(argv))
        assert (code, out) == (2, "")
        assert err.startswith("usage: helixtm [-h]") and "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["moments", "--a", "0.75", "--b", "0.25", "--omega", "6", "--p", "0-5", "--n-max", "3"],
        ["spectrum", "--omega", "6", "--p", "1", "--with-vc", "--digits", "8"],
        ["thermal", "--both", "--temperature", "0.1", "--digits", "4"],
        ["current", "--grid", "16", "--out", "-"],
        ["geometry", "--R", "2", "--grid", "8"],
        ["potential", "--a", "0.5,0.25", "--b", "0.5,0.75", "--grid", "8"],
    ])
    def test_a_command_line_is_read_by_its_command_parser_alone(self, capsys, monkeypatch, argv):
        parser = cli._build_parser()
        expected = parser.parse_args(argv)

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser read a valid command line")

        monkeypatch.setattr(parser, "parse_known_args", refuse)
        assert cli._parse_args(argv) == expected
        assert run_cli(capsys, *argv)[0] == 0


class TestSignedZero:
    """No small table prints -0: each value goes through one row format
    after -0.0 is made 0.0."""

    def test_classical_column_of_branch_zero(self, capsys):
        # the loop current of branch 0 is 0, so the classical moment is -0.0
        # before the table normalises it
        shape = cli._unit_shape(HelixShape(R=1.0, a=0.5, b=0.5, omega=6))
        assert math.copysign(1.0, classical_moment_closed(shape, 0.0)[2]) == -1.0
        code, out, err = run_cli(capsys, "moments", "--omega", "6", "--p", "0")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 5 and {row[5] for row in rows} == {"0"}
        assert "-0" not in {field for row in rows for field in row}

    def test_ratio_of_a_zero_moment(self, capsys, monkeypatch):
        # 0 over a negative moment is -0.0
        real = cli.branch_moments

        def moments(shape, pairs, n_max):
            dec, vectors = real(shape, pairs, n_max)
            vectors = vectors.copy()
            vectors[0::2, :, 2], vectors[1::2, :, 2] = -0.0, -1.0
            return dec, vectors

        monkeypatch.setattr(cli, "branch_moments", moments)
        code, out, _ = run_cli(capsys, "moments", "--omega", "6", "--p", "1")
        _, rows = parse_csv(out)
        assert code == 0 and [row[2:5] for row in rows] == [["0", "-1", "0"]] * 5

    def test_spectrum_rows(self, capsys, monkeypatch):
        real = cli.branch_spectra

        def signed_zeros(shape, pairs, n_max):
            dec = real(shape, pairs, n_max)
            return types.SimpleNamespace(eigenvalues=dec.eigenvalues * -0.0,
                                         eigenvectors=dec.eigenvectors * -0.0)

        monkeypatch.setattr(cli, "branch_spectra", signed_zeros)
        code, out, _ = run_cli(capsys, "spectrum", "--omega", "6", "--p", "1", "--n-max", "3")
        _, rows = parse_csv(out)
        assert code == 0 and len(rows) == 2 * 8
        assert all(row[3:] == ["0"] * 7 for row in rows)

    def test_thermal_rows(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "thermal_average", lambda levels, spec: -0.0)
        code, out, _ = run_cli(capsys, "thermal", "--omega", "6", "--p", "1-2",
                               "--temperature", "0.1")
        assert code == 0
        assert out.splitlines()[2:] == ["1  off  0  0", "1  on   0  0",
                                        "2  off  0  0", "2  on   0  0"]


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "helixtm.cli", "geometry", "--grid", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(GEOMETRY_HEADER)
