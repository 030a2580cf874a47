"""Command line front end.

Subcommands mirror the library layers: ``geometry`` and ``potential``
tabulate curve data, ``spectrum`` prints eigenvalue/coefficient tables,
``current``, ``moments`` and ``thermal`` cover the observables.  Output
is CSV (``thermal`` uses aligned text) on stdout or ``--out``.

The solver works in natural units with lengths as given; reported
energies and currents carry a factor R^2 and toroidal moments a factor
1/R so that everything is expressed in units built from the major
radius.  With the default R = 1 this is the identity.

Options may come from a ``key = value`` config file (``--config``);
explicit flags win over file values.  Exit codes: 0 success, 2 bad
usage/configuration or an unwritable output file, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import _gformat
from .geometry import HelixShape, curvature_potential, frenet_frame, position, speed
from .linalg import HermiticityViolation, NoConvergence
from .observables import (
    ThermalSpec,
    branch_moments,
    classical_moment_closed,
    currents,
    loop_current,
    thermal_average,
)
from .quadrature import QuadratureNotConverged, QuadratureSpec
from .spectrum import branch_momenta, branch_spectra

GEOMETRY_HEADER = "phi,x,y,z,f,kappa,tau,Tx,Ty,Tz,Nx,Ny,Nz,Bx,By,Bz"

_CONFIG_KEYS = {
    "R", "a", "b", "omega", "p", "n_max", "vc", "grid",
    "quad_points", "quad_tol", "temperature", "digits", "out",
}


class UsageError(ValueError):
    """Bad flag/config input; maps to exit code 2."""


@dataclass
class Settings:
    R: float
    a_list: list
    b_list: list
    omega: int
    p_list: list
    n_max: int
    vc: str  # "with" | "without" | "both"
    grid: int
    quad: QuadratureSpec | None
    temperature: float | None
    digits: int
    out: str


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by later calls."""
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("shape and solver")
    g.add_argument("--R", type=float, default=None, help="major radius (default 1)")
    g.add_argument("--a", default=None,
                   help="radial half-axis; comma list allowed for 'potential' (default 0.5)")
    g.add_argument("--b", default=None,
                   help="vertical half-axis; comma list allowed for 'potential' (default 0.5)")
    g.add_argument("--omega", type=int, default=None, help="windings per turn (default 4)")
    g.add_argument("--p", default=None,
                   help="branch index, single/list/range e.g. 2 or 1,3 or 1-3")
    g.add_argument("--n-max", type=int, default=None, help="basis half-width (default 2)")
    vc = common.add_mutually_exclusive_group()
    vc.add_argument("--with-vc", dest="vc", action="store_const", const="with",
                    help="include the curvature potential")
    vc.add_argument("--without-vc", dest="vc", action="store_const", const="without",
                    help="drop the curvature potential")
    vc.add_argument("--both", dest="vc", action="store_const", const="both",
                    help="run with and without the curvature potential")
    o = common.add_argument_group("sampling and output")
    o.add_argument("--grid", type=int, default=None, help="angle samples per turn (default 256)")
    o.add_argument("--quad-points", type=int, default=None, help="initial quadrature points")
    o.add_argument("--quad-tol", type=float, default=None, help="quadrature tolerance")
    o.add_argument("--temperature", type=float, default=None,
                   help="temperature for 'thermal', in reported energy units")
    o.add_argument("--digits", type=int, default=None, help="significant digits (default 6)")
    o.add_argument("--out", default=None, help="output file, '-' for stdout (default)")
    o.add_argument("--config", default=None, help="key = value config file; flags override")
    common.set_defaults(vc=None)

    parser = argparse.ArgumentParser(
        prog="helixtm",
        description="Quantum states, currents, and toroidal moments on toroidal helices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("geometry", "tabulate curve point, speed, curvature, torsion, and frame"),
        ("potential", "tabulate the curvature potential for one or more cross-sections"),
        ("spectrum", "print eigenvalues and basis coefficients per branch"),
        ("current", "tabulate the probability current of every sub-state"),
        ("moments", "toroidal moments with/without curvature plus classical reference"),
        ("thermal", "Boltzmann-averaged toroidal moments at a temperature"),
    ]:
        sub.add_parser(name, parents=[common], help=doc)
    return parser


def _parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = (value, lineno)
    return values


def _pick(args_value, config, key, default, convert, path):
    """Flag value if given, else config file value, else default."""
    if args_value is not None:
        return args_value
    if key in config:
        raw, lineno = config[key]
        try:
            return convert(raw)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return default


def _parse_float_list(text):
    try:
        return [float(part) for part in str(text).split(",")]
    except ValueError as exc:
        raise UsageError(f"expected number or comma list, got {text!r}") from exc


def _parse_p_list(text):
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if "-" in part:  # branch indices are non-negative, so '-' means a range
            lo, _, hi = part.partition("-")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError as exc:
                raise UsageError(f"bad branch range {part!r}") from exc
            if hi < lo:
                raise UsageError(f"empty branch range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(part))
            except ValueError as exc:
                raise UsageError(f"bad branch index {part!r}") from exc
    return out


def _vc_from_text(text):
    if text not in ("with", "without", "both"):
        raise ValueError("must be one of: with, without, both")
    return text


def _resolve(args):
    config = _parse_config_file(args.config) if args.config else {}
    path = args.config
    omega = _pick(args.omega, config, "omega", 4, int, path)
    default_p = list(range(1, min(3, max(omega - 1, 0)) + 1)) or [0]
    p_raw = _pick(args.p, config, "p", None, str, path)
    settings = Settings(
        R=_pick(args.R, config, "R", 1.0, float, path),
        a_list=_parse_float_list(_pick(args.a, config, "a", "0.5", str, path)),
        b_list=_parse_float_list(_pick(args.b, config, "b", "0.5", str, path)),
        omega=omega,
        p_list=_parse_p_list(p_raw) if p_raw is not None else default_p,
        n_max=_pick(args.n_max, config, "n_max", 2, int, path),
        vc=_pick(args.vc, config, "vc", "both", _vc_from_text, path),
        grid=_pick(args.grid, config, "grid", 256, int, path),
        quad=None,
        temperature=_pick(args.temperature, config, "temperature", None, float, path),
        digits=_pick(args.digits, config, "digits", 6, int, path),
        out=_pick(args.out, config, "out", "-", str, path),
    )
    qp = _pick(args.quad_points, config, "quad_points", None, int, path)
    qt = _pick(args.quad_tol, config, "quad_tol", None, float, path)
    if qp is not None or qt is not None:
        default = QuadratureSpec()
        settings.quad = QuadratureSpec(
            initial_points=qp if qp is not None else default.initial_points,
            tolerance=qt if qt is not None else default.tolerance,
        )
    if settings.grid < 2:
        raise UsageError(f"--grid must be >= 2, got {settings.grid}")
    if settings.digits < 1:
        raise UsageError(f"--digits must be >= 1, got {settings.digits}")
    return settings


def _single_shape(settings):
    if len(settings.a_list) != 1 or len(settings.b_list) != 1:
        raise UsageError("this command takes single --a and --b values")
    return HelixShape(
        R=settings.R, a=settings.a_list[0], b=settings.b_list[0], omega=settings.omega
    )


def _branch_pairs(settings):
    """The (p, include_vc) pairs the --p and V_c flags ask for, in print order."""
    variants = {"with": [True], "without": [False], "both": [False, True]}[settings.vc]
    return [(p, include_vc) for p in settings.p_list for include_vc in variants]


def _grid_angles(settings):
    return 2.0 * np.pi * np.arange(settings.grid) / settings.grid


def _r_squared(settings):
    """R^2, the unit of reported energies and currents."""
    try:
        return settings.R**2
    except OverflowError:
        raise OverflowError(f"R^2 overflows for R = {settings.R:g}") from None


def _fmt(value, digits):
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalise -0.0
    return "%.*g" % (digits, value)


# Values per formatted block of a grid table.
_BLOCK_VALUES = 1 << 14


def _grid_blocks(header, columns, digits):
    """CSV text of a header line and one row per grid angle, as an iterator
    of chunks: the header line, then one block of rows per chunk.

    Every value is printed as ``%.<digits>g``, with -0.0 as 0, like
    ``_fmt``.  The columns are stacked into one table here, before the
    first chunk is asked for.  A block holds about ``_BLOCK_VALUES`` values
    (at least one row) whatever the table's width, so a writer that takes
    the chunks one at a time holds the temporaries and the text of one
    block, not of the whole table.

    ``_gformat.block_text`` formats each block, by one of two paths that
    it picks from the values and ``digits`` alone.  Up to
    ``_gformat.MAX_DIGITS`` digits, the fixed-notation values are formatted
    as arrays and the rest go to ``%`` one value at a time: values printed
    in exponent notation, values that are not finite, and values whose
    mantissa, scaled by a power of ten in float64, lies within 16 ulp of a
    rounding tie or a decade edge.  Only there could the scaled float and
    the exact binary value, which ``%`` rounds, print differently, so both
    paths give ``_fmt``'s bytes.  At more digits, or when more than half
    of a block's values would go to ``%``, the whole block is one row
    format filled by one ``%``.
    """
    table = np.column_stack(columns) + 0.0  # + 0.0 turns -0.0 into 0.0
    rows, ncols = table.shape
    step = max(1, _BLOCK_VALUES // ncols)

    def chunks():
        yield header + "\n"
        for start in range(0, rows, step):
            yield _gformat.block_text(table[start:start + step], digits)

    return chunks()


def _cmd_geometry(settings):
    shape = _single_shape(settings)
    phi = _grid_angles(settings)
    frame = frenet_frame(shape, phi)
    columns = [phi, *position(shape, phi).T, frame.speed, frame.kappa, frame.tau,
               *frame.tangent.T, *frame.normal.T, *frame.binormal.T]
    return _grid_blocks(GEOMETRY_HEADER, columns, settings.digits)


def _cmd_potential(settings):
    if len(settings.a_list) != len(settings.b_list):
        raise UsageError("--a and --b lists must have the same length")
    shapes = [
        HelixShape(R=settings.R, a=a, b=b, omega=settings.omega)
        for a, b in zip(settings.a_list, settings.b_list)
    ]
    scale = _r_squared(settings)
    header = "phi," + ",".join(f"Vc[a={s.a:g};b={s.b:g}]" for s in shapes)
    phi = _grid_angles(settings)
    columns = [phi] + [scale * curvature_potential(s, phi) for s in shapes]
    return _grid_blocks(header, columns, settings.digits)


def _cmd_spectrum(settings):
    shape = _single_shape(settings)
    d = settings.digits
    scale = _r_squared(settings)
    dim = 2 * settings.n_max + 1
    lines = ["p,vc,row," + ",".join(f"alpha{i}" for i in range(dim))]
    pairs = _branch_pairs(settings)
    dec = branch_spectra(shape, pairs, settings.n_max, settings.quad)
    for (p, include_vc), energies, rows in zip(
            pairs, dec.eigenvalues.tolist(), dec.eigenvectors.tolist()):
        tag = "on" if include_vc else "off"
        lines.append(f"{p},{tag},E," + ",".join(_fmt(scale * e, d) for e in energies))
        for n, row in zip(range(-settings.n_max, settings.n_max + 1), rows):
            lines.append(f"{p},{tag},m={n}," + ",".join(_fmt(x, d) for x in row))
    return ["\n".join(lines) + "\n"]


def _cmd_current(settings):
    shape = _single_shape(settings)
    scale = _r_squared(settings)
    pairs = _branch_pairs(settings)
    dec = branch_spectra(shape, pairs, settings.n_max, settings.quad)
    if settings.grid < 2 * shape.omega:
        raise UsageError(f"grid_size must be >= 2*omega = {2 * shape.omega}, got {settings.grid}")
    phi = _grid_angles(settings)
    k = branch_momenta(shape, [p for p, _ in pairs], settings.n_max)
    j = currents(shape, dec.eigenvectors, k, phi)
    header = ["phi"] + [
        f"j[p={p};alpha={alpha};vc={'on' if include_vc else 'off'}]"
        for p, include_vc in pairs for alpha in range(j.shape[1])
    ]
    return _grid_blocks(",".join(header), [phi, *(scale * j).reshape(-1, settings.grid)],
                        settings.digits)


def _cmd_moments(settings):
    shape = _single_shape(settings)
    d = settings.digits
    scale = 1.0 / settings.R
    lines = ["p,alpha,Tz_without_vc,Tz_with_vc,ratio,Tz_classical"]
    pairs = [(p, include_vc) for p in settings.p_list for include_vc in (False, True)]
    # spectra, moments and the arc length from one sampling pass
    _, vectors, length = branch_moments(shape, pairs, settings.n_max, settings.quad, length=True)
    z = vectors[..., 2].tolist()
    loops = loop_current(np.array(settings.p_list, dtype=float), length)
    for p, loop, z_off, z_on in zip(settings.p_list, loops, z[0::2], z[1::2]):
        classical = scale * classical_moment_closed(shape, loop)[2]
        for alpha, (t_off, t_on) in enumerate(zip(z_off, z_on)):
            t_off, t_on = scale * t_off, scale * t_on
            ratio = "" if abs(t_on) < 1e-6 else _fmt(t_off / t_on, d)
            lines.append(
                f"{p},{alpha},{_fmt(t_off, d)},{_fmt(t_on, d)},{ratio},{_fmt(classical, d)}"
            )
    return ["\n".join(lines) + "\n"]


def _cmd_thermal(settings):
    shape = _single_shape(settings)
    if settings.temperature is None:
        raise UsageError("'thermal' needs --temperature (or temperature= in the config)")
    d = settings.digits
    t_scale = 1.0 / settings.R
    e_scale = _r_squared(settings)
    spec_norm = ThermalSpec(temperature=settings.temperature, normalize=True)
    spec_raw = ThermalSpec(temperature=settings.temperature, normalize=False)
    lines = [
        f"thermal toroidal moment averages, temperature = {_fmt(settings.temperature, d)}",
        "p  vc   normalized  unnormalized",
    ]
    pairs = _branch_pairs(settings)
    dec, vectors, _ = branch_moments(shape, pairs, settings.n_max, settings.quad)
    for (p, include_vc), energies, z in zip(
            pairs, dec.eigenvalues.tolist(), vectors[..., 2].tolist()):
        levels = [(e_scale * e, t_scale * t) for e, t in zip(energies, z)]
        avg = thermal_average(levels, spec_norm)
        try:
            raw = _fmt(thermal_average(levels, spec_raw), d)
        except OverflowError:
            raw = "overflow"
        tag = "on " if include_vc else "off"
        lines.append(f"{p}  {tag}  {_fmt(avg, d)}  {raw}")
    return ["\n".join(lines) + "\n"]


_COMMANDS = {
    "geometry": _cmd_geometry,
    "potential": _cmd_potential,
    "spectrum": _cmd_spectrum,
    "current": _cmd_current,
    "moments": _cmd_moments,
    "thermal": _cmd_thermal,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        settings = _resolve(args)
        for p in settings.p_list:
            if not 0 <= p < settings.omega:
                raise UsageError(f"branch index must satisfy 0 <= p < omega, got p={p}")
        # every command computes its numbers before returning; the chunks
        # only format them, so a failure leaves no --out file behind
        chunks = _COMMANDS[args.command](settings)
        if settings.out == "-":
            sys.stdout.writelines(chunks)
        else:
            with open(settings.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
    except (QuadratureNotConverged, NoConvergence, HermiticityViolation, OverflowError,
            MemoryError) as exc:
        print(f"helixtm: numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"helixtm: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
