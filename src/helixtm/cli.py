"""Command line front end.

Subcommands mirror the library layers: ``geometry`` and ``potential``
tabulate curve data, ``spectrum`` prints eigenvalue/coefficient tables,
``current``, ``moments`` and ``thermal`` cover the observables.  Output
is CSV (``thermal`` uses aligned text) on stdout or ``--out``.

Every command evaluates the shape at unit major radius,
(1, a/R, b/R, omega).  ``geometry`` scales its table back to R as given
(position and f times R, kappa and tau over R); the other commands print
their numbers as they come: energies, V_c and currents in units of 1/R^2
and moments in units of R, the same whatever length unit R is given in.
The spectra and the toroidal moments take their harmonics in closed
form, and the arc length behind the classical column of ``moments`` is a
complete elliptic integral, so no command samples an integral or takes a
quadrature setting.

Every command takes the shape flags, ``--digits``, ``--out`` and
``--config``, and only the other flags it reads: ``--p`` and ``--n-max``
the four physics commands, the V_c flags ``spectrum``, ``current`` and
``thermal``, ``--grid`` ``geometry``, ``potential`` and ``current``, and
``--temperature`` ``thermal``.  Any other flag is bad usage.  Options may
also come from a ``key = value`` config file (``--config``), whose keys
are shared by all commands; explicit flags win over file values.  One
table, ``_SETTINGS``, names the config keys (the flags' names), their
defaults and how a file value is read.  Exit codes: 0 success, 2 bad
usage/configuration or an unwritable output file, 3 numerical
non-convergence.

A command line is parsed once: its first string names the command, whose
parser reads the rest.  Only a command line it cannot take whole goes to
the top-level parser (none at all, ``-h``, an unknown command, or strings
the command's parser leaves over), which prints the help or the usage
error, with the usage line of ``helixtm`` for strings left over.  The small
tables (``spectrum``, ``moments``, ``thermal``) print each row with one
``%`` format of ``%.<digits>g`` fields, after adding 0.0 to every value so
that -0.0 prints as 0, as it does in the grid tables.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import _gformat, geometry, observables
# ``speed`` is not called here; perfbench's tracer test checks ``cli.speed``
from .geometry import HelixShape, speed  # noqa: F401
from .linalg import NoConvergence
from .observables import (
    ThermalSpec,
    branch_moments,
    classical_moment_closed,
    free_particle_current,
    thermal_average,
)
from .spectrum import branch_spectra

GEOMETRY_HEADER = "phi,x,y,z,f,kappa,tau,Tx,Ty,Tz,Nx,Ny,Nz,Bx,By,Bz"


class UsageError(ValueError):
    """Bad flag/config input; maps to exit code 2."""


def _vc_from_text(text):
    if text not in ("with", "without", "both"):
        raise ValueError("must be one of: with, without, both")
    return text


# Every setting's default and the converter of its config-file value.  The
# keys are the config keys and the parsed flags' names.  ``a``, ``b`` and
# ``p`` stay text here and are parsed as lists once resolved; ``p`` has no
# fixed default, since it follows omega.
_SETTINGS = {
    "R": (1.0, float),
    "a": ("0.5", str),
    "b": ("0.5", str),
    "omega": (4, int),
    "p": (None, str),
    "n_max": (2, int),
    "vc": ("both", _vc_from_text),
    "grid": (256, int),
    "temperature": (None, float),
    "digits": (6, int),
    "out": ("-", str),
}


# The option groups beyond the shape and output flags, and the commands
# that read each; a command accepts no other flag.
_READ_BY = {
    "branch": ("spectrum", "current", "moments", "thermal"),
    "vc": ("spectrum", "current", "thermal"),
    "grid": ("geometry", "potential", "current"),
    "temperature": ("thermal",),
}


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by later calls.

    Every command takes the shape flags, ``--digits``, ``--out`` and
    ``--config``, and only the other flags it reads (``_READ_BY``).  The
    parser keeps its command parsers in ``commands``, by command name.
    """
    shape = argparse.ArgumentParser(add_help=False)
    g = shape.add_argument_group("shape")
    g.add_argument("--R", type=float, help="major radius (default 1)")
    g.add_argument("--a",
                   help="radial half-axis; comma list allowed for 'potential' (default 0.5)")
    g.add_argument("--b",
                   help="vertical half-axis; comma list allowed for 'potential' (default 0.5)")
    g.add_argument("--omega", type=int, help="windings per turn (default 4)")

    groups = {name: argparse.ArgumentParser(add_help=False) for name in _READ_BY}
    g = groups["branch"].add_argument_group("solver")
    g.add_argument("--p", help="branch index, single/list/range e.g. 2 or 1,3 or 1-3")
    g.add_argument("--n-max", type=int, help="basis half-width (default 2)")
    vc = groups["vc"].add_argument_group("curvature potential").add_mutually_exclusive_group()
    vc.add_argument("--with-vc", dest="vc", action="store_const", const="with",
                    help="include the curvature potential")
    vc.add_argument("--without-vc", dest="vc", action="store_const", const="without",
                    help="drop the curvature potential")
    vc.add_argument("--both", dest="vc", action="store_const", const="both",
                    help="run with and without the curvature potential (default)")
    groups["grid"].add_argument_group("sampling").add_argument(
        "--grid", type=int, help="angle samples per turn (default 256)")
    groups["temperature"].add_argument_group("thermal").add_argument(
        "--temperature", type=float, help="temperature, in reported energy units")

    output = argparse.ArgumentParser(add_help=False)
    o = output.add_argument_group("output")
    o.add_argument("--digits", type=int, help="significant digits (default 6)")
    o.add_argument("--out", help="output file, '-' for stdout (default)")
    o.add_argument("--config", help="key = value config file; flags override")

    parser = argparse.ArgumentParser(
        prog="helixtm",
        description="Quantum states, currents, and toroidal moments on toroidal helices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, doc in [
        ("geometry", "tabulate curve point, speed, curvature, torsion, and frame"),
        ("potential", "tabulate the curvature potential for one or more cross-sections"),
        ("spectrum", "print eigenvalues and basis coefficients per branch"),
        ("current", "tabulate the probability current of every sub-state"),
        ("moments", "toroidal moments with/without curvature plus classical reference"),
        ("thermal", "Boltzmann-averaged toroidal moments at a temperature"),
    ]:
        read = [groups[group] for group, commands in _READ_BY.items() if name in commands]
        command = sub.add_parser(name, parents=[shape, *read, output], help=doc)
        # a flag the command does not take reads as unset: config file or default
        command.set_defaults(**dict.fromkeys(_SETTINGS))
        parser.commands[name] = command
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
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = (value, lineno)
    return values


def _parse_float_list(text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"expected number or comma list, got {text!r}") from exc


def _parse_p_list(text):
    out = []
    for part in text.split(","):
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


# The largest --digits: ``%`` reads a precision into a C int and raises
# "precision too big" past it, which for a grid table would come only
# after the --out file is opened.
_DIGITS_LIMIT = 2**31 - 1


def _resolve(args):
    """The parsed flags with every setting of ``_SETTINGS`` filled in.

    Each setting is the flag if given, else the config file's value, else
    its default; ``a`` and ``b`` then become lists of numbers and ``p`` a
    list of branches (by default 1 up to min(3, omega - 1), or 0).
    ``--grid`` below 2 and ``--digits`` outside 1.._DIGITS_LIMIT are usage
    errors, raised here, before a command runs or a file is opened.
    """
    config = _parse_config_file(args.config) if args.config else {}
    for key, (default, convert) in _SETTINGS.items():
        value = getattr(args, key)
        if value is None and key in config:
            raw, lineno = config[key]
            try:
                value = convert(raw)
            except (ValueError, TypeError) as exc:
                raise UsageError(f"{args.config}:{lineno}: bad value for {key!r}: {exc}") from exc
        setattr(args, key, default if value is None else value)
    args.a, args.b = _parse_float_list(args.a), _parse_float_list(args.b)
    args.p = (_parse_p_list(args.p) if args.p is not None
              else list(range(1, min(3, max(args.omega - 1, 0)) + 1)) or [0])
    if args.grid < 2:
        raise UsageError(f"--grid must be >= 2, got {args.grid}")
    if args.digits < 1:
        raise UsageError(f"--digits must be >= 1, got {args.digits}")
    if args.digits > _DIGITS_LIMIT:
        raise UsageError(f"--digits must be <= {_DIGITS_LIMIT}, got {args.digits}")
    return args


def _single_shape(settings):
    if len(settings.a) != 1 or len(settings.b) != 1:
        raise UsageError("this command takes single --a and --b values")
    return HelixShape(R=settings.R, a=settings.a[0], b=settings.b[0], omega=settings.omega)


def _unit_shape(shape):
    """(1, a/R, b/R, omega), the shape the physics commands solve.

    numpy divides, so an overflow raises under the command's error state; a
    ratio that underflows keeps the smallest float, whose terms underflow alike.
    """
    a, b = np.maximum(np.divide([shape.a, shape.b], shape.R),
                      np.finfo(float).smallest_subnormal).tolist()
    return HelixShape(R=1.0, a=a, b=b, omega=shape.omega)


def _branch_pairs(settings):
    """The (p, include_vc) pairs the --p and V_c flags ask for, in print order."""
    variants = {"with": [True], "without": [False], "both": [False, True]}[settings.vc]
    return [(p, include_vc) for p in settings.p for include_vc in variants]


def _grid_angles(settings):
    return 2.0 * np.pi * np.arange(settings.grid) / settings.grid


# Values per formatted block of a grid table.
_BLOCK_VALUES = 1 << 14


def _grid_blocks(header, rows, fill, digits):
    """CSV text of a header line and ``rows`` table rows, as an iterator of
    chunks: the header line, then one block of rows per chunk.

    The table has one column per field of the header and is filled here,
    one block of rows at a time, before the first chunk is asked for:
    ``fill(rows, out)`` writes the rows of the slice ``rows`` into ``out``,
    that block of one preallocated table.  A block holds about
    ``_BLOCK_VALUES`` values (at least one row) whatever the table's
    width, so the arrays a command forms for a block stay small, and a
    writer that takes the chunks one at a time holds the working arrays
    and the text of one block, not of the whole table.  Every value is
    printed as ``%.<digits>g``, with -0.0 as 0.

    ``_gformat.block_text`` formats each block, by one of two paths that
    it picks from the values and ``digits`` alone, in one
    ``_gformat.workspace`` that the table's blocks share, so a block
    allocates little beyond its text.  Up to ``_gformat.MAX_DIGITS``
    digits, the fixed-notation values are formatted as arrays: each value
    is a 16-byte slot of four NUL-padded words (separator, sign and "0.";
    the zeros after the point; two 3-digit groups of the mantissa), and
    the block's row separators and final "\\n" are slots' separator bytes.
    The rest go to ``%`` one value at a time: values printed in exponent
    notation, values that are not finite, and values whose mantissa,
    scaled by a power of ten in float64, lies within 16 ulp of a rounding
    tie or a decade edge or rounds up to the next decade.  Only there
    could the scaled float and the exact binary value, which ``%`` rounds,
    print differently, so both paths give the bytes of ``%``.  At more
    digits, or when more than half of a block's values would go to ``%``,
    the whole block is one row format filled by one ``%``.
    """
    ncols = header.count(",") + 1
    table = np.empty((rows, ncols))
    step = max(1, _BLOCK_VALUES // ncols)
    for start in range(0, rows, step):
        block = table[start:start + step]
        fill(slice(start, start + step), block)
        block += 0.0  # turns -0.0 into 0.0

    def chunks():
        yield header + "\n"
        work = _gformat.workspace(min(rows, step) * ncols)
        for start in range(0, rows, step):
            yield _gformat.block_text(table[start:start + step], digits, work)

    return chunks()


def _cmd_geometry(settings):
    shape = _single_shape(settings)
    unit = _unit_shape(shape)
    R = shape.R
    phi = _grid_angles(settings)
    lowest = []  # every block's smallest curvature

    def fill(rows, out):
        jet = geometry._binormal_jet(unit, phi[rows])
        lowest.append(np.min(jet.kappa))
        if geometry._degenerate(unit, lowest[-1]):
            out[:] = 0.0  # refused below, with the whole grid's smallest curvature
            return
        tau, normal, binormal = geometry._frame_rest(jet)
        columns = [phi[rows], *(x * R for x in jet.r), jet.f * R, jet.kappa / R, tau / R,
                   *jet.tangent, *normal, *binormal]
        for i, column in enumerate(columns):
            out[:, i] = column

    blocks = _grid_blocks(GEOMETRY_HEADER, phi.size, fill, settings.digits)
    geometry._check_frame(unit, np.array(lowest))
    return blocks


def _cmd_potential(settings):
    if len(settings.a) != len(settings.b):
        raise UsageError("--a and --b lists must have the same length")
    shapes = [
        HelixShape(R=settings.R, a=a, b=b, omega=settings.omega)
        for a, b in zip(settings.a, settings.b)
    ]
    header = "phi," + ",".join(f"Vc[a={s.a:g};b={s.b:g}]" for s in shapes)
    phi = _grid_angles(settings)
    units = [_unit_shape(s) for s in shapes]

    def fill(rows, out):
        out[:, 0] = phi[rows]
        s, c, _ = geometry._sc(units[0], phi[rows])  # one winding angle for every section
        for i, unit in enumerate(units, 1):
            out[:, i] = geometry._potential_at(unit, s, c)

    return _grid_blocks(header, phi.size, fill, settings.digits)


def _cmd_spectrum(settings):
    shape = _unit_shape(_single_shape(settings))
    dim = 2 * settings.n_max + 1
    lines = ["p,vc,row," + ",".join(f"alpha{i}" for i in range(dim))]
    fields = ",".join([f"%.{settings.digits}g"] * dim)
    pairs = _branch_pairs(settings)
    dec = branch_spectra(shape, pairs, settings.n_max)
    # adding 0.0 turns -0.0 into 0.0
    for (p, include_vc), energies, rows in zip(
            pairs, (dec.eigenvalues + 0.0).tolist(), (dec.eigenvectors + 0.0).tolist()):
        tag = "on" if include_vc else "off"
        lines.append(f"{p},{tag},E," + fields % tuple(energies))
        for n, row in zip(range(-settings.n_max, settings.n_max + 1), rows):
            lines.append(f"{p},{tag},m={n}," + fields % tuple(row))
    return ["\n".join(lines) + "\n"]


def _cmd_current(settings):
    shape = _unit_shape(_single_shape(settings))
    pairs = _branch_pairs(settings)
    if settings.grid < 2 * shape.omega:
        raise UsageError(f"--grid must be >= 2*omega = {2 * shape.omega}, got {settings.grid}")
    dec = branch_spectra(shape, pairs, settings.n_max)
    harmonics = observables._current_harmonics(shape, dec.eigenvectors, [p for p, _ in pairs])
    phi = _grid_angles(settings)
    header = ["phi"] + [
        f"j[p={p};alpha={alpha};vc={'on' if include_vc else 'off'}]"
        for p, include_vc in pairs for alpha in range(2 * settings.n_max + 1)
    ]

    def fill(rows, out):
        out[:, 0] = phi[rows]
        out[:, 1:] = observables._current_series(shape, harmonics, phi[rows]).T

    return _grid_blocks(",".join(header), phi.size, fill, settings.digits)


def _cmd_moments(settings):
    shape = _unit_shape(_single_shape(settings))
    g = f"%.{settings.digits}g"
    with_ratio, without_ratio = f"%d,%d,{g},{g},{g},{g}", f"%d,%d,{g},{g},,{g}"
    lines = ["p,alpha,Tz_without_vc,Tz_with_vc,ratio,Tz_classical"]
    pairs = [(p, include_vc) for p in settings.p for include_vc in (False, True)]
    _, vectors = branch_moments(shape, pairs, settings.n_max)
    z = (vectors[..., 2] + 0.0).tolist()  # adding 0.0 turns -0.0 into 0.0
    loops = free_particle_current(shape, np.array(settings.p, dtype=float))
    for p, loop, z_off, z_on in zip(settings.p, loops, z[0::2], z[1::2]):
        classical = classical_moment_closed(shape, loop)[2] + 0.0
        for alpha, (t_off, t_on) in enumerate(zip(z_off, z_on)):
            if abs(t_on) < 1e-6:
                lines.append(without_ratio % (p, alpha, t_off, t_on, classical))
            else:
                lines.append(with_ratio % (p, alpha, t_off, t_on, t_off / t_on + 0.0, classical))
    return ["\n".join(lines) + "\n"]


def _cmd_thermal(settings):
    shape = _unit_shape(_single_shape(settings))
    if settings.temperature is None:
        raise UsageError("'thermal' needs --temperature (or temperature= in the config)")
    g = f"%.{settings.digits}g"
    spec_norm = ThermalSpec(temperature=settings.temperature, normalize=True)
    spec_raw = ThermalSpec(temperature=settings.temperature, normalize=False)
    lines = [
        f"thermal toroidal moment averages, temperature = {g}" % settings.temperature,
        "p  vc   normalized  unnormalized",
    ]
    pairs = _branch_pairs(settings)
    dec, vectors = branch_moments(shape, pairs, settings.n_max)
    for (p, include_vc), energies, z in zip(
            pairs, dec.eigenvalues.tolist(), vectors[..., 2].tolist()):
        levels = list(zip(energies, z))
        avg = thermal_average(levels, spec_norm) + 0.0  # adding 0.0 turns -0.0 into 0.0
        tag = "on " if include_vc else "off"
        try:
            raw = thermal_average(levels, spec_raw) + 0.0
        except OverflowError:
            lines.append(f"%d  %s  {g}  overflow" % (p, tag, avg))
        else:
            lines.append(f"%d  %s  {g}  {g}" % (p, tag, avg, raw))
    return ["\n".join(lines) + "\n"]


_COMMANDS = {
    "geometry": _cmd_geometry,
    "potential": _cmd_potential,
    "spectrum": _cmd_spectrum,
    "current": _cmd_current,
    "moments": _cmd_moments,
    "thermal": _cmd_thermal,
}


def _parse_args(argv):
    """The parsed command line, ``args.command`` naming its command.

    A valid command line starts with a command name, and that command's
    parser alone reads the rest, as the top-level parser would hand it on.
    Any other argv (none, ``-h``, an unknown command), or strings the
    command's parser leaves over, goes to the top-level parser, which
    prints its help or its usage error.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    try:
        settings = _resolve(args)
        # every command computes its numbers before returning; the chunks
        # only format them, so a failure leaves no --out file behind.  A
        # division by zero, overflow or invalid value in a shape's
        # functions is a numerical failure, not a row of inf or nan
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            chunks = _COMMANDS[args.command](settings)
        if settings.out == "-":
            sys.stdout.writelines(chunks)
        else:
            with open(settings.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
    except (NoConvergence, OverflowError, FloatingPointError, MemoryError) as exc:
        print(f"helixtm: numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"helixtm: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
