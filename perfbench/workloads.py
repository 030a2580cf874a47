"""The three workloads: their inputs, made from a seed, their operations, and
how the outputs of one round are checked.

A round is the workload's fixed list of operations.  A run repeats whole
rounds, so every run attempts the same operations in the same proportions.

basis-ladder
    ``solve_states`` for one paper shape (R=1, a=0.75, b=0.25, omega=6) and
    one seeded branch p, at n_max 8, 12 and 16, without and with V_c: six
    solves.  Hamiltonian assembly (dim^2 adaptive quadratures) and the
    eigensolver grow with n_max; every operation shares one shape.
eccentricity-scan
    ``helixtm moments`` (in process, through ``helixtm.cli.main``) over
    seeded cross-sections a + b = 1 with a stratified over [0.1, 0.9], from
    upright to flattened loops, at n_max=2: every branch at omega 4 and 6,
    and one seeded branch at omega 40.  One operation is one shape's table.
cli-tables
    All six subcommands on the paper shapes (a, b) in {(0.75, 0.25),
    (0.5, 0.5), (0.25, 0.75)} at omega=4, written with ``--out`` to files,
    with a seeded branch per subcommand.  A large grid and one branch make
    formatting and writing most of the work.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from reference import Reference

R = 1.0
PAPER_SHAPES = ((0.75, 0.25), (0.5, 0.5), (0.25, 0.75))

LADDER_SHAPE = (R, 0.75, 0.25, 6)
LADDER_N_MAX = (8, 12, 16)

# eccentricity-scan: (omega, strata of a, branches per shape or None for all)
SCAN_PLAN = ((4, 5, None), (6, 5, None), (40, 5, 1))
SCAN_N_MAX = 2
A_RANGE = (0.1, 0.9)
# a lies within this fraction of its stratum's width around the stratum's
# centre.  The quadrature's grid size, and with it the cost of a shape, jumps
# with a; a narrow jitter keeps the work of a round nearly the same for every
# seed (IQR of the round cost over seeds: 2% at 0.3, 14% at 1).
SCAN_JITTER = 0.3

CLI_GRID = 16384
CLI_N_MAX = 2
# The paper shape of each subcommand and one omega for all; the seed draws
# the branches and the temperature.  Shape and omega set the size of the
# small solve-based operations, on which op_p50_s rests: drawn per seed, as
# they once were, they moved op_p50_s by 10% and wall_s by 6% between seeds
# (IQR / median over ten seeds, from a cost model of measured operations).
CLI_OMEGA = 4
CLI_SHAPES = {"geometry": PAPER_SHAPES[0], "spectrum": PAPER_SHAPES[0], "current": PAPER_SHAPES[1],
              "moments": PAPER_SHAPES[1], "thermal": PAPER_SHAPES[2]}
CLI_TEMPERATURES = (0.05, 0.1, 0.5)


class OpFailed(RuntimeError):
    """The program rejected an operation (non-zero exit status or exception)."""


def _same(value):
    return value


@dataclass
class Op:
    """One operation.  ``run`` is timed; outside the timed window ``collect``
    turns its result into the output that is fingerprinted, and ``keep``
    stores the first round's output for the checks."""

    name: str
    run: Callable[[], object]
    collect: Callable[[object], object] = _same
    keep: Callable[[object], object] = _same


@dataclass
class Workload:
    ops: list
    # outputs of one round (one per op, None for a failed op) -> failures per op
    check: Callable[[list], list]
    fingerprint: Callable[[object], bytes]


def _text_fingerprint(text):
    return text.encode("utf-8")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _file_fingerprint(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_cli(cli, argv):
    """helixtm.cli.main in process; returns what it wrote to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise OpFailed(f"exit {status}: {err.getvalue().strip()}")
    return out.getvalue()


def _shape_args(a, b, omega):
    return ["--R", f"{R:g}", "--a", f"{a:g}", "--b", f"{b:g}", "--omega", str(omega)]


# --- basis-ladder -----------------------------------------------------------

def basis_ladder(seed, helixtm, scratch_dir):
    rng = np.random.default_rng(seed)
    R_, a, b, omega = LADDER_SHAPE
    p = int(rng.integers(0, omega))
    shape = helixtm.HelixShape(R=R_, a=a, b=b, omega=omega)
    keys = [(n_max, vc) for n_max in LADDER_N_MAX for vc in (False, True)]

    def solve(n_max, vc):
        config = helixtm.SpectrumConfig(include_vc=vc, n_max=n_max)
        return lambda: helixtm.solve_states(shape, helixtm.make_basis(shape, p, config), config)

    def collect(states):
        return (np.array([s.energy for s in states]),
                np.column_stack([s.coefficients for s in states]))

    ops = [Op(f"solve p={p} n_max={n} vc={'on' if vc else 'off'}", solve(n, vc), collect)
           for n, vc in keys]
    def check(outputs):
        ref = Reference(*LADDER_SHAPE)
        failures = [[] if out is not None else ["no output"] for out in outputs]
        solves = {}
        for i, ((n_max, vc), out) in enumerate(zip(keys, outputs)):
            if out is None:
                continue
            failures[i] += checks.safely(checks.check_solve, ref, p, n_max, vc, *out)
            solves[(n_max, vc)] = out[0]
        ladder = checks.check_ladder(solves)
        for i, key in enumerate(keys):
            failures[i] += ladder.get(key, [])
        return failures

    def fingerprint(out):
        return out[0].tobytes() + out[1].tobytes()

    return Workload(ops, check, fingerprint)


# --- eccentricity-scan ------------------------------------------------------

def scan_shapes(seed):
    """(a, b, omega, branches) per operation: a jittered about the centres of
    equal strata of A_RANGE, b = 1 - a, so each seed spans upright to
    flattened loops."""
    rng = np.random.default_rng(seed)
    lo, hi = A_RANGE
    shapes = []
    for omega, strata, branches in SCAN_PLAN:
        for i in range(strata):
            offset = 0.5 + SCAN_JITTER * (rng.random() - 0.5)
            a = round(lo + (hi - lo) * (i + offset) / strata, 4)
            if branches is None:
                p_list = list(range(omega))
            else:
                p_list = sorted(int(x) for x in rng.choice(np.arange(1, omega), branches, replace=False))
            shapes.append((a, round(1.0 - a, 4), omega, p_list))
    return shapes


def eccentricity_scan(seed, helixtm, scratch_dir):
    from helixtm import cli

    plan = scan_shapes(seed)
    ops = []
    for a, b, omega, p_list in plan:
        argv = ["moments", *_shape_args(a, b, omega), "--p", ",".join(map(str, p_list)),
                "--n-max", str(SCAN_N_MAX)]
        ops.append(Op(f"moments a={a:g} b={b:g} omega={omega}",
                      lambda argv=argv: run_cli(cli, argv)))

    def check(outputs):
        failures = []
        for (a, b, omega, p_list), text in zip(plan, outputs):
            if text is None:
                failures.append(["no output"])
                continue
            failures.append(checks.safely(checks.check_moments_table, text, Reference(R, a, b, omega),
                                          p_list, SCAN_N_MAX))
        return failures

    return Workload(ops, check, _text_fingerprint)


# --- cli-tables -------------------------------------------------------------

def cli_plan(seed):
    """Per subcommand: (a, b, omega, p); plus the thermal temperature."""
    rng = np.random.default_rng(seed)
    plan = {command: (a, b, CLI_OMEGA, int(rng.integers(1, CLI_OMEGA)))
            for command, (a, b) in CLI_SHAPES.items()}
    plan["potential"] = (None, None, CLI_OMEGA, None)
    temperature = float(CLI_TEMPERATURES[int(rng.integers(len(CLI_TEMPERATURES)))])
    return plan, temperature


def cli_argvs(plan, temperature):
    """The six command lines of a round, without ``--out``."""
    def shape(command):
        a, b, omega, _ = plan[command]
        return _shape_args(a, b, omega)

    def branch(command):
        return ["--p", str(plan[command][3]), "--n-max", str(CLI_N_MAX)]

    grid = ["--grid", str(CLI_GRID)]
    sections = ["--R", f"{R:g}", "--a", ",".join(f"{a:g}" for a, _ in PAPER_SHAPES),
                "--b", ",".join(f"{b:g}" for _, b in PAPER_SHAPES), "--omega", str(plan["potential"][2])]
    return {
        "geometry": ["geometry", *shape("geometry"), *grid],
        "potential": ["potential", *sections, *grid],
        "spectrum": ["spectrum", *shape("spectrum"), *branch("spectrum"), "--both"],
        "current": ["current", *shape("current"), *branch("current"), "--both", *grid],
        "moments": ["moments", *shape("moments"), *branch("moments")],
        "thermal": ["thermal", *shape("thermal"), *branch("thermal"), "--both",
                    "--temperature", repr(temperature)],
    }


def cli_tables(seed, helixtm, scratch_dir):
    from helixtm import cli

    plan, temperature = cli_plan(seed)
    argvs = cli_argvs(plan, temperature)
    both = [False, True]

    def op(command):
        path = os.path.join(scratch_dir, f"{command}.csv")
        argv = argvs[command] + ["--out", path]

        def run():
            run_cli(cli, argv)
            return path

        def keep(path):
            kept = path + ".first"
            os.replace(path, kept)
            return kept

        return Op(" ".join(argvs[command]), run, keep=keep)

    commands = list(argvs)
    ops = [op(command) for command in commands]

    def check_one(command, text):
        a, b, omega, p = plan[command]
        if command == "geometry":
            return checks.check_geometry_table(text, (R, a, b, omega), CLI_GRID)
        if command == "potential":
            shapes = [(R, a_, b_, omega) for a_, b_ in PAPER_SHAPES]
            return checks.check_potential_table(text, shapes, CLI_GRID)
        ref = Reference(R, a, b, omega)
        if command == "spectrum":
            return checks.check_spectrum_table(text, ref, [p], CLI_N_MAX, both)
        if command == "current":
            return checks.check_current_table(text, ref, [p], CLI_N_MAX, both, CLI_GRID)
        if command == "moments":
            return checks.check_moments_table(text, ref, [p], CLI_N_MAX)
        return checks.check_thermal_table(text, ref, [p], CLI_N_MAX, both, temperature)

    def check(paths):
        return [checks.safely(check_one, c, _read(path)) if path is not None else ["no output"]
                for c, path in zip(commands, paths)]

    return Workload(ops, check, _file_fingerprint)


BUILDERS = {
    "basis-ladder": basis_ladder,
    "eccentricity-scan": eccentricity_scan,
    "cli-tables": cli_tables,
}
