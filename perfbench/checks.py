"""Checks of helixtm's outputs against perfbench.reference and against
properties the method must have.

Each check returns a list of failure messages; an empty list means the
output passed.  Printed tables carry ``digits`` significant digits, so a
printed value may differ from the exact one by half a unit in its last
digit; the tolerances below allow that much and a little numerical slack,
and nothing more.
"""

from __future__ import annotations

import io
import math

import numpy as np

from reference import curve_jet

DIGITS = 6
# Half a unit in the sixth significant digit is 5e-6 of the value.
PRINT_REL = 6e-6
# Largest error the program's own quadrature may put into a matrix element
# (its default absolute tolerance is 1e-10 per element, summed over a row).
H_ERR = 1e-8
GEOMETRY_HEADER = "phi,x,y,z,f,kappa,tau,Tx,Ty,Tz,Nx,Ny,Nz,Bx,By,Bz"
MOMENTS_HEADER = "p,alpha,Tz_without_vc,Tz_with_vc,ratio,Tz_classical"


def safely(check, *args):
    """Run a check; output too malformed to parse is a failure, not a crash."""
    try:
        return check(*args)
    except (ValueError, IndexError, StopIteration) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _g(x):
    return f"{float(x):.12g}"


def _close(got, want, tol):
    return abs(got - want) <= tol


def _printed_tol(want, slack=1e-9):
    return PRINT_REL * np.abs(want) + slack


def _gaps(energies):
    """Distance from each level to its nearest neighbour in the branch."""
    e = np.asarray(energies)
    d = np.abs(e[:, None] - e[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def _vector_slack(ref, p, n_max, include_vc, scale):
    """Per-state slack for quantities bilinear in an eigenvector.

    An error dH in the matrix turns an eigenvector by about dH / gap, so a
    close neighbour makes the state's moment or current less determined.
    """
    energies, _ = ref.states(p, n_max, include_vc)
    return 2.0 * scale * H_ERR / _gaps(energies) + 1e-10 * scale


def _table(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        got = lines[0][:80] if lines else "<empty>"
        raise ValueError(f"header {got!r} != {header[:80]!r}")
    return lines[1:]


def _numbers(lines, columns):
    data = np.loadtxt(io.StringIO("\n".join(lines)), delimiter=",", ndmin=2)
    if data.shape[1] != columns:
        raise ValueError(f"expected {columns} columns, got {data.shape[1]}")
    return data


def check_solve(ref, p, n_max, include_vc, energies, vectors):
    """Energies against the independent Hamiltonian, eigen residuals, norms."""
    errors = []
    want, _ = ref.states(p, n_max, include_vc)
    h = ref.hamiltonian(p, n_max, include_vc)
    if len(energies) != len(want):
        return [f"{len(energies)} levels, expected {len(want)}"]
    bad = np.abs(energies - want) > H_ERR + 1e-11 * np.abs(want)
    if bad.any():
        i = int(np.argmax(bad))
        errors.append(f"E[{i}] = {_g(energies[i])}, independent value {_g(want[i])}")
    residual = np.linalg.norm(h @ vectors - vectors * energies[None, :], axis=0)
    limit = H_ERR * max(1.0, float(np.max(np.abs(want))))
    if residual.max() > limit:
        errors.append(f"max ||Hv - Ev|| = {residual.max():.3e} > {limit:.1e}")
    norms = np.linalg.norm(vectors, axis=0)
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        errors.append(f"coefficient vector norm off by {np.max(np.abs(norms - 1.0)):.3e}")
    return errors


def check_ladder(solves):
    """Rayleigh-Ritz and the sign of V_c across the solves of one branch.

    ``solves`` maps (n_max, include_vc) to ascending energies.  Returns
    failures keyed like ``solves``.  A bigger basis contains the smaller
    one, so no level may rise as n_max grows; V_c <= 0 everywhere, so
    adding it may raise no level.
    """
    errors = {key: [] for key in solves}
    sizes = sorted({n for n, _ in solves})
    for vc in (False, True):
        for small, big in zip(sizes, sizes[1:]):
            if (small, vc) not in solves or (big, vc) not in solves:
                continue
            lo, hi = solves[(small, vc)], solves[(big, vc)]
            rise = hi[: len(lo)] - lo
            if np.any(rise > 1e-9 * (1.0 + np.abs(lo))):
                i = int(np.argmax(rise))
                errors[(big, vc)].append(
                    f"level {i} rose from {_g(lo[i])} (n_max={small}) to {_g(hi[i])} (n_max={big})"
                )
    for n in sizes:
        if (n, False) in solves and (n, True) in solves:
            off, on = solves[(n, False)], solves[(n, True)]
            rise = on - off
            if np.any(rise > 1e-9 * (1.0 + np.abs(off))):
                i = int(np.argmax(rise))
                errors[(n, True)].append(f"V_c raised level {i} from {_g(off[i])} to {_g(on[i])}")
    return errors


def check_moments_table(text, ref, p_list, n_max):
    """``helixtm moments``: every moment, ratio and classical value."""
    try:
        rows = [line.split(",") for line in _table(text, MOMENTS_HEADER)]
    except ValueError as exc:
        return [str(exc)]
    dim = 2 * n_max + 1
    if len(rows) != len(p_list) * dim:
        return [f"{len(rows)} rows, expected {len(p_list) * dim}"]
    errors = []
    for b, p in enumerate(p_list):
        block = rows[b * dim:(b + 1) * dim]
        want = {vc: ref.moments(p, n_max, vc) for vc in (False, True)}
        slack = {vc: _vector_slack(ref, p, n_max, vc, np.max(np.abs(ref.moment_matrix(p, n_max))))
                 for vc in (False, True)}
        classical = ref.classical_moment(p)
        sums = {False: 0.0, True: 0.0}
        sum_tol = 1e-12
        for alpha, row in enumerate(block):
            if len(row) != 6 or row[:2] != [str(p), str(alpha)]:
                errors.append(f"row {row!r}: expected p={p}, alpha={alpha}")
                continue
            t_off, t_on, classical_got = float(row[2]), float(row[3]), float(row[5])
            for vc, got in ((False, t_off), (True, t_on)):
                sums[vc] += got
                exact = want[vc][alpha]
                if not _close(got, exact, _printed_tol(exact, slack[vc][alpha])):
                    errors.append(f"p={p} alpha={alpha} vc={vc}: Tz {_g(got)}, independent {_g(exact)}")
            sum_tol += PRINT_REL * (abs(t_off) + abs(t_on))
            errors += _check_ratio(p, alpha, row[4], want[False][alpha], want[True][alpha],
                                   slack[False][alpha] + slack[True][alpha])
            if not _close(classical_got, classical, _printed_tol(classical, 1e-12)):
                errors.append(f"p={p}: classical {_g(classical_got)}, independent {_g(classical)}")
        branch = ref.branch_moment(p, n_max)
        for vc in (False, True):
            if not _close(sums[vc], branch, sum_tol):
                errors.append(f"p={p} vc={vc}: moments sum to {_g(sums[vc])}, branch current gives {_g(branch)}")
    return errors


def _check_ratio(p, alpha, text, t_off, t_on, slack):
    # The program leaves the ratio blank when |Tz_with_vc| < 1e-6.
    if abs(t_on) < 1e-6 - slack:
        return [] if text == "" else [f"p={p} alpha={alpha}: ratio {text!r} where Tz_with_vc ~ 0"]
    if abs(t_on) <= 1e-6 + slack:
        return []
    if text == "":
        return [f"p={p} alpha={alpha}: ratio missing"]
    want = t_off / t_on
    tol = PRINT_REL * abs(want) + abs(want) * slack * (1.0 / max(abs(t_off), slack) + 1.0 / abs(t_on))
    if not _close(float(text), want, tol):
        return [f"p={p} alpha={alpha}: ratio {text!r}, independent {_g(want)}"]
    return []


def check_geometry_table(text, shape, grid):
    """``helixtm geometry``: rows against the closed-form curve and its derivatives."""
    R, a, b, omega = shape
    try:
        data = _numbers(_table(text, GEOMETRY_HEADER), 16)
    except ValueError as exc:
        return [str(exc)]
    if data.shape[0] != grid:
        return [f"{data.shape[0]} rows, expected {grid}"]
    phi = 2.0 * math.pi * np.arange(grid) / grid
    r, r1, r2, r3 = curve_jet(R, a, b, omega, phi)
    f = np.linalg.norm(r1, axis=-1)
    cross = np.cross(r1, r2)
    cross_norm = np.linalg.norm(cross, axis=-1)
    tangent = r1 / f[:, None]
    accel = r2 - np.sum(r2 * tangent, axis=-1)[:, None] * tangent
    normal = accel / np.linalg.norm(accel, axis=-1)[:, None]
    want = np.column_stack([
        phi, r, f, cross_norm / f**3, np.sum(cross * r3, axis=-1) / cross_norm**2,
        tangent, normal, np.cross(tangent, normal),
    ])
    return _compare_columns(GEOMETRY_HEADER.split(","), data, want)


def _compare_columns(names, got, want, slack=None):
    errors = []
    for j, name in enumerate(names):
        scale = float(np.max(np.abs(want[:, j]))) if want.shape[0] else 0.0
        tol = _printed_tol(want[:, j], 1e-9 * scale + 1e-12)
        if slack is not None:
            tol = tol + slack[j]
        bad = np.abs(got[:, j] - want[:, j]) > tol
        if bad.any():
            i = int(np.argmax(bad))
            errors.append(f"{name} row {i}: {_g(got[i, j])}, independent {_g(want[i, j])}")
    return errors


def check_potential_table(text, shapes, grid):
    """``helixtm potential``: one -kappa^2/8 column per cross-section."""
    header = "phi," + ",".join(f"Vc[a={a:g};b={b:g}]" for _, a, b, _ in shapes)
    try:
        data = _numbers(_table(text, header), 1 + len(shapes))
    except ValueError as exc:
        return [str(exc)]
    if data.shape[0] != grid:
        return [f"{data.shape[0]} rows, expected {grid}"]
    phi = 2.0 * math.pi * np.arange(grid) / grid
    columns = [phi]
    for R, a, b, omega in shapes:
        _, r1, r2, _ = curve_jet(R, a, b, omega, phi)
        kappa = np.linalg.norm(np.cross(r1, r2), axis=-1) / np.linalg.norm(r1, axis=-1) ** 3
        columns.append(-kappa * kappa / 8.0)
    return _compare_columns(header.split(","), data, np.column_stack(columns))


def check_spectrum_table(text, ref, p_list, n_max, variants):
    """``helixtm spectrum``: energies, and each printed coefficient column
    as an eigenvector (residual, norm, positive dominant entry)."""
    dim = 2 * n_max + 1
    header = "p,vc,row," + ",".join(f"alpha{i}" for i in range(dim))
    try:
        rows = [line.split(",") for line in _table(text, header)]
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(p_list) * len(variants) * (dim + 1):
        return [f"{len(rows)} rows, expected {len(p_list) * len(variants) * (dim + 1)}"]
    errors = []
    it = iter(rows)
    for p in p_list:
        for vc in variants:
            tag = "on" if vc else "off"
            block = [next(it) for _ in range(dim + 1)]
            labels = ["E"] + [f"m={n}" for n in range(-n_max, n_max + 1)]
            if [r[:3] for r in block] != [[str(p), tag, lab] for lab in labels]:
                errors.append(f"p={p} vc={tag}: row labels {[r[:3] for r in block]!r}")
                continue
            energies = np.array([float(x) for x in block[0][3:]])
            coeffs = np.array([[float(x) for x in r[3:]] for r in block[1:]])
            want, _ = ref.states(p, n_max, vc)
            bad = np.abs(energies - want) > _printed_tol(want, H_ERR)
            if bad.any():
                i = int(np.argmax(bad))
                errors.append(f"p={p} vc={tag}: E[{i}] {_g(energies[i])}, independent {_g(want[i])}")
            h = ref.hamiltonian(p, n_max, vc)
            scale = np.linalg.norm(h, 2) + np.abs(want)
            residual = np.linalg.norm(h @ coeffs - coeffs * want[None, :], axis=0)
            if np.any(residual > 1e-5 * scale + H_ERR):
                i = int(np.argmax(residual / scale))
                errors.append(f"p={p} vc={tag}: alpha{i} column is no eigenvector (residual {residual[i]:.2e})")
            norms = np.linalg.norm(coeffs, axis=0)
            if np.any(np.abs(norms - 1.0) > 2e-5):
                errors.append(f"p={p} vc={tag}: column norms {norms!r}")
            dominant = coeffs[np.argmax(np.abs(coeffs), axis=0), np.arange(dim)]
            if np.any(dominant <= 0):
                errors.append(f"p={p} vc={tag}: a dominant coefficient is not positive")
    return errors


def check_current_table(text, ref, p_list, n_max, variants, grid):
    """``helixtm current``: every column against the independent current,
    and each branch's columns against the summed current p dim / (2 pi f^2)."""
    dim = 2 * n_max + 1
    groups = [(p, vc) for p in p_list for vc in variants]
    names = [f"j[p={p};alpha={i};vc={'on' if vc else 'off'}]" for p, vc in groups for i in range(dim)]
    header = ",".join(["phi"] + names)
    try:
        data = _numbers(_table(text, header), 1 + len(names))
    except ValueError as exc:
        return [str(exc)]
    if data.shape[0] != grid:
        return [f"{data.shape[0]} rows, expected {grid}"]
    phi = 2.0 * math.pi * np.arange(grid) / grid
    want, slack = [phi], [0.0]
    for p, vc in groups:
        j = ref.currents(p, n_max, vc, phi)
        want.extend(j.T)
        slack.extend(_vector_slack(ref, p, n_max, vc, float(np.max(np.abs(j)))))
    errors = _compare_columns(header.split(","), data, np.column_stack(want), slack)
    f2 = ref.speed(phi) ** 2
    for g, (p, vc) in enumerate(groups):
        cols = data[:, 1 + g * dim:1 + (g + 1) * dim]
        total = p * dim / (2.0 * math.pi * f2)
        tol = PRINT_REL * np.sum(np.abs(cols), axis=1) + 1e-12
        bad = np.abs(cols.sum(axis=1) - total) > tol
        if bad.any():
            i = int(np.argmax(bad))
            errors.append(f"p={p} vc={vc} row {i}: currents sum to {_g(cols[i].sum())}, expected {_g(total[i])}")
    return errors


def check_thermal_table(text, ref, p_list, n_max, variants, temperature):
    """``helixtm thermal``: averages lie within the branch's moments and equal
    the Boltzmann averages of the independent energies and moments."""
    lines = text.splitlines()
    title = f"thermal toroidal moment averages, temperature = {temperature:.{DIGITS}g}"
    if lines[:2] != [title, "p  vc   normalized  unnormalized"]:
        return [f"title lines {lines[:2]!r}"]
    rows = [line.split() for line in lines[2:]]
    if len(rows) != len(p_list) * len(variants):
        return [f"{len(rows)} rows, expected {len(p_list) * len(variants)}"]
    errors = []
    it = iter(rows)
    for p in p_list:
        for vc in variants:
            row = next(it)
            tag = "on" if vc else "off"
            if len(row) != 4 or row[:2] != [str(p), tag]:
                errors.append(f"row {row!r}: expected p={p} vc={tag}")
                continue
            energies, _ = ref.states(p, n_max, vc)
            moments = ref.moments(p, n_max, vc)
            spread = float(moments.max() - moments.min())
            slack = 1e-9 + spread * H_ERR / temperature
            avg = float(row[2])
            lo, hi = moments.min(), moments.max()
            if not lo - _printed_tol(lo, slack) <= avg <= hi + _printed_tol(hi, slack):
                errors.append(f"p={p} vc={tag}: average {_g(avg)} outside [{_g(lo)}, {_g(hi)}]")
            weights = np.exp(-(energies - energies.min()) / temperature)
            want = float(np.sum(weights * moments) / np.sum(weights))
            if not _close(avg, want, _printed_tol(want, slack)):
                errors.append(f"p={p} vc={tag}: average {_g(avg)}, independent {_g(want)}")
            errors += _check_raw(p, tag, row[3], energies, moments, temperature, slack)
    return errors


def _check_raw(p, tag, text, energies, moments, temperature, slack):
    # math.exp overflows above this argument; the program prints "overflow".
    if np.max(-energies / temperature) > math.log(np.finfo(float).max):
        return [] if text == "overflow" else [f"p={p} vc={tag}: raw sum {text!r}, expected overflow"]
    want = float(np.sum(moments * np.exp(-energies / temperature)))
    scale = float(np.sum(np.abs(moments) * np.exp(-energies / temperature)))
    if text == "overflow" or not _close(float(text), want, PRINT_REL * scale + slack * scale):
        return [f"p={p} vc={tag}: raw sum {text!r}, independent {_g(want)}"]
    return []

