"""Values computed without helixtm, against which the benchmark checks it.

Everything here starts from the curve alone,

    r(phi) = ((R + a cos w phi) cos phi, (R + a cos w phi) sin phi, b sin w phi),

sampled on a uniform grid.  Derivatives are spectral (FFT): r is a
trigonometric polynomial, and so is D = |r'|^2, so r', r'', D' and D'' are
exact up to rounding, and f = sqrt(D), f' = D'/(2f), f'' = D''/(2f) - D'^2/(4f^3)
follow by the chain rule.  The curvature is |r' x r''| / f^3.

Every phi-integral the checks need is a Fourier coefficient of a smooth
periodic function of the grid, so one FFT per function gives a whole
Hamiltonian or moment matrix.  Nothing in this module imports helixtm.
"""

from __future__ import annotations

import math

import numpy as np

# Grid points per winding.  The integrands depend on phi through w*phi only,
# and their harmonics fall below rounding long before 1024 per winding for
# every shape the workloads use (see tests/test_checks.py).
SAMPLES_PER_WINDING = 2048


def _spectral_derivative(values, order):
    n = values.shape[0]
    freq = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        freq[n // 2] = 0.0  # the Nyquist mode has no well-defined derivative
    spectrum = np.fft.fft(values, axis=0)
    factor = (1j * freq) ** order
    return np.fft.ifft(spectrum * factor.reshape((-1,) + (1,) * (values.ndim - 1)), axis=0).real


def curve_points(R, a, b, omega, phi):
    """r(phi) from its definition, shape (..., 3)."""
    phi = np.asarray(phi, dtype=float)
    W = R + a * np.cos(omega * phi)
    return np.stack([W * np.cos(phi), W * np.sin(phi), b * np.sin(omega * phi)], axis=-1)


def curve_jet(R, a, b, omega, phi):
    """r, r', r'', r''' at arbitrary angles, differentiated by hand from r(phi)."""
    phi = np.asarray(phi, dtype=float)
    w = omega
    cw, sw = np.cos(w * phi), np.sin(w * phi)
    cp, sp = np.cos(phi), np.sin(phi)
    W = R + a * cw
    W1 = -a * w * sw
    W2 = -a * w * w * cw
    W3 = a * w**3 * sw
    # (W cos phi)^(k) and (W sin phi)^(k) by Leibniz's rule.
    x = [W * cp,
         W1 * cp - W * sp,
         W2 * cp - 2 * W1 * sp - W * cp,
         W3 * cp - 3 * W2 * sp - 3 * W1 * cp + W * sp]
    y = [W * sp,
         W1 * sp + W * cp,
         W2 * sp + 2 * W1 * cp - W * sp,
         W3 * sp + 3 * W2 * cp - 3 * W1 * sp - W * cp]
    z = [b * sw, b * w * cw, -b * w * w * sw, -b * w**3 * cw]
    return [np.stack([x[k], y[k], z[k]], axis=-1) for k in range(4)]


class Reference:
    """Independent spectrum and moments of one helix shape."""

    def __init__(self, R, a, b, omega, samples_per_winding=SAMPLES_PER_WINDING):
        self.R, self.a, self.b, self.omega = float(R), float(a), float(b), int(omega)
        n = samples_per_winding * self.omega
        self.n = n
        self.phi = 2.0 * math.pi * np.arange(n) / n
        r = curve_points(R, a, b, omega, self.phi)
        r1 = _spectral_derivative(r, 1)
        r2 = _spectral_derivative(r, 2)
        D = np.sum(r1 * r1, axis=-1)
        D1 = _spectral_derivative(D, 1)
        D2 = _spectral_derivative(D, 2)
        f = np.sqrt(D)
        f1 = D1 / (2.0 * f)
        f2 = D2 / (2.0 * f) - D1 * D1 / (4.0 * f**3)
        kappa = np.linalg.norm(np.cross(r1, r2), axis=-1) / f**3
        self.f = f
        self.vc = -kappa * kappa / 8.0
        a_off = -0.625 * f1 * f1 / f**4 + f2 / (4.0 * f**3)
        # G_z = (r'.r) z - 2 |r|^2 z', the z part of the moment kernel.
        self.moment_kernel = np.sum(r1 * r, axis=-1) * r[:, 2] - 2.0 * np.sum(r * r, axis=-1) * r1[:, 2]
        self._coef = {
            "A_off": np.fft.fft(a_off) / n,
            "A_on": np.fft.fft(a_off + self.vc) / n,
            "B": np.fft.fft(1.0 / (2.0 * f * f)) / n,
            "C": np.fft.fft(f1 / f**3) / n,
            "G": np.fft.fft(self.moment_kernel / (2.0 * math.pi * f * f)) / n,
        }
        self._cache = {}

    def _gather(self, name, n_max):
        """coef[m, n] = (1/2pi) * integral of exp(i w (n - m) phi) * g(phi)."""
        idx = np.arange(-n_max, n_max + 1)
        hop = self.omega * (idx[None, :] - idx[:, None])
        return self._coef[name][(-hop) % self.n]

    def momenta(self, p, n_max):
        return p + self.omega * np.arange(-n_max, n_max + 1)

    def hamiltonian(self, p, n_max, include_vc):
        k = self.momenta(p, n_max)
        a_part = self._gather("A_on" if include_vc else "A_off", n_max)
        h = a_part + (k * k)[None, :] * self._gather("B", n_max) + 1j * k[None, :] * self._gather("C", n_max)
        return 0.5 * (h + h.conj().T)

    def states(self, p, n_max, include_vc):
        """Ascending energies and unit eigenvectors (columns) of the branch."""
        key = (p, n_max, bool(include_vc))
        if key not in self._cache:
            self._cache[key] = np.linalg.eigh(self.hamiltonian(p, n_max, include_vc))
        return self._cache[key]

    def moment_matrix(self, p, n_max):
        """T_z(state c) = Re(c^H M c) with M[m, n] = (2 pi / 10) k_n g_{w(n-m)}."""
        k = self.momenta(p, n_max)
        return (2.0 * math.pi / 10.0) * k[None, :] * self._gather("G", n_max)

    def moments(self, p, n_max, include_vc):
        """z toroidal moment of every state of the branch, in energy order."""
        _, vecs = self.states(p, n_max, include_vc)
        m = self.moment_matrix(p, n_max)
        return np.real(np.einsum("ia,ij,ja->a", vecs.conj(), m, vecs))

    def branch_moment(self, p, n_max):
        """Moment of the summed current p (2 n_max + 1) / (2 pi f^2) of a whole branch."""
        j = p * (2 * n_max + 1) / (2.0 * math.pi * self.f**2)
        return float(np.sum(j * self.moment_kernel) * (2.0 * math.pi / self.n) / 10.0)

    def arc_length(self):
        return float(np.sum(self.f) * 2.0 * math.pi / self.n)

    def classical_moment(self, p):
        """-pi w I a b R / 2 with the free-particle loop current I = 2 pi p / L^2."""
        loop = 2.0 * math.pi * p / self.arc_length() ** 2
        return -math.pi * self.omega * loop * self.a * self.b * self.R / 2.0

    def currents(self, p, n_max, include_vc, phi):
        """j(phi) of every state of the branch, shape (len(phi), dim)."""
        _, vecs = self.states(p, n_max, include_vc)
        k = self.momenta(p, n_max)
        phases = np.exp(1j * self.omega * np.multiply.outer(phi, np.arange(-n_max, n_max + 1)))
        s0 = phases @ vecs
        s1 = phases @ (k[:, None] * vecs)
        return np.real(np.conj(s0) * s1) / (2.0 * math.pi * self.speed(phi)[:, None] ** 2)

    def speed(self, phi):
        return np.linalg.norm(curve_jet(self.R, self.a, self.b, self.omega, phi)[1], axis=-1)
