"""Weighted frequency-grid functions and the inverse Fourier evaluation.

Functions of the frequency variable ``m`` live on a uniform symmetric grid
``[-M, M]`` and carry a decay certificate ``(beta, mu)``: finiteness of
``sup (1+|m|)^mu e^{beta|m|} |h(m)|`` is what every bound downstream feeds
on. Off-grid values are never interpolated silently; the grid operations
below are exact on the step lattice (differences of grid points land on
grid points) with zero extension beyond the ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, StripViolation, ValidationError
from .series import TruncatedSeries

SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class FourierSpace:
    """Grid plus decay certificate; the ``space`` tag of grid-valued series."""

    m: np.ndarray
    beta: float
    mu: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 1 or m.size < 3 or m.size % 2 == 0:
            raise ValidationError("grid must be 1d with odd length >= 3")
        steps = np.diff(m)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-12):
            raise ValidationError("grid must be uniform")
        if abs(m[0] + m[-1]) > 1e-9 * max(1.0, abs(m[-1])):
            raise ValidationError("grid must be symmetric about 0")
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if self.mu <= 1:
            raise ValidationError("mu must exceed 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def step(self) -> float:
        return float(self.m[1] - self.m[0])

    @property
    def half_width(self) -> float:
        return float(self.m[-1])

    @property
    def size(self) -> int:
        return self.m.size

    def weights(self) -> np.ndarray:
        """Trapezoid weights over the grid."""
        w = np.full(self.size, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def decay_weight(self) -> np.ndarray:
        return (1.0 + np.abs(self.m)) ** self.mu * np.exp(self.beta * np.abs(self.m))

    def __eq__(self, other):
        return (
            isinstance(other, FourierSpace)
            and self.beta == other.beta
            and self.mu == other.mu
            and self.m.shape == other.m.shape
            and bool(np.array_equal(self.m, other.m))
        )

    def __hash__(self):
        return hash((self.size, float(self.m[-1]), self.beta, self.mu))

    def same_grid(self, other: "FourierSpace") -> bool:
        return self.m.shape == other.m.shape and bool(
            np.allclose(self.m, other.m, rtol=1e-12, atol=1e-12)
        )


def make_space(
    beta: float, mu: float, half_width: float | None = None, n_points: int | None = None
) -> FourierSpace:
    """Default grid policy: ``M = 40/beta`` (so ``e^{-beta M} ~ 4e-18``)
    sampled with at least 2001 points; both knobs can be overridden."""
    M = 40.0 / beta if half_width is None else float(half_width)
    n = 2001 if n_points is None else int(n_points)
    if n % 2 == 0:
        n += 1
    return FourierSpace(np.linspace(-M, M, n), beta, mu)


@dataclass(frozen=True)
class FourierFn:
    """Grid samples of a frequency-side function with its certificate."""

    space: FourierSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.space.m.shape:
            raise ValidationError("values must match the grid shape")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, space: FourierSpace, fn) -> "FourierFn":
        return cls(space, np.asarray(fn(space.m), dtype=complex))

    def with_values(self, values: np.ndarray) -> "FourierFn":
        return FourierFn(self.space, values)


def enorm(f: FourierFn) -> float:
    """The certificate norm ``sup (1+|m|)^mu e^{beta|m|} |f(m)|`` on the grid."""
    return float(np.max(f.space.decay_weight() * np.abs(f.values)))


def enorm_values(space: FourierSpace, values: np.ndarray) -> float:
    """Same as :func:`enorm` on a bare value array (vectorised helper).

    ``values`` may have extra leading axes; the norm is taken over the last
    (grid) axis and maxed over the rest.
    """
    return float(np.max(space.decay_weight() * np.abs(values)))


def convolve_values(space: FourierSpace, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Trapezoid discretisation of ``(h * g)(m) = int h(m - m1) g(m1) dm1``.

    Grid differences land exactly on the step lattice, so the quadrature is
    a discrete correlation with zero extension past the ends; no
    interpolation is involved.
    """
    n = space.size
    c = (n - 1) // 2
    wg = space.weights() * g
    full = np.convolve(h, wg)
    return full[c : c + n]


def convolve(h: FourierFn, g: FourierFn) -> FourierFn:
    """Convolution of two grid functions sharing one grid.

    The result keeps ``h``'s certificate tag; re-tag explicitly when the
    analytic decay class changes.

    Raises:
        GridMismatch: the grids differ in length, spacing or extent.
    """
    if not h.space.same_grid(g.space):
        raise GridMismatch("convolution requires identical grids")
    return FourierFn(h.space, convolve_values(h.space, h.values, g.values))


def inverse_fourier_eval(f: FourierFn, z: complex, beta_prime: float) -> complex:
    """Evaluate ``(1/sqrt(2 pi)) int f(m) e^{i m z} dm`` at one strip point.

    ``beta_prime`` is the caller-declared strip half-height; it must be
    strictly below the certificate ``beta`` and ``|Im z|`` must stay within
    it. Nothing is inferred: widening the strip is an explicit decision.

    Raises:
        StripViolation: declared margin missing or the point escapes it.
    """
    sp = f.space
    if not (0.0 < beta_prime < sp.beta):
        raise StripViolation(
            f"declared strip height {beta_prime} must lie in (0, beta={sp.beta})"
        )
    if abs(complex(z).imag) > beta_prime:
        raise StripViolation(f"|Im z| = {abs(complex(z).imag)} exceeds declared {beta_prime}")
    phases = np.exp(1j * sp.m * complex(z))
    return complex(np.sum(sp.weights() * f.values * phases) / SQRT2PI)


def inverse_fourier_table(f_rows: np.ndarray, space: FourierSpace, z_points, beta_prime: float) -> np.ndarray:
    """Vectorised :func:`inverse_fourier_eval` for stacked rows of values.

    ``f_rows`` has shape ``(..., G)``; returns shape ``(..., len(z_points))``.
    """
    if not (0.0 < beta_prime < space.beta):
        raise StripViolation("declared strip height out of range")
    zs = np.asarray(z_points, dtype=complex)
    if np.any(np.abs(zs.imag) > beta_prime):
        raise StripViolation("a requested point escapes the declared strip")
    phases = np.exp(1j * np.outer(space.m, zs))  # (G, Z)
    return (f_rows * space.weights()) @ phases / SQRT2PI


def series_norm_1R(W: TruncatedSeries, R: float) -> float:
    """Sum of per-order certificate norms scaled by ``R^p``.

    Dominates ``sup_{|tau|<R}`` of the sum, which is how fixed-point
    contraction is certified. Scalar-space series use ``|a_p|``.
    """
    if R <= 0:
        raise ValidationError("radius must be positive")
    total = 0.0
    if isinstance(W.space, FourierSpace):
        weight = W.space.decay_weight()
        for p in range(1, W.order + 1):
            total += float(np.max(weight * np.abs(W.coeffs[p - 1]))) * R ** p
    else:
        for p in range(1, W.order + 1):
            total += abs(complex(W.coeffs[p - 1])) * R ** p
    return total


def series_norm_sector(
    tau_abs: np.ndarray,
    values: np.ndarray,
    space: FourierSpace,
    alpha: float,
    R: float,
    params,
) -> float:
    """Sector norm: sup over samples with ``|tau| >= R`` of the weighted
    modulus with kernel weight
    ``|tau|^{-1} exp(-k log^2|tau|/(2 log q) - alpha log|tau|)``.

    ``values`` has shape ``(n_tau, G)``.
    """
    tau_abs = np.asarray(tau_abs, dtype=float)
    mask = tau_abs >= R
    if not np.any(mask):
        raise ValidationError("sector norm needs samples with |tau| >= R")
    ta = tau_abs[mask]
    lt = np.log(ta)
    kern = np.exp(-params.k * lt * lt / (2.0 * params.log_q) - alpha * lt) / ta
    weighted = np.abs(values[mask]) * space.decay_weight()[None, :] * kern[:, None]
    return float(np.max(weighted))
