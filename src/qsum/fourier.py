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
INV_SQRT_2PI = 1.0 / SQRT2PI


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

    def same_grid(self, other: "FourierSpace") -> bool:
        return self.m.shape == other.m.shape and bool(
            np.allclose(self.m, other.m, rtol=1e-12, atol=1e-12)
        )


def make_space(
    beta: float, mu: float, half_width: float | None = None, n_points: int | None = None
) -> FourierSpace:
    """Default grid policy: ``M = 40/beta`` (so ``e^{-beta M} ~ 4e-18``)
    sampled with 2001 points; both knobs can be overridden, ``n_points`` only
    by an odd count, so that the grid holds ``m = 0``."""
    M = 40.0 / beta if half_width is None else float(half_width)
    n = 2001 if n_points is None else int(n_points)
    if n % 2 == 0:
        raise ValidationError(f"n_points must be odd, got {n}")
    return FourierSpace(np.linspace(-M, M, n), beta, mu)


@dataclass(frozen=True, eq=False)
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


def enorm(f: FourierFn) -> float:
    """The certificate norm ``sup (1+|m|)^mu e^{beta|m|} |f(m)|`` on the grid."""
    return float(np.max(f.space.decay_weight() * np.abs(f.values)))


def enorm_values(space: FourierSpace, values: np.ndarray) -> float:
    """Same as :func:`enorm` on a bare value array (vectorised helper).

    ``values`` may have extra leading axes; the norm is taken over the last
    (grid) axis and maxed over the rest.
    """
    return float(np.max(space.decay_weight() * np.abs(values)))


# The exact convolution is a Toeplitz-band product in BLAS.  The grid is cut
# into blocks of _BLOCK points, and each output block is the sum, over the
# band's block diagonals in a fixed order, of one input block times one
# _BLOCK-square band block.  OpenBLAS 0.3.31 gave bits that depend on the
# thread count for some dgemm reductions longer than 256 (400, 500, 601 and
# 2001 points) and for none of 256 or fewer; _BLOCK stays below that.  At 64
# rather than 128 a single G=601 row (a ladder rung) costs less and the band
# is half the size, (G + 3 _BLOCK) _BLOCK doubles.
_BLOCK = 64
# Batches run in chunks of _CHUNK // G rows (4 at G=2001, 13 at G=601), whose
# lifted operand stays near 128 KiB: at one thread on a 2-vCPU Xeon (2 MiB L2),
# 44 G=2001 rows cost 1.9-2.0 ms a row at once, 1.0-1.2 ms in 4-row chunks.
_CHUNK = 8192
# At one thread OpenBLAS 0.3.31 gave a row the bits of a one-row call while
# the real product's M N K stayed within 1e6 (its small-matrix kernel) and
# K < 16.  `_contract` runs C complex rows against a (K, G) operand, a
# (2 C) x K x (2 G) product, so C = 1e6 // (4 K G), at most _ROWS: 32 rows
# at K = 12 and G = 601, 10 at G = 2001.
_ROWS = 32
# Operands are lifted by powers of two so that n * max|X| * max|E| stays below
# 2**_LIFT_BITS: far from overflow, and high enough that no nonzero operand
# of a double-range kernel or row is subnormal when BLAS sees it.
_LIFT_BITS = 1000


def _lift_tops(n: int) -> tuple[int, int]:
    """Exponent bounds ``(band, rows)``: lifted peaks stay below ``2**top``."""
    room = _LIFT_BITS - n.bit_length()
    return room // 2, room - room // 2


@dataclass(frozen=True, eq=False)
class KernelBand:
    """A convolution kernel as the band blocks `convolve_values` multiplies by.

    With ``c = (n - 1) // 2``, ``B = _BLOCK`` and ``d_min = -(len(band) // 2)``,
    ``band[d, t, p B + b]`` is part ``p`` (real, then imaginary if any) of
    ``h[c + (d + d_min) B + b - t] * 2**shift``, zero off the grid: block
    ``d`` carries input block ``J`` to output block ``J + d + d_min``.
    ``len`` is the kernel's number of grid points.
    """

    size: int
    band: np.ndarray
    shift: int

    def __len__(self) -> int:
        return self.size


def kernel_band(space: FourierSpace, h) -> KernelBand:
    """Build the lifted band of kernel values ``h`` once, for reuse in every
    `convolve_values` call with that kernel.

    Raises:
        GridMismatch: ``h`` is not sampled on the grid of ``space``.
    """
    h = np.asarray(h)
    n = space.size
    if h.shape != (n,):
        raise GridMismatch("kernel values must match the grid shape")
    B, c = _BLOCK, (n - 1) // 2
    # diagonals that hold kernel values and that some block pair reaches
    half = min((c + B - 1) // B, -(-n // B) - 1)
    n_diag = 2 * half + 1
    parts = [h.real, h.imag] if np.iscomplexobj(h) and np.any(h.imag) else [h.real]
    peak = max(float(np.max(np.abs(p))) for p in parts)
    shift = _lift_tops(n)[0] - int(np.frexp(peak)[1])
    # v[k] = h[c - half B - (B - 1) + k]: row t, column d B + b of its
    # reversed sliding window is the band entry above
    idx = c - half * B - (B - 1) + np.arange(n_diag * B + B - 1)
    inside = (idx >= 0) & (idx < n)
    cols = []
    for p in parts:
        v = np.zeros(idx.size)
        v[inside] = np.ldexp(p[idx[inside]], shift)
        win = np.lib.stride_tricks.sliding_window_view(v, n_diag * B)[::-1]
        cols.append(win.reshape(B, n_diag, B))
    band = np.stack(cols, axis=2).transpose(1, 0, 2, 3).reshape(n_diag, B, len(parts) * B)
    band.setflags(write=False)
    return KernelBand(n, band, shift)


def convolve_values(space: FourierSpace, h, g: np.ndarray) -> np.ndarray:
    """Trapezoid discretisation of ``(h * g)(m) = int h(m - m1) g(m1) dm1``.

    Grid differences land exactly on the step lattice, so the quadrature is
    a discrete correlation with zero extension past the ends; no
    interpolation is involved.  The sum runs over every product, as a
    Toeplitz-band matrix product.  ``h`` is the kernel's values or, when one
    kernel meets many rows, its `kernel_band`; ``g`` may carry leading axes,
    and every row along them is convolved alike.

    The band and every row of ``g`` are scaled by powers of two so that no
    nonzero operand is subnormal and no sum can overflow, and the result is
    scaled back once: exact, and faster than summing subnormal tails.  The
    rows are complex (a real ``g`` is promoted); the kernel may be real.

    Raises:
        GridMismatch: ``h`` or the last axis of ``g`` is not on the grid.
    """
    band = h if isinstance(h, KernelBand) else kernel_band(space, h)
    n = space.size
    g = np.asarray(g, dtype=complex)
    if band.size != n or g.shape[-1:] != (n,):
        raise GridMismatch("convolution operands must match the grid shape")
    rows, chunk = g.reshape(-1, n), max(1, _CHUNK // n)
    if len(rows) <= chunk:
        return _convolve_rows(space, band, rows).reshape(g.shape)
    return np.concatenate([_convolve_rows(space, band, rows[i : i + chunk])
                           for i in range(0, len(rows), chunk)]).reshape(g.shape)


def _convolve_rows(space: FourierSpace, band: KernelBand, rows: np.ndarray) -> np.ndarray:
    """`convolve_values` of the complex ``(S, G)`` rows in one band product."""
    n, S = space.size, len(rows)
    shift = _lift_tops(n)[1] - np.frexp(np.max(np.abs(rows), axis=1))[1] \
        - int(np.frexp(space.step)[1])

    B, width = _BLOCK, band.band.shape[2]
    n_blocks = -(-n // B)
    n_rows = 2 * S
    x = np.zeros((n_rows, n_blocks * B))
    np.ldexp(rows.real, shift[:, None], out=x[:S, :n])
    np.ldexp(rows.imag, shift[:, None], out=x[S:, :n])
    # trapezoid weights: the step, halved at both ends (exact once lifted)
    x *= space.step
    x[:, [0, n - 1]] *= 0.5
    # block J of every row at x[J]: each band diagonal is then one product
    x = np.ascontiguousarray(x.reshape(n_rows, n_blocks, B).transpose(1, 0, 2))
    out = np.zeros((n_blocks, n_rows, width))
    d_min = -(len(band.band) // 2)
    for d, block in enumerate(band.band):
        off = d + d_min
        lo, hi = max(0, -off), min(n_blocks, n_blocks - off)
        prod = x[lo:hi].reshape(-1, B) @ block
        out[lo + off : hi + off] += prod.reshape(hi - lo, n_rows, width)
    y = out.reshape(n_blocks, n_rows, width // B, B).transpose(1, 2, 0, 3)
    # y[a, :, b] is part a of the rows (real, imaginary) times part b of the
    # kernel (real, then imaginary if it has one)
    y = y.reshape(2, S, width // B, n_blocks * B)[..., :n]
    re, im = y[0, :, 0], y[1, :, 0]
    if y.shape[2] == 2:
        re, im = re - y[1, :, 1], y[0, :, 1] + im
    back = -(shift + band.shift)[:, None]
    res = np.empty(re.shape, dtype=complex)
    np.ldexp(re, back, out=res.real)
    np.ldexp(im, back, out=res.imag)
    return res


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


def _contract(a, b) -> np.ndarray:
    """``a @ b`` for complex ``(S, K)`` or ``(K,)`` times ``(K, G)`` or ``(K,)``;
    a real operand is promoted.

    The library's one quadrature sum.  It runs in real dgemm: the left
    operand's real and imaginary parts are stacked as rows, and the right
    operand is read as interleaved float64, so it is not copied.  As in
    `convolve_values`, the sum over ``K`` runs in fixed _BLOCK-point pieces
    added in a fixed order, so its bits do not depend on the BLAS thread
    count, and a batch runs in chunks sized from ``b`` (``K < 16``: see
    _ROWS), so a row's bits do not depend on the other rows of its call.
    """
    a, b = np.asarray(a, dtype=complex), np.ascontiguousarray(b, dtype=complex)
    shape = a.shape[:-1] + b.shape[1:]
    rows = a.reshape(-1, a.shape[-1])
    chunk = max(1, min(_ROWS, 10**6 // (4 * b.size or 1)))
    if len(rows) > chunk:
        parts = [_contract(rows[i : i + chunk], b) for i in range(0, len(rows), chunk)]
        return np.concatenate(parts).reshape(shape)
    x = np.concatenate([rows.real, rows.imag])
    e = b.reshape(len(b), -1).view(np.float64)
    # the last, partial piece, then the whole pieces as one stacked product
    n = len(e) - len(e) % _BLOCK
    acc = x[:, n:] @ e[n:]
    if n:
        pieces = x[:, :n].reshape(len(x), -1, _BLOCK).transpose(1, 0, 2) \
            @ e[:n].reshape(-1, _BLOCK, e.shape[1])
        acc += np.add.reduce(pieces)
    # y[p] is part p of a (real, then imaginary) times b
    y = acc.reshape(2, len(rows), -1)
    out = y[0].view(complex)
    out += 1j * y[1].view(complex)
    return out.reshape(shape)


def inverse_fourier_eval(f: FourierFn, z: complex, beta_prime: float) -> complex:
    """Evaluate ``(1/sqrt(2 pi)) int f(m) e^{i m z} dm`` at one strip point:
    the one-point case of `inverse_fourier_table`."""
    return complex(inverse_fourier_table(f.values, f.space, [z], beta_prime)[0])


def inverse_fourier_table(f_rows: np.ndarray, space: FourierSpace, z_points, beta_prime: float) -> np.ndarray:
    """``(1/sqrt(2 pi)) int f(m) e^{i m z} dm`` for stacked rows at strip points.

    ``f_rows`` has shape ``(..., G)``; returns shape ``(..., len(z_points))``.
    ``beta_prime`` is the caller-declared strip half-height; it must be
    strictly below the certificate ``beta`` and every ``|Im z|`` must stay
    within it. Nothing is inferred: widening the strip is an explicit decision.

    Raises:
        StripViolation: declared margin missing or a point escapes it.
    """
    if not (0.0 < beta_prime < space.beta):
        raise StripViolation(
            f"declared strip height {beta_prime} must lie in (0, beta={space.beta})"
        )
    zs = np.asarray(z_points, dtype=complex)
    worst = float(np.max(np.abs(zs.imag), initial=0.0))
    if worst > beta_prime:
        raise StripViolation(f"|Im z| = {worst} exceeds declared {beta_prime}")
    fw = np.asarray(f_rows) * space.weights()
    return _contract(fw, np.exp(1j * np.outer(space.m, zs))) / SQRT2PI


def series_norm_1R(W: TruncatedSeries, R: float) -> float:
    """Sum of per-order certificate norms scaled by ``R^p`` of a grid-valued series.

    Dominates ``sup_{|tau|<R}`` of the sum, which is how fixed-point
    contraction is certified.
    """
    if R <= 0:
        raise ValidationError("radius must be positive")
    weight = W.space.decay_weight()
    total = 0.0
    for p in range(1, W.order + 1):
        total += float(np.max(weight * np.abs(W.coeffs[p - 1]))) * R ** p
    return total
