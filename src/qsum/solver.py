"""Borel-plane fixed-point solver.

The unknown lives as a truncated power series in the Borel variable whose
coefficients are functions on the frequency grid. One application of the
update operator pushes every coupling term through its Borel-plane map
(order p to order l2 (p + l0) times q^E(p), the shift, dilation and Mahler
deceleration in one step; see `series.coupling_exponent`), convolves in the
frequency variable, adds the forcing, and multiplies by the Taylor inverse
of the divisor symbol. Every coupling raises the power-series order by at
least one, so output orders up to n + d depend only on input orders up to n
(d the smallest drop): one forward pass in waves of d orders gives the exact
truncated coefficients, and sweep ceil(N / d) from zero has its bits.

Contraction is bounded, and measured only where the bound cannot decide.
`contraction_bound` bounds the operator norm of the update's coupling part
in the 1R norm: below one, the smallness regime the existence statement asks
for, the forward pass runs; otherwise Picard sweeps run to the same omega,
and any measured ratio above one refuses the run. Triangular mode takes the
forward pass whatever the bound, using only the exactness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NoContraction, ValidationError
from .fourier import (
    INV_SQRT_2PI,
    FourierSpace,
    convolve_values,
    enorm_values,
    inverse_fourier_table,
    series_norm_1R,
)
from .geometry import ProblemSpec, SectorConfig, alpha_tilde, inv_pm_taylor
from .qcore import QParams, q_number
from .series import TruncatedSeries, borel_exponent, coupling_exponent, formal_q_laplace


def _coupling_map(term, params: QParams, orders: np.ndarray):
    """Targets ``l2 (p + l0)`` and factors ``q^E(p)`` of a coupling's
    Borel-plane map at the source orders ``p``."""
    factors = [
        params.q ** float(coupling_exponent(int(p), term.l0, term.l1, term.l2, params.k))
        for p in orders
    ]
    return term.l2 * (orders + term.l0), np.array(factors)


@dataclass(frozen=True, eq=False)
class H1Context:
    """Grid samples shared by every application of the update operator."""

    spec: ProblemSpec
    config: SectorConfig
    N: int
    inv_p: np.ndarray          # (N+1, G) Taylor rows of the inverted symbol
    forcing_rows: np.ndarray   # (N, G) forcing already placed by order
    maps: tuple                # per term: source orders, targets <= N, factors


def make_h1_context(spec: ProblemSpec, config: SectorConfig, N: int) -> H1Context:
    if N < 1:
        raise ValidationError("truncation order must be >= 1")
    space = spec.space
    inv_p = inv_pm_taylor(space.m, spec, config, N)
    forcing = np.zeros((N, space.size), dtype=complex)
    for f in spec.forcing:
        if f.j <= N:
            forcing[f.j - 1] += f.F.values
    maps = []
    for term in spec.terms:
        src = np.arange(1, N // term.l2 - term.l0 + 1)
        maps.append((src, *_coupling_map(term, spec.params, src)))
    return H1Context(spec, config, N, inv_p, forcing, tuple(maps))


def _coupling_image(coeffs: np.ndarray, ctx: H1Context, lo: int = 0, hi: int | None = None, images=None):
    """Sum of the coupling contributions to orders ``lo + 1 .. hi`` (default
    all N) before the symbol inversion, (hi - lo, G), added in term order.
    ``images`` maps ``(term index, source order)`` to a convolved row and its
    image, which a bit-identical row takes: a convolution reads only its row."""
    space, seen = ctx.spec.space, {} if images is None else images
    hi = ctx.N if hi is None else hi
    out = np.zeros((hi - lo, space.size), dtype=complex)
    for i, (term, (src, dst, factors)) in enumerate(zip(ctx.spec.terms, ctx.maps)):
        sel = (dst > lo) & (dst <= hi)
        rows = factors[sel, None] * coeffs[src[sel] - 1] * term.symbol[None, :]
        live = np.any(rows, axis=1)
        rows, keys = rows[live], [(i, int(p)) for p in src[sel][live]]
        new = [j for j, k in enumerate(keys) if k not in seen or not np.array_equal(seen[k][0], rows[j])]
        conv = INV_SQRT_2PI * convolve_values(space, term.band, rows[new]) if new else ()
        seen.update((keys[j], (rows[j], img)) for j, img in zip(new, conv))
        if keys:
            out[dst[sel][live] - 1 - lo] += np.array([seen[k][1] for k in keys])
    return out


def _invert_symbol(out: np.ndarray, numer: np.ndarray, inv_p: np.ndarray, lo: int, hi: int):
    """Adds rows ``lo .. hi - 1`` of the inverted symbol times ``numer`` into
    ``out``, each order's products by ascending numerator order."""
    for a in range(hi - 1, -1, -1):
        s = max(lo, a)
        out[s:hi] += inv_p[a] * numer[s - a : hi - a]


def contraction_bound(ctx: H1Context) -> float:
    """Bound on the norm of the coupling part of `apply_H1` in the 1R norm:
    the largest column, over source orders p, of the sum over terms of
    ``q^E(p) c_T R^(dst - p) sum_{a <= N - dst} max|inv_p[a]| R^a``, with
    ``c_T = max_m w(m) sum_m1 dm1 |A(m - m1) R(i m1)| / w(m1) / sqrt(2 pi)``
    the exact norm of the term's discrete convolution."""
    space, R, N = ctx.spec.space, ctx.config.R, ctx.N
    w, centre, cols = space.decay_weight(), (space.size - 1) // 2, np.zeros(N)
    tails = np.cumsum(np.max(np.abs(ctx.inv_p), axis=1) * R ** np.arange(N + 1))
    for term, (src, dst, factors) in zip(ctx.spec.terms, ctx.maps):
        mass = np.convolve(np.abs(term.A.values), space.weights() * np.abs(term.symbol) / w)
        c_T = INV_SQRT_2PI * np.max(w * mass[centre : centre + space.size])
        cols[src - 1] += factors * c_T * R ** (dst - src) * tails[N - dst]
    return float(np.max(cols, initial=0.0))


def _smallest_drop(ctx: H1Context) -> int:
    """The smallest order drop ``dst - src`` of any coupling, N if none reaches N."""
    return min((int(np.min(dst - src)) for src, dst, _ in ctx.maps if src.size), default=ctx.N)


def _forward(ctx: H1Context) -> tuple[TruncatedSeries, int, dict]:
    """The exact truncated fixed point, its wave count and its row `images`:
    a wave of as many orders as the smallest drop reads only earlier waves."""
    N, space = ctx.N, ctx.spec.space
    width = _smallest_drop(ctx)
    omega = np.zeros((N, space.size), dtype=complex)
    numer, images = np.zeros_like(omega), {}
    for lo in range(0, N, width):
        hi = min(lo + width, N)
        numer[lo:hi] = _coupling_image(omega, ctx, lo, hi, images) + ctx.forcing_rows[lo:hi]
        _invert_symbol(omega, numer, ctx.inv_p, lo, hi)
    return TruncatedSeries(omega, space), -(-N // width), images


def _dropped_mass_1R(omega: TruncatedSeries, spec: ProblemSpec, R: float) -> float:
    """Certificate mass the couplings push past the truncation order N.

    The sum over terms and over orders ``p <= N`` with ``l2 (p + l0) > N`` of
    ``q^E(p) enorm(omega_p) R^(l2 (p + l0))``.
    """
    N = omega.order
    total = 0.0
    for term in spec.terms:
        src = np.arange(max(1, N // term.l2 - term.l0 + 1), N + 1)
        dst, factors = _coupling_map(term, spec.params, src)
        for p, n, f in zip(src, dst, factors):
            total += f * enorm_values(spec.space, omega.coeffs[p - 1]) * R ** int(n)
    return float(total)


def apply_H1(omega: TruncatedSeries, ctx: H1Context) -> TruncatedSeries:
    """One sweep of the Borel-plane update operator of ``ctx``, truncated at
    its order N.

    The operator is affine in ``omega``: coupling terms are linear, the
    forcing is constant, and the inverted divisor symbol multiplies both.
    The forcing enters without the convolution prefactor 1/sqrt(2 pi); the
    coupling terms carry it.
    """
    if not isinstance(omega.space, FourierSpace) or not omega.space.same_grid(ctx.spec.space):
        raise GridMismatch("series coefficients live on a different frequency grid")
    omega = omega.truncated(ctx.N) if omega.order > ctx.N else omega.pad_to(ctx.N)
    return _sweep(omega, ctx)


def _sweep(omega: TruncatedSeries, ctx: H1Context, images: dict | None = None) -> TruncatedSeries:
    """`apply_H1` on an order-N ``omega``, reusing ``images`` as `_coupling_image` does."""
    numer = _coupling_image(omega.coeffs, ctx, images=images) + ctx.forcing_rows
    out = np.zeros_like(numer)
    _invert_symbol(out, numer, ctx.inv_p, 0, ctx.N)
    return TruncatedSeries(out, ctx.spec.space)


@dataclass(frozen=True, eq=False)
class BorelSolution:
    """Exact truncation of the Borel-plane fixed point, by either path, with
    the contraction bound and measured contraction record."""

    omega: TruncatedSeries
    iterations: int
    contraction_history: tuple
    residual_1R: float
    R: float
    dropped_mass_1R: float
    contraction_bound: float
    path: str                  # "forward" or "picard"


def _solution(ctx: H1Context, omega, iterations, history, bound, path, residual) -> BorelSolution:
    """The record of ``omega``, whose ``residual`` is the step norm of one more sweep."""
    R = ctx.config.R
    return BorelSolution(omega, iterations, tuple(history), residual, R,
                         _dropped_mass_1R(omega, ctx.spec, R), bound, path)


def picard(ctx: H1Context, bound: float) -> BorelSolution:
    """Picard iteration from zero until a sweep changes nothing.

    Row m of sweep k reads only rows up to m - d of sweep k - 1, d the
    smallest drop, and a row's convolution bits do not depend on its batch:
    so sweep ceil(N / d) holds the forward pass's bits, and the next step is
    exactly zero. Raises :class:`NoContraction` once the measured ratio
    exceeds one for three consecutive steps, on converging after any ratio
    above one (the truncated update is nilpotent, so the sweeps reach its
    fixed point however they grow first), or if ceil(N / d) + 1 sweeps
    leave a nonzero step, which only non-finite values can cause.
    ``bound`` is recorded as the solution's ``contraction_bound``.
    """
    spec, N, max_iter = ctx.spec, ctx.N, -(-ctx.N // _smallest_drop(ctx)) + 1
    omega = TruncatedSeries(np.zeros((N, spec.space.size), dtype=complex), spec.space)
    history, prev_delta, rising = [], 0.0, 0
    for iterations in range(1, max_iter + 1):
        nxt = apply_H1(omega, ctx)
        delta = series_norm_1R(nxt - omega, ctx.config.R)
        if prev_delta > 0.0:
            history.append(delta / prev_delta)
            rising = rising + 1 if history[-1] > 1.0 else 0
        omega, prev_delta = nxt, delta
        if rising >= 3 or (delta == 0.0 and max(history, default=0.0) > 1.0):
            raise NoContraction("step norm grew before the sweeps reached the fixed point; "
                                "coupling amplitudes are outside the smallness regime",
                                history=tuple(history))
        if delta == 0.0:
            return _solution(ctx, omega, iterations, history, bound, "picard", delta)
    raise NoContraction(f"no sweep of the first {max_iter} left omega unchanged",
                        history=tuple(history))


def solve_fixed_point(
    spec: ProblemSpec,
    config: SectorConfig,
    N: int,
    mode: str = "contraction",
) -> BorelSolution:
    """The truncated fixed point: by the forward pass if `contraction_bound`
    is below one or ``mode="triangular"``, else by `picard` to the same bits.

    ``iterations`` counts the Picard sweeps, or the forward pass's waves and
    one sweep that confirms them; ``residual_1R`` is the step norm of one
    more sweep, 0.0 on either path, which returns its omega bit for bit.
    """
    if mode not in ("contraction", "triangular"):
        raise ValidationError("mode must be 'contraction' or 'triangular'")
    ctx = make_h1_context(spec, config, N)
    bound = contraction_bound(ctx)
    if mode == "contraction" and not bound < 1.0:
        return picard(ctx, bound)
    omega, waves, images = _forward(ctx)
    # bit for bit a sweep from scratch: it reuses the images of bit-identical rows only
    step = _sweep(omega, ctx, images) - omega
    return _solution(ctx, omega, waves + 1, (), bound, "forward", series_norm_1R(step, ctx.config.R))


def assemble_U_hat(sol: BorelSolution, params: QParams) -> TruncatedSeries:
    """Formal-sum coefficients: order p picks up q^(p(p-1)/(2k))."""
    return formal_q_laplace(sol.omega, params)


def assemble_u_hat(U: TruncatedSeries, z_points, beta_prime: float) -> np.ndarray:
    """Per-order inverse Fourier table, shape (order, len(z_points))."""
    if not isinstance(U.space, FourierSpace):
        raise ValidationError("coefficients must live on a frequency grid")
    return inverse_fourier_table(U.coeffs, U.space, z_points, beta_prime)


def _expq_operator_rows(U: TruncatedSeries, spec: ProblemSpec, N: int) -> np.ndarray:
    """Rows of the q-exponential difference operator applied to U.

    The n-th iterate of the degree-raising dilation sends order p to
    p + n*d_D with the dilation factor q^((d_D/k)(n p + d_D n(n-1)/2)).
    Factors are assembled in log space; the growth in p is always beaten
    by the q-factorial in the denominator.
    """
    params = spec.params
    q, k, d = params.q, params.k, spec.d_D
    lq = math.log(q)
    la = math.log(spec.alpha_D)
    out = np.zeros((N, spec.space.size), dtype=complex)
    n = 0
    log_qfact = 0.0
    while n * d < N:
        for p in range(1, N - n * d + 1):
            log_f = n * la + (d / k) * (n * p + d * n * (n - 1) / 2.0) * lq - log_qfact
            out[p + n * d - 1] += math.exp(log_f) * U.coeffs[p - 1]
        n += 1
        log_qfact += math.log(q_number(n, q))
    return out


def main_equation_residual(
    U: TruncatedSeries,
    spec: ProblemSpec,
    config: SectorConfig,
    N: int | None = None,
    return_series: bool = False,
):
    """Per-order certificate norms of the defect of the formal solution.

    Both sides of the driving equation are expanded as truncated series in
    the summed variable: the q-exponential operator through its iterate
    expansion, each coupling through its degree map p -> l2 (p + l0) with
    dilation factor q^(l1 p), and the forcing with its q^(j(j-1)/(2k))
    weight. Orders near the truncation edge are still reported; the caller
    decides which ones the truncation contaminates.
    """
    if not isinstance(U.space, FourierSpace) or not U.space.same_grid(spec.space):
        raise GridMismatch("series coefficients live on a different frequency grid")
    if N is None:
        N = U.order
    U = U.truncated(N) if U.order > N else U.pad_to(N)
    params = spec.params
    space = spec.space
    q_vals = spec.q_symbol
    rd_vals = spec.rd_symbol

    lhs = q_vals[None, :] * U.coeffs
    rhs = rd_vals[None, :] * _expq_operator_rows(U, spec, N)
    for term in spec.terms:
        # orders p with l2 (p + l0) <= N, each landing on its own order
        ps = np.arange(1, N // term.l2 - term.l0 + 1)
        twist = np.array([params.q ** (term.l1 * int(p)) for p in ps])
        g = U.coeffs[ps - 1] * term.symbol * twist[:, None]
        rhs[term.l2 * (ps + term.l0) - 1] += INV_SQRT_2PI * convolve_values(space, term.band, g)
    for f in spec.forcing:
        if f.j <= N:
            w = params.q ** float(borel_exponent(f.j, params.k))
            rhs[f.j - 1] += w * np.asarray(f.F.values)

    defect = TruncatedSeries(lhs - rhs, space)
    norms = np.max(space.decay_weight() * np.abs(defect.coeffs), axis=1)
    if return_series:
        return norms, defect
    return norms


def pm_taylor_rows(spec: ProblemSpec, N: int) -> np.ndarray:
    """Taylor rows of the divisor symbol, shape (N+1, G); row 0 is the
    constant term. Only orders that are multiples of d_D are populated."""
    space = spec.space
    q_vals = spec.q_symbol
    rd_vals = spec.rd_symbol
    at = alpha_tilde(spec)
    out = np.zeros((N + 1, space.size), dtype=complex)
    out[0] = q_vals - rd_vals
    coeff = 1.0
    n = 1
    while n * spec.d_D <= N:
        coeff *= at / q_number(n, spec.params.q)
        out[n * spec.d_D] = -coeff * rd_vals
        n += 1
    return out
