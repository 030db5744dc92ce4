"""Borel-plane fixed-point solver.

The unknown lives as a truncated power series in the Borel variable whose
coefficients are functions on the frequency grid. One application of the
update operator pushes every coupling term through its Borel-plane map
(order p to order l2 (p + l0) times q^E(p), the shift, dilation and Mahler
deceleration in one step; see `series.coupling_exponent`), convolves in the
frequency variable, adds the forcing, and multiplies by the Taylor inverse
of the divisor symbol. Every coupling raises the power-series order by at
least one, so the order-p output coefficient depends only on input
coefficients below p: iteration from zero reproduces the exact truncated
coefficients after at most N sweeps whether or not the norm estimates
contract.

Contraction is measured, not assumed. The measured step ratios are the
empirical counterpart of the smallness regime the existence statement asks
for, and a sustained ratio above one aborts the run (or is ignored in
triangular mode, where only the exactness argument is used).
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


@dataclass(frozen=True)
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


def _coupling_image(omega: TruncatedSeries, ctx: H1Context) -> np.ndarray:
    """Sum of all coupling contributions before the symbol inversion, (N, G)."""
    space = ctx.spec.space
    out = np.zeros((ctx.N, space.size), dtype=complex)
    for term, (src, dst, factors) in zip(ctx.spec.terms, ctx.maps):
        rows = factors[:, None] * omega.coeffs[src - 1] * term.symbol[None, :]
        live = np.any(rows, axis=1)
        if np.any(live):
            out[dst[live] - 1] += INV_SQRT_2PI * convolve_values(space, term.band, rows[live])
    return out


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


def apply_H1(
    omega: TruncatedSeries,
    spec: ProblemSpec,
    config: SectorConfig,
    N: int,
    ctx: H1Context | None = None,
) -> TruncatedSeries:
    """One sweep of the Borel-plane update operator, truncated at order N.

    The operator is affine in ``omega``: coupling terms are linear, the
    forcing is constant, and the inverted divisor symbol multiplies both.
    The forcing enters without the convolution prefactor 1/sqrt(2 pi); the
    coupling terms carry it.
    """
    if not isinstance(omega.space, FourierSpace) or not omega.space.same_grid(spec.space):
        raise GridMismatch("series coefficients live on a different frequency grid")
    if ctx is None:
        ctx = make_h1_context(spec, config, N)
    elif ctx.N != N or ctx.spec is not spec:
        raise ValidationError("context was built for a different problem or order")
    omega = omega.truncated(N) if omega.order > N else omega.pad_to(N)
    numer = _coupling_image(omega, ctx) + ctx.forcing_rows
    out = np.zeros_like(numer)
    # Cauchy product with the inverted symbol: its row a multiplies numerator
    # order p - a.  Descending a adds each order's products in the order of
    # ascending numerator order.
    for a in range(N - 1, -1, -1):
        out[a:] += ctx.inv_p[a] * numer[: N - a]
    return TruncatedSeries(out, spec.space)


@dataclass(frozen=True)
class BorelSolution:
    """Converged (or exactly triangular) truncation of the Borel-plane
    fixed point, with the measured contraction record."""

    omega: TruncatedSeries
    iterations: int
    contraction_history: tuple
    residual_1R: float
    R: float
    dropped_mass_1R: float


def solve_fixed_point(
    spec: ProblemSpec,
    config: SectorConfig,
    N: int,
    tol: float = 1e-12,
    mode: str = "contraction",
) -> BorelSolution:
    """Picard iteration from zero until the step norm drops below ``tol``.

    ``mode="contraction"`` raises :class:`NoContraction` once the measured
    ratio exceeds one for three consecutive steps, or after ``max(4 N, 64)``
    sweeps; ``mode="triangular"`` ignores ratios and relies on exactness of
    orders <= sweep count, which needs at most N + 1 sweeps. The returned
    residual is the step norm of one extra sweep applied to the accepted
    iterate.
    """
    if mode not in ("contraction", "triangular"):
        raise ValidationError("mode must be 'contraction' or 'triangular'")
    max_iter = N + 1 if mode == "triangular" else max(4 * N, 64)
    ctx = make_h1_context(spec, config, N)
    space = spec.space
    omega = TruncatedSeries(np.zeros((N, space.size), dtype=complex), space)
    history: list[float] = []
    prev_delta = None
    rising = 0
    iterations = 0
    for _ in range(max_iter):
        nxt = apply_H1(omega, spec, config, N, ctx=ctx)
        iterations += 1
        delta = series_norm_1R(nxt - omega, config.R)
        if prev_delta is not None and prev_delta > 0.0:
            ratio = delta / prev_delta
            history.append(ratio)
            if mode == "contraction":
                rising = rising + 1 if ratio > 1.0 else 0
                if rising >= 3:
                    raise NoContraction(
                        "step norm grew for three consecutive sweeps; "
                        "coupling amplitudes are outside the smallness regime",
                        history=tuple(history),
                    )
        omega = nxt
        prev_delta = delta
        if delta < tol:
            break
    else:
        if mode == "contraction":
            raise NoContraction(
                f"no convergence to {tol:g} within {max_iter} sweeps",
                history=tuple(history),
            )
    residual = series_norm_1R(
        apply_H1(omega, spec, config, N, ctx=ctx) - omega, config.R
    )
    return BorelSolution(
        omega=omega,
        iterations=iterations,
        contraction_history=tuple(history),
        residual_1R=residual,
        R=config.R,
        dropped_mass_1R=_dropped_mass_1R(omega, spec, config.R),
    )


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
