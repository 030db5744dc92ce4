"""One check per shipped guarantee, shared by the acceptance suite and ``qsum verify``.

Each check runs at points its caller supplies (fixed ones in the acceptance
suite, seeded ones in ``qsum verify``) and returns rows ``(name, detail,
measured, threshold)``; the guarantee holds where ``measured <= threshold``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .fourier import series_norm_1R
from .geometry import pm_lower_bound_report, validate_spec
from .qcore import theta_kernel_log
from .series import borel_exponent
from .solver import contraction_bound, make_h1_context, picard, solve_fixed_point
from .transforms import (
    ContinuedOmega,
    ContourBracket,
    _power_sum,
    _series_radius,
    deceleration_integral,
    gq_sum,
    q_borel_analytic,
    q_laplace,
    ray_window,
    s_lattice,
    theorem2_residual,
)


def _polynomial(coeffs):
    """``u -> sum_n coeffs[n-1] u^n`` (from power 1); broadcasts over ``u``."""
    return lambda u: sum(c * u**n for n, c in enumerate(coeffs, 1))


def monomial_image(op: str, coeffs, z: complex, params, p: int = 2) -> complex:
    """Closed form of `transform` at the plane point ``z``: ``u^n`` goes to
    ``q^x z^n`` with ``x = e(n)`` (``laplace``), ``-e(n)`` (``borel``) or
    ``e(n) - e(pn)`` (``decelerate``), where ``e(n) = n(n-1)/(2k)``."""
    e = lambda n: borel_exponent(n, params.k)
    x = {"laplace": e, "borel": lambda n: -e(n), "decelerate": lambda n: e(n) - e(p * n)}[op]
    return sum(c * params.q ** float(x(n)) * z**n for n, c in enumerate(coeffs, 1))


def transform(op: str, coeffs, pt, params, p: int = 2) -> complex:
    """Quadrature q-Laplace, analytic q-Borel or order-``p`` deceleration
    (``op`` as in `monomial_image`) of ``sum_n coeffs[n-1] u^n`` at ``pt``."""
    f = _polynomial(coeffs)
    if op == "laplace":
        return q_laplace(f, pt, params=params, growth=float(len(coeffs)))
    if op == "borel":
        return q_borel_analytic(lambda x: f(x.to_complex()), pt, params=params)
    return deceleration_integral(f, p, pt, params=params)


def _rel(got, want) -> float:
    return float(abs(got - want) / abs(want))


def _identity(name: str, op: str, params, cases, threshold: float, p: int = 2):
    """`transform` against `monomial_image` at each ``(coeffs, point)``; ``n``
    in the detail is the degree."""
    label = {"laplace": "T", "borel": "xi", "decelerate": "h"}[op]
    return [
        (name, f"n={len(c)} {label}=({pt.r:.4g},{pt.theta:.4g})",
         _rel(transform(op, c, pt, params, p), monomial_image(op, c, pt.to_complex(), params, p)),
         threshold)
        for c, pt in cases
    ]


def _monomials(cases):
    return [((0.0,) * (n - 1) + (1.0,), pt) for n, pt in cases]


def laplace_monomials(params, cases):
    """q-Laplace of ``u^n`` against ``q^{e(n)} T^n`` at each ``(n, T)``."""
    return _identity("laplace-monomial", "laplace", params, _monomials(cases), 1e-7)


def borel_monomials(params, cases):
    """Analytic q-Borel of ``u^n`` against ``q^{-e(n)} xi^n`` at each ``(n, xi)``."""
    return _identity("borel-monomial", "borel", params, _monomials(cases), 1e-6)


def deceleration_polynomials(params, p: int, cases):
    """Order-``p`` contour deceleration against the coefficient formula at
    each ``(coeffs, h)``, a polynomial from power 1 and a point."""
    return _identity("deceleration-monomial", "decelerate", params, cases, 1e-13, p)


def borel_roundtrip(params, points):
    """Analytic q-Borel of the quadrature q-Laplace of ``f = u + u^3/7``
    against ``f(xi)`` at each ``xi``."""
    f = lambda u: u + u**3 / 7.0
    rows = []
    for xi in points:
        phi = lambda x: q_laplace(
            f, x, params=params,
            quad=ray_window(x, params, growth=3.0, tail=1e-14, step=0.08), check=False,
        )
        got = q_borel_analytic(phi, xi, params=params, step=0.15)
        rows.append(("borel-inverts-laplace", f"xi=({xi.r:.4g},{xi.theta:.4g})",
                     _rel(got, f(xi.to_complex())), 1e-5))
    return rows


def kernel_modulus(params, log_ratios):
    """``|Theta_k|`` against ``exp(-kappa (lr^2 - dth^2) + lr/2)`` at each ``(lr, dth)``."""
    kap = params.k / (2.0 * params.log_q)
    return [
        ("kernel-modulus", f"log_ratio=({lr:.4g},{dth:.4g})",
         _rel(abs(theta_kernel_log(complex(lr, dth), params)),
              math.exp(-kap * (lr * lr - dth * dth) + 0.5 * lr)), 1e-12)
        for lr, dth in log_ratios
    ]


def geometry(spec, cfg):
    """The structural conditions of ``spec`` and, given a sector ``cfg``, its
    symbol lower bound, corridor gap and far-field constant (pass 0, fail 1)."""
    rows = [("condition", c.name + ": " + c.detail, 0.0 if c.ok else 1.0, 0.5)
            for c in validate_spec(spec).conditions]
    if cfg is None:
        return rows
    bound = pm_lower_bound_report(spec, cfg)
    return rows + [
        ("pm-lower-bound", f"min margin {bound.min_margin:.4g}x delta1",
         0.0 if bound.min_margin >= 1.0 else 1.0, 0.5),
        ("corridor-gap", bound.gap_detail, 0.0 if bound.gap_ok else 1.0, 0.5),
        ("far-field", f"constant {bound.far_field_constant:.4g}",
         0.0 if math.isfinite(bound.far_field_constant) else 1.0, 0.5),
    ]


def contraction(spec, cfg, N):
    """c06 at order ``N``, by Picard sweeps to a zero step, the solve's
    independent realisation: the largest step ratio at most 0.55 and
    `contraction_bound`, the residual at most 1e-10 of one plus the 1R norm,
    and the forward pass, in at most N waves, bit for bit the last iterate."""
    ctx = make_h1_context(spec, cfg, N)
    pic = picard(ctx, contraction_bound(ctx))
    fwd = solve_fixed_point(spec, cfg, N, mode="triangular")
    ratio, norm = max(pic.contraction_history, default=0.0), series_norm_1R(pic.omega, cfg.R)
    n = f"N={N}: {len(pic.contraction_history)} Picard steps,"
    return [
        ("contraction-ratio", f"{n} largest ratio", ratio, 0.55),
        ("contraction-residual", f"{n} residual over 1 + 1R norm", pic.residual_1R / (1.0 + norm), 1e-10),
        ("contraction-bound", f"{n} largest ratio against the bound", ratio, pic.contraction_bound),
        ("forward-vs-picard", f"{n} 1R distance to the forward pass, relative",
         series_norm_1R(fwd.omega - pic.omega, cfg.R) / max(norm, 1e-300), 0.0),
        ("forward-waves", f"N={N}: waves of the forward pass", fwd.iterations - 1.0, float(N)),
    ]


def summed_equation(sol, spec, cfg, points, *, beta_prime):
    """`theorem2_residual` at each ``(t, z)`` within 10x its budget (forcing
    only) or 100x (with couplings)."""
    factor = 100.0 if spec.terms else 10.0
    rep = theorem2_residual(sol, spec, cfg, points, beta_prime=beta_prime)
    return [
        ("theorem2-residual",
         f"t=({row['t_r']:.4g},{row['t_theta']:.4g}) residual={row['residual']:.3e} "
         f"budget={row['budget']:.3e}",
         row["residual"] / max(factor * row["budget"], 1e-300), 1.0)
        for row in rep.rows
    ]


def term_gate(sol, spec, cfg, points, *, beta_prime):
    """Summed-equation residual within 1e-9 of the smallest coupling or
    forcing term at each ``(t, z)``, on the continuation and, if some
    coupling has ``l2 >= 2``, on its `ContourBracket`, where an error in the
    closed-form bracket does not cancel as it does on the ladder."""
    if not spec.terms and not spec.forcing:
        return []  # the zero solution: no term to gate
    om = ContinuedOmega(sol, spec, cfg)
    paths = [("continuation", om)]
    if any(term.l2 >= 2 for term in spec.terms):
        paths.append(("contour", ContourBracket(om)))
    rows = []
    for path, omega in paths:
        rep = theorem2_residual(sol, spec, cfg, points, beta_prime=beta_prime, omega=omega)
        for row in rep.rows:
            smallest = min(abs(v) for name, v in row["terms"].items()
                           if name not in ("lhs", "dominant"))
            rows.append((
                "theorem2-term-gate",
                f"{path} t=({row['t_r']:.4g},{row['t_theta']:.4g}) "
                f"residual={row['residual']:.3e} smallest term={smallest:.3e}",
                row["residual"] / max(1e-9 * smallest, 1e-300), 1.0,
            ))
    return rows


def summation_determinism(sol, spec, cfg, points, *, beta_prime):
    """`gq_sum` depends on its point alone: the points get the same bits in
    two orders and each on a fresh continuation, the first ``t`` at two tails
    in turn, the ray nodes about it in one request and one at a time, and the
    first lattice node beyond ``r0`` asked by two floats 1e-12 apart."""
    fresh = lambda: ContinuedOmega(sol, spec, cfg)

    def sums(pairs, om=None, **kw):
        return np.array([gq_sum(om or fresh(), t, z, cfg, spec, beta_prime=beta_prime, **kw)
                         for t, z in pairs])

    (t, z), om, n = points[0], fresh(), len(points)
    in_turn, alone = zip(*[(sums([(t, z)], om, tail=a), sums([(t, z)], tail=a))
                           for a in (1e-11, 1e-13)])
    h = s_lattice(spec.params) / 2.0
    j = round(math.log(t.r) / h)
    radii = np.exp(np.arange(j - 24, j + 9) * h)
    given = sums(points, fresh())
    node = math.exp((math.floor(math.log(om.r0) / h) + 1) * h)
    # the error is the largest difference over the largest value
    return [("sum-determinism", detail,
             float(np.max(abs(got - want)) / max(np.max(abs(want)), 1e-300)), 0.0)
            for detail, got, want in [
        (f"{n} points in reverse order against in order", sums(points[::-1], fresh())[::-1], given),
        (f"{n} points each on a fresh continuation", sums(points), given),
        (f"t=({t.r:.4g},{t.theta:.4g}) at tails 1e-11 then 1e-13 against each on a fresh "
         "continuation", np.concatenate(in_turn), np.concatenate(alone)),
        (f"{radii.size} ray nodes about t in one request against one at a time",
         fresh().ray_values(radii, t.theta),
         np.concatenate([om.ray_values(radii[i : i + 1], t.theta) for i in range(radii.size)])),
        (f"lattice node r={node:.6g} asked as r (1 + 1e-12) against r",
         fresh().ray_values([node * (1.0 + 1e-12)], t.theta), fresh().ray_values([node], t.theta)),
    ]]


def _polyfit(x, y, degree: int) -> np.ndarray:
    """Least squares ``y ~ c0 + c1 x + ... + c_degree x^degree``; returns the ``c``."""
    A = np.vander(np.asarray(x, dtype=float), degree + 1, increasing=True)
    return np.linalg.lstsq(A, np.asarray(y, dtype=float), rcond=None)[0]


def fit_log_quadratic(n_values, log_errors) -> tuple[float, float, float]:
    """Least squares ``log err ~ c0 + c1 n + c2 n^2``; returns ``(c0, c1, c2)``."""
    return tuple(map(float, _polyfit(n_values, log_errors, 2)))


def _growth_fit(om, spec, taus) -> tuple[float, float]:
    """``(C, alpha)`` of the sector envelope ``sup_m |omega(tau, m)| w(m) <= C
    |tau| exp(kappa log^2|tau| + alpha log|tau|)`` of the continuation ``om``:
    ``alpha`` fitted over the samples, ``C`` the worst constant; nan where a
    sample's sup is 0."""
    kap, wgt = spec.params.k / (2.0 * spec.params.log_q), spec.space.decay_weight()
    L = np.log([tau.r for tau in taus])
    y = np.log([np.max(np.abs(om.values(tau)) * wgt) for tau in taus]) - L - kap * L * L
    alpha = float(_polyfit(L, y, 1)[1])
    return float(np.exp(np.max(y - alpha * L))), alpha


def sector(sol, spec, cfg, taus):
    """The continuation of ``sol`` at each ``tau`` (``|tau| >= R``, else
    `ValidationError`): inside the radius where the series' top order reaches
    5% of its coefficient scale, the series against one `rhs_at` within 5e-2
    of the right-hand side's size; unless the solution is zero, a finite
    constant of the log-quadratic growth envelope (`_growth_fit`)."""
    if any(tau.r < cfg.R for tau in taus):
        raise ValidationError("sector samples must have |tau| >= R")
    om, rows = ContinuedOmega(sol, spec, cfg), []
    radius = _series_radius(sol.omega, 0.05, 0.97 * cfg.rho)
    for tau in [tau for tau in taus if tau.r <= radius]:
        rhs = om.rhs_at(np.array([tau.r]), tau.theta)[0]
        diff = np.abs(_power_sum(*om.polynomial(), math.log(tau.r) + 1j * tau.theta) - rhs)
        scale = float(np.max(np.abs(rhs))) or 1.0
        rows.append(("sector-overlap", f"tau=({tau.r:.4g},{tau.theta:.4g}) series against one "
                     f"right-hand side, scale {scale:.3e}", float(np.max(diff)), 5e-2 * scale))
    if spec.terms or spec.forcing:  # else the zero solution: no growth to fit
        C, alpha = _growth_fit(om, spec, taus)
        rows.append(("sector-growth", f"{len(taus)} samples: C {C:.4g}, alpha {alpha:.4g}",
                     0.0 if math.isfinite(C) else 1.0, 0.5))
    return rows


def gevrey_rate(omega_ev, u_n, z, points, cfg, spec, *, beta_prime):
    """q-Gevrey rate at each ``t``: the log error of the N-term partial sum
    ``sum_{n<N} u_n[n-1] t^n`` against the summed value at ``z``, fitted as
    ``c0 + c1 N + c2 N^2`` over N = 2..8, has ``c2`` within 15% of
    ``log q / 2k``.  No rows for the zero solution, whose partial sums are
    exact: there is no error to fit."""
    if not spec.terms and not spec.forcing:
        return []
    target = spec.params.log_q / (2.0 * spec.params.k)
    ns = np.arange(2.0, 9.0)
    rows = []
    for t in points:
        full = gq_sum(omega_ev, t, z, cfg, spec, beta_prime=beta_prime,
                      tail=1e-13, eps_rel=1e-10)
        tc = t.r * np.exp(1j * t.theta)
        le = [math.log(abs(full - sum(u_n[n - 1] * tc**n for n in range(1, int(N)))))
              for N in ns]
        _, _, c2 = fit_log_quadratic(ns, np.array(le))
        rows.append(("gevrey-rate",
                     f"|t|={t.r:.4g}: N^2 coefficient {c2:.4f} vs log(q)/(2k)={target:.4f}",
                     abs(c2 - target) / target, 0.15))
    return rows
