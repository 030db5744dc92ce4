import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import benchmark_workloads, build_spec, gaussian_profile
from qsum import checks, fourier, geometry, transforms
from qsum.cli import load_problem, resolve_input
from qsum.errors import (
    DomainTooLarge,
    DomainViolation,
    QuadratureStall,
    ValidationError,
    ZeroDivision,
)
from qsum.fourier import INV_SQRT_2PI, FourierFn, convolve_values, inverse_fourier_eval
from qsum.geometry import MahlerTerm, select_sector
from qsum.qcore import CoveringPoint, QParams, exp_q, theta_kernel_log
from qsum.series import borel_exponent
from qsum.solver import assemble_U_hat, main_equation_residual, solve_fixed_point
from qsum.transforms import (
    CircleContour,
    ContinuedOmega,
    PolynomialOmega,
    RayQuadrature,
    SeparableOmega,
    _auto_quad,
    _deceleration_contour,
    _deceleration_window,
    _ExpqNodes,
    _expq_row,
    _profile,
    _term_rows,
    _term_sum,
    decelerated_bracket,
    deceleration_integral,
    gq_sum,
    q_borel_analytic,
    q_laplace,
    ray_window,
    s_lattice,
    theorem2_residual,
)


def be(n, k):
    return float(borel_exponent(n, k))


@pytest.fixture(scope="module")
def fx_forcing():
    spec = build_spec(terms="none")
    cfg = select_sector(spec, 0.0)
    return spec, cfg


@pytest.fixture(scope="module")
def fx_full():
    spec = build_spec(terms="full")
    cfg = select_sector(spec, 0.0)
    sol = solve_fixed_point(spec, cfg, 16)
    return spec, cfg, sol


@pytest.fixture(scope="module")
def fx_shift():
    spec = build_spec(terms="shift")
    cfg = select_sector(spec, 0.0)
    sol = solve_fixed_point(spec, cfg, 16)
    return spec, cfg, sol


@pytest.fixture(scope="module")
def fx_ladder_shapes():
    """Ladders of other shapes, solved at order 16: two shift couplings whose
    drops (24 and 36 key steps, q = 2, k = 1) are not one progression, and
    order k = 2, whose shift coupling drops 4 key steps."""
    shapes = {}
    spec = build_spec(terms="full")
    A = spec.terms[0].A
    shapes["two shifts"] = dataclasses.replace(spec, terms=(
        MahlerTerm(l0=3, l1=1, l2=1, R=[1.0, 0.25], A=A),
        MahlerTerm(l0=4, l1=1, l2=1, R=[0.5, 0.125], A=A), spec.terms[1]))
    spec = build_spec(terms="full", k=2)
    shapes["k2"] = dataclasses.replace(spec, terms=(
        MahlerTerm(l0=3, l1=1, l2=1, R=[1.0, 0.25], A=A),
        MahlerTerm(l0=3, l1=1, l2=2, R=[0.5, 0.125], A=A)))
    out = {}
    for name, spec in shapes.items():
        cfg = select_sector(spec, 0.0)
        out[name] = spec, cfg, solve_fixed_point(spec, cfg, 16)
    return out


@pytest.fixture(scope="module")
def fx_smallq():
    spec = build_spec(terms="full", q=1.12, ratio=1e-5)
    cfg = select_sector(spec, 0.0)
    cfg = dataclasses.replace(cfg, R=0.2 * cfg.rho)
    sol = solve_fixed_point(spec, cfg, 16)
    return spec, cfg, sol


# ---------------------------------------------------------------------------
# quadrature objects


def test_ray_quadrature_weights_trapezoid():
    qd = RayQuadrature(0.0, 0.25, -4, 4)
    w = qd.weights()
    assert w[0] == pytest.approx(0.5 * qd.step)
    assert w[3] == pytest.approx(qd.step)
    assert np.sum(w) == pytest.approx(2.0)


def test_ray_quadrature_refined_grows_window():
    # half the step, and a quarter of the width more, snapped outward
    qd = RayQuadrature(0.3, 0.125, -16, 18)
    r = qd.refined()
    assert (r.theta_d, r.step, r.j_min, r.j_max) == (0.3, 0.0625, -41, 45)
    assert r.s_grid()[0] < qd.s_grid()[0] and r.s_grid()[-1] > qd.s_grid()[-1]


def test_ray_quadrature_refined_lattice_keeps_nodes():
    # every node of every level is a node of the next, as the same float
    qd = RayQuadrature(0.0, 0.17328679513998632, -7, 5)
    for _ in range(3):
        r = qd.refined()
        assert r.step == qd.step / 2.0
        assert np.isin(qd.s_grid(), r.s_grid()).all()
        qd = r


def test_quadrature_validation():
    with pytest.raises(ValidationError):
        RayQuadrature(0.0, -0.1, 0, 31)
    with pytest.raises(ValidationError):
        RayQuadrature(0.0, 0.25, -1, 2)
    with pytest.raises(ValidationError):
        CircleContour(-0.5, -1.0, 1.0, 32)


def test_gaussian_identity():
    # int exp(-x^2 - a x) dx = sqrt(pi) exp(a^2/4), on the quadrature weights
    for a in (0, 1, 2):
        # s in [-9 - a/2, 9 - a/2], step 0.05
        qd = RayQuadrature(0.0, 0.05, -180 - 10 * a, 180 - 10 * a)
        s = qd.s_grid()
        val = float(np.sum(qd.weights() * np.exp(-(s**2) - a * s)))
        want = math.sqrt(math.pi) * math.exp(a * a / 4.0)
        assert abs(val - want) <= 1e-10 * want


# ---------------------------------------------------------------------------
# q-Laplace along a ray


def test_q_laplace_first_monomials():
    P = QParams(q=2.0, k=1)
    T = CoveringPoint(0.1, 0.0)
    v1 = q_laplace(lambda u: u, T, params=P, growth=1.0)
    assert abs(v1 - 0.1) <= 1e-8
    v2 = q_laplace(lambda u: u**2, T, params=P, growth=2.0)
    assert abs(v2 - 0.02) <= 1e-8


@pytest.mark.parametrize("q", [2.0, 1.5])
@pytest.mark.parametrize("k", [1, 2])
def test_q_laplace_monomial_table(q, k):
    pts = [CoveringPoint(0.1, 0.0), CoveringPoint(0.08, 1.2), CoveringPoint(0.12, -2.0)]
    cases = [(n, T) for n in range(1, 7) for T in pts]
    for _, detail, err, _ in checks.laplace_monomials(QParams(q=q, k=k), cases):
        assert err <= 1e-7, detail


def test_q_laplace_direction_independence():
    P = QParams(q=2.0, k=1)
    f = lambda u: u + u**3 / 7.0
    T = CoveringPoint(0.12, 0.3)
    base = q_laplace(f, T, params=P, growth=3.0)
    for dth in (-0.05, 0.05):
        w0 = ray_window(T, P, growth=3.0)
        qd = dataclasses.replace(w0, theta_d=T.theta + dth)
        v = q_laplace(f, T, quad=qd, params=P)
        assert abs(v - base) <= 1e-7 * abs(base)


def test_kernel_modulus_identity():
    rng = np.random.default_rng(7)
    for P in (QParams(q=2.0, k=1), QParams(q=1.5, k=2)):
        log_ratios = [(rng.uniform(-2.0, 2.0), rng.uniform(-6.0, 6.0)) for _ in range(20)]
        for _, detail, err, _ in checks.kernel_modulus(P, log_ratios):
            assert err <= 1e-12, detail


def test_q_laplace_commutes_with_q_difference():
    # z^sigma f(q^{j - sigma/k} z) transforms to q^{e(sigma)} T^sigma (Lf)(q^j T)
    P = QParams(q=2.0, k=1)
    f = lambda z: z**2
    sigma, j = 1, 1
    T = CoveringPoint(0.07, 0.25)
    shift = P.q ** (j - sigma / P.k)
    lhs = q_laplace(lambda z: z**sigma * f(shift * z), T, params=P, growth=3.0)
    LfqT = q_laplace(f, CoveringPoint(P.q**j * T.r, T.theta), params=P, growth=2.0)
    rhs = P.q ** be(sigma, P.k) * (T.r * np.exp(1j * T.theta)) ** sigma * LfqT
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)
    # closed form for this fixture: both sides are 8 T^3
    want = 8.0 * (T.r * np.exp(1j * T.theta)) ** 3
    assert abs(lhs - want) <= 1e-6 * abs(want)


def test_q_laplace_stall_on_kink():
    # kinks in the log-radius coordinate keep the trapezoid at low order, so
    # node-doubling agreement cannot reach 1e-9 within two refinements
    P = QParams(q=2.0, k=1)
    with pytest.raises(QuadratureStall):
        q_laplace(
            lambda u: np.abs(np.sin(3.0 * np.log(np.abs(u)))) + 1.0,
            CoveringPoint(0.1, 0.0),
            quad=RayQuadrature(0.0, 1.0 / 3.0, -24, 15),
            params=P,
        )


# ---------------------------------------------------------------------------
# analytic q-Borel


def test_borel_of_monomial():
    P = QParams(q=2.0, k=1)
    got = q_borel_analytic(lambda x: x.to_complex() ** 2, CoveringPoint(2.0, 0.0), params=P)
    assert abs(got - 2.0) <= 1e-6 * 2.0
    xi2 = CoveringPoint(1.3, -0.6)
    for _, detail, err, _ in checks.borel_monomials(P, [(1, xi2), (3, xi2)]):
        assert err <= 1e-6, detail


def test_borel_inverts_laplace_linear():
    P = QParams(q=2.0, k=1)
    xi = CoveringPoint(1.5, 0.1)
    phi = lambda x: q_laplace(
        lambda u: u, x, params=P,
        quad=ray_window(x, P, growth=1.0, tail=1e-14, step=0.08), check=False,
    )
    got = q_borel_analytic(phi, xi, params=P, step=0.15)
    want = xi.r * np.exp(1j * xi.theta)
    assert abs(got - want) <= 1e-6 * abs(want)


def test_borel_inverts_laplace_cubic():
    P = QParams(q=2.0, k=1)
    pts = [(0.8, 0.1), (1.5, -0.4), (2.5, 0.7), (1.2, 2.0), (0.6, -2.2)]
    for _, detail, err, _ in checks.borel_roundtrip(P, [CoveringPoint(r, th) for r, th in pts]):
        assert err <= 1e-5, detail


def test_borel_univalued_input_univalued_output():
    P = QParams(q=2.0, k=1)
    phi = lambda x: x.to_complex() ** 2
    a = q_borel_analytic(phi, CoveringPoint(2.0, 0.3), params=P)
    b = q_borel_analytic(phi, CoveringPoint(2.0, 0.3 + 2.0 * math.pi), params=P)
    assert abs(a - b) <= 1e-8 * abs(a)


# ---------------------------------------------------------------------------
# deceleration


def _decelerate_in_disc(f, p, h, P, disc):
    """The order-``p`` deceleration of ``f`` at ``h`` with the contour radius
    capped so that ``f`` is read within ``0.7 disc``: the path of
    `_deceleration_rows`, on its window."""
    log_h = [complex(math.log(h.r), h.theta)]
    return complex(_deceleration_contour(f, p, 0, log_h, P, _deceleration_window(p, P), disc)[0])


def test_deceleration_monomials():
    P = QParams(q=2.0, k=1)
    h = CoveringPoint(0.3, 0.0)
    got = _decelerate_in_disc(lambda x: x, 2, h, P, disc=1.0)
    assert abs(got - 0.15) <= 1e-6 * 0.15
    h2 = CoveringPoint(0.5, 0.2)
    want = (2.0 / 64.0) * (h2.r * np.exp(1j * h2.theta)) ** 2
    got = _decelerate_in_disc(lambda x: x**2, 2, h2, P, disc=1.0)
    assert abs(got - want) <= 1e-6 * abs(want)


def _decel_formal(h, P, p, coeff, terms=80):
    tot = 0.0 + 0.0j
    for n in range(1, terms):
        fac = be(n, P.k) - be(p * n, P.k)
        tot += coeff(n) * P.q**fac * h**n
    return tot


def test_deceleration_matches_formal_series():
    # f analytic on |x| < 2; the decelerated values are entire in h
    P = QParams(q=2.0, k=1)
    f = lambda x: x / (1.0 - x / 2.0)
    coeff = lambda n: 2.0 ** (-(n - 1))
    for h in (CoveringPoint(0.5, 0.2), CoveringPoint(3.0, 1.0)):
        got = _decelerate_in_disc(f, 2, h, P, disc=1.9)
        want = _decel_formal(h.r * np.exp(1j * h.theta), P, 2, coeff)
        assert abs(got - want) <= 1e-6 * abs(want)


def test_deceleration_growth_bound_fit():
    # |Df(h)| <= K exp(kappa' log^2(|h|+Delta) + alpha log(|h|+Delta)) with
    # fitted K, alpha; the pinned-quadratic fit must describe the samples
    # within a factor e (the asymptotic regime is far beyond |h| = 100)
    P = QParams(q=2.0, k=1)
    p = 2
    kappa_p = (P.k / (p * p - 1.0)) / (2.0 * P.log_q)
    coeff = lambda n: 2.0 ** (-(n - 1))
    delta = 1.5
    hs = np.array([1.0, 10.0, 100.0])
    vals = np.array([abs(_decel_formal(h, P, p, coeff)) for h in hs])
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
    L = np.log(hs + delta)
    y = np.log(vals) - kappa_p * L**2
    A = np.vstack([np.ones_like(L), L]).T
    (logK, alpha), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.max(np.abs(A @ np.array([logK, alpha]) - y)))
    assert resid <= 1.0
    assert math.exp(logK) <= 1e3 and abs(alpha) <= 10.0


def test_deceleration_guards():
    P = QParams(q=2.0, k=1)
    with pytest.raises(ValidationError):
        deceleration_integral(lambda x: x, 1, CoveringPoint(0.3, 0.0), params=P)
    # the radius rule keeps every argument of f inside its disc, at any |h|
    seen = []

    def f(x):
        seen.append(float(np.max(np.abs(x))))
        return x

    for hr in (0.05, 0.3, 1.0, 3.0):
        h = CoveringPoint(hr, 0.2)
        got = _decelerate_in_disc(f, 2, h, P, disc=0.1)
        want = P.q ** (be(1, P.k) - be(2, P.k)) * h.r * np.exp(1j * h.theta)
        assert abs(got - want) <= 1e-13 * abs(want)
    assert max(seen) < 0.1


# ---------------------------------------------------------------------------
# G_q-sum and the term sums


def _term(ev, t, z, cfg, spec, *, ell=None, expq=True):
    """The value `_term_sum` gives one term of the summed equation, at the
    tail and node count `theorem2_residual` uses; ``expq`` divides by exp_q."""
    ex = _ExpqNodes(spec, cfg) if expq else None
    return _term_sum(ev, t, z, spec, beta_prime=0.5, ell=ell, expq=ex, mult=None,
                     tail=transforms._T2_TAIL, node_factor=transforms._T2_NODE_FACTOR)[0]


def test_gq_sum_separable_monomial(fx_forcing):
    spec, cfg = fx_forcing
    P, space = spec.params, spec.space
    g = gaussian_profile(space, 1.0).values
    ev = SeparableOmega(lambda u: u, g)
    t = CoveringPoint(0.11, 0.2)
    z = 0.3 + 0.1j
    got = gq_sum(ev, t, z, cfg, spec, beta_prime=0.5)
    want = t.r * np.exp(1j * t.theta) * inverse_fourier_eval(FourierFn(space, g), z, 0.5)
    assert abs(got - want) <= 1e-6 * abs(want)


def test_gq_sum_zero_evaluator(fx_forcing):
    spec, cfg = fx_forcing
    g = np.zeros(spec.space.size)
    ev = SeparableOmega(lambda u: 0.0 * u, g)
    got = gq_sum(ev, CoveringPoint(0.1, 0.0), 0.2, cfg, spec, beta_prime=0.5)
    assert abs(got) <= 1e-14


def test_gq_sum_deterministic(fx_forcing):
    spec, cfg = fx_forcing
    g = gaussian_profile(spec.space, 1.0).values
    ev = SeparableOmega(lambda u: u / (1.0 + u), g)
    t = CoveringPoint(0.09, -0.3)
    a = gq_sum(ev, t, 0.1 + 0.2j, cfg, spec, beta_prime=0.5)
    b = gq_sum(ev, t, 0.1 + 0.2j, cfg, spec, beta_prime=0.5)
    assert a == b


def test_partial_sum_gevrey_rate():
    # error of the N-term partial sum grows like q^{N^2/(2k)}; the fitted
    # quadratic coefficient in N must match log(q)/(2k) within 15 percent
    spec = build_spec(terms="none", forcing="none", q=2.0, k=2)
    cfg = select_sector(spec, 0.0)
    P, space = spec.params, spec.space
    g = gaussian_profile(space, 1.0).values
    ev = SeparableOmega(lambda u: u / (1.0 + u), g)
    z = 0.2 + 0.1j
    ginv = inverse_fourier_eval(FourierFn(space, g), z, 0.5)
    u_n = [(-1.0) ** (n - 1) * P.q ** be(n, P.k) * ginv for n in range(1, 8)]
    pts = [CoveringPoint(tr, 0.04) for tr in (0.0625, 0.03125)]
    for _, detail, dev, _ in checks.gevrey_rate(ev, u_n, z, pts, cfg, spec, beta_prime=0.5):
        assert dev <= 0.15, detail


def test_expq_inverse_cancellation(fx_forcing):
    spec, cfg = fx_forcing
    P, space = spec.params, spec.space
    g = gaussian_profile(space, 1.0).values
    at = cfg.alpha_tilde_D

    def radial(u):
        return exp_q(at * u**spec.d_D, P) * u

    ev = SeparableOmega(radial, g)
    t = CoveringPoint(0.1, 0.15)
    z = 0.25 - 0.1j
    got = _term(ev, t, z, cfg, spec)
    want = t.r * np.exp(1j * t.theta) * inverse_fourier_eval(FourierFn(space, g), z, 0.5)
    assert abs(got - want) <= 1e-6 * abs(want)


def test_expq_inverse_zero(fx_forcing):
    spec, cfg = fx_forcing
    ev = SeparableOmega(lambda u: 0.0 * u, np.zeros(spec.space.size))
    got = _term(ev, CoveringPoint(0.1, 0.0), 0.1, cfg, spec)
    assert abs(got) <= 1e-14


def test_expq_inverse_consistency(fx_forcing):
    spec, cfg = fx_forcing
    P, space = spec.params, spec.space
    g = gaussian_profile(space, 1.0).values
    at = cfg.alpha_tilde_D
    ev = SeparableOmega(lambda u: u + 0.3 * u**2, g)
    ev_div = SeparableOmega(lambda u: (u + 0.3 * u**2) / exp_q(at * u**spec.d_D, P), g)
    t = CoveringPoint(0.08, -0.2)
    z = 0.1 + 0.05j
    a = _term(ev, t, z, cfg, spec)
    b = _term(ev_div, t, z, cfg, spec, expq=False)
    assert abs(a - b) <= 1e-8 * abs(a)


def test_expq_zero_node_raises(fx_forcing):
    # a ray through a q-exponential zero is a corrupted configuration; the
    # guard must refuse rather than divide
    spec, cfg = fx_forcing
    P = spec.params
    root = -P.q / (P.q - 1.0)  # the first zero -q^(m+1)/(q-1), m = 0
    s_star = math.log(-root / cfg.alpha_tilde_D)
    # a window with s_star as its middle node
    h = abs(s_star) / 8.0
    j = round(s_star / h)
    qd = RayQuadrature(math.pi, h, j - 4, j + 4)
    g = gaussian_profile(spec.space, 1.0).values
    ev = SeparableOmega(lambda u: u, g)
    with pytest.raises(ZeroDivision):
        _profile(ev, CoveringPoint(0.05, math.pi), spec, qd, expq=_ExpqNodes(spec, cfg))


def test_g_ellk_zero(fx_full):
    spec, cfg, _ = fx_full
    ell = spec.terms[1]
    ev = SeparableOmega(lambda u: 0.0 * u, np.zeros(spec.space.size))
    got = _term(ev, CoveringPoint(0.08, 0.1), 0.1, cfg, spec, ell=ell)
    assert abs(got) <= 1e-14


@pytest.mark.parametrize("index", [0, 1], ids=["shift", "mahler"])
def test_g_ellk_monomial_oracle(fx_full, index):
    # on u^n the inner contour is exactly the formal deceleration factor, so
    # the triple integral collapses to the inverse-insertion sum of a single
    # higher monomial with the coupled profile; for the shift coupling
    # (l2 = 1) that factor is 1
    spec, cfg, _ = fx_full
    P, space = spec.params, spec.space
    ell = spec.terms[index]
    g = gaussian_profile(space, 1.0).values
    coupled = INV_SQRT_2PI * convolve_values(space, ell.band, ell.symbol * g)
    t = CoveringPoint(0.08, 0.1)
    z = 0.15 + 0.05j
    c = ell.l1 - ell.l0 / P.k
    for n in (1, 2):
        M = ell.l0 + n
        fac = (
            P.q ** (c * n)
            / P.q ** be(ell.l0, P.k)
            * P.q ** (be(M, P.k) - be(ell.l2 * M, P.k))
        )
        lhs = _term(SeparableOmega(lambda u, n=n: u**n, g), t, z, cfg, spec, ell=ell)
        rhs = _term(
            SeparableOmega(lambda u, f=fac, m=M: f * u ** (ell.l2 * m), coupled),
            t, z, cfg, spec,
        )
        assert abs(lhs - rhs) <= 1e-5 * abs(rhs)


@pytest.mark.parametrize("n", [1, 2])
def test_g_ellk_polynomial_matches_callable(fx_full, n):
    # the polynomial evaluator takes the closed-form bracket, the callable
    # the deceleration contour
    spec, cfg, _ = fx_full
    P, space = spec.params, spec.space
    ell = spec.terms[1]
    g = gaussian_profile(space, 1.0).values
    t = CoveringPoint(0.08, 0.1)
    z = 0.15 + 0.05j
    closed = _term(PolynomialOmega([n], [g]), t, z, cfg, spec, ell=ell)
    contour = _term(SeparableOmega(lambda u: u**n, g), t, z, cfg, spec, ell=ell)
    assert abs(closed - contour) <= 1e-10 * abs(contour)


def test_g_ellk_linearity(fx_full):
    spec, cfg, _ = fx_full
    P, space = spec.params, spec.space
    ell = spec.terms[1]
    g = gaussian_profile(space, 1.0).values
    t = CoveringPoint(0.08, -0.15)
    z = 0.2
    a, b = 0.7, -1.3
    ev1 = SeparableOmega(lambda u: u, g)
    ev2 = SeparableOmega(lambda u: u**2, g)
    ev12 = SeparableOmega(lambda u: a * u + b * u**2, g)
    v1, v2, v12 = (_term(ev, t, z, cfg, spec, ell=ell) for ev in (ev1, ev2, ev12))
    scale = max(abs(v12), 1e-300)
    assert abs(v12 - (a * v1 + b * v2)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# continued evaluator


def test_continued_matches_series_inside(fx_full):
    spec, cfg, sol = fx_full
    om = ContinuedOmega(sol, spec, cfg)
    u = CoveringPoint(0.5 * om.r0, 0.4)
    direct = om.values(u)
    # Horner on the raw coefficients
    acc = np.zeros(spec.space.size, dtype=complex)
    uc = u.to_complex()
    for row in sol.omega.coeffs[::-1]:
        acc = acc * uc + row
    acc = acc * uc
    assert np.max(np.abs(direct - acc)) <= 1e-13 * max(np.max(np.abs(acc)), 1e-300)


def test_continued_formal_and_contour_brackets_agree(fx_full):
    # both realisations of the decelerated bracket are the same polynomial;
    # inside the conditioned window they must agree to near machine precision
    spec, cfg, sol = fx_full
    om = ContinuedOmega(sol, spec, cfg)
    ell = spec.terms[1]
    for r in (0.9, 1.5, 2.0, 2.5):
        u = CoveringPoint(r, 0.17)
        s = np.array([math.log(u.r)])
        via_contour = _term_rows(checks.ContourBracket(om), s, u.theta, spec, ell)[0]
        formal = _term_rows(om, s, u.theta, spec, ell)[0]
        scale = float(np.max(np.abs(formal)))
        assert np.max(np.abs(via_contour - formal)) <= 1e-12 * scale


def test_ladder_runs_no_contour(fx_full, monkeypatch):
    # every ladder Mahler row is the closed-form bracket: with the contour
    # kernel disabled the sum is unchanged
    spec, cfg, sol = fx_full
    t = CoveringPoint(cfg.R / 4.0, 0.1)
    want = gq_sum(ContinuedOmega(sol, spec, cfg), t, 0.2 + 0.1j, cfg, spec, beta_prime=0.5)

    def no_contour(*args, **kwargs):
        raise AssertionError("the deceleration contour ran")

    monkeypatch.setattr(transforms, "recip_kernel_log", no_contour)
    got = gq_sum(ContinuedOmega(sol, spec, cfg), t, 0.2 + 0.1j, cfg, spec, beta_prime=0.5)
    assert got == want


@pytest.mark.parametrize("t_frac, theta", [(1 / 8, 0.1), (1 / 4, -0.2), (0.4, 0.25)])
def test_mahler_rows_closed_form_match_contour(fx_full, t_frac, theta):
    # the rows theorem2_residual integrates for the Mahler coupling, closed
    # form against the contour, over the window it probes.  Errors are
    # weighted as the ray integral weights them: at the deep end of the
    # window the contour radius is capped below the kernel saddle and the
    # contour itself loses digits (per row up to 1.8e-12, 3.2e-12 and 1.8e-11
    # of the row's peak at |t| = R/8, R/4 and 0.4 R, against 1.1e-14 in the
    # median row; 2.2e-9 in single entries) where the weight is negligible
    spec, cfg, sol = fx_full
    om = ContinuedOmega(sol, spec, cfg)
    ell = spec.terms[1]
    t = CoveringPoint(t_frac * cfg.R, theta)
    quad = _auto_quad(om, t, spec, ell=ell, expq=_ExpqNodes(spec, cfg), tail=1e-10)
    s = quad.s_grid()
    closed = _term_rows(om, s, quad.theta_d, spec, ell)
    contour = _term_rows(checks.ContourBracket(om), s, quad.theta_d, spec, ell)
    u = np.exp(s + 1j * quad.theta_d)
    weight = np.abs(
        theta_kernel_log((math.log(t.r) - s) + 1j * (t.theta - quad.theta_d), spec.params)
        / _expq_row(u, spec, cfg)
    )[:, None]
    err = np.max(weight * np.abs(closed - contour))
    assert err <= 1e-12 * np.max(weight * np.abs(contour))


def test_bracket_overflow_carries_witness(fx_full):
    spec, cfg, sol = fx_full
    om = ContinuedOmega(sol, spec, cfg)
    ell = spec.terms[1]
    log_h = ell.l2 * (np.array([0.0, 40.0, 20.0]) + 0.1j)
    with pytest.raises(DomainTooLarge) as exc:
        decelerated_bracket(*om.polynomial(), ell, log_h, spec.params)
    assert exc.value.witness["log_h"] == log_h[1]
    assert exc.value.witness["peak_log_magnitude"] > 700.0


def test_ladder_rung_cap_carries_witness(fx_full, monkeypatch):
    # 4R walks down by the shift factor 1/2: rungs at 4R, 2R, then R
    spec, cfg, sol = fx_full
    monkeypatch.setattr(transforms, "_MAX_RUNGS", 2)
    om = ContinuedOmega(sol, spec, cfg)
    with pytest.raises(DomainTooLarge) as exc:
        om.values(CoveringPoint(4.0 * cfg.R, 0.1))
    assert exc.value.witness["rungs"] == 3
    assert exc.value.witness["point"] == pytest.approx((cfg.R, 0.1))


@pytest.mark.parametrize("max_rungs, witness_r, shape", [
    pytest.param(1, 2.0, "full", id="1-2.0"), pytest.param(2, 1.0, "full", id="2-1.0"),
    pytest.param(4, 0.25, "full", id="4-0.25"), pytest.param(5, None, "full", id="5-None"),
    pytest.param(0, 4.0, "two shifts", id="two shifts-0-4.0"),
    pytest.param(1, 1.0, "two shifts", id="two shifts-1-1.0"),
    pytest.param(4, None, "two shifts", id="two shifts-4-None"),
    pytest.param(1, 2.0**1.5, "k2", id="k2-1-2.83"), pytest.param(4, 1.0, "k2", id="k2-4-1.0"),
    pytest.param(8, 0.25, "k2", id="k2-8-0.25"), pytest.param(9, None, "k2", id="k2-9-None"),
])
def test_ladder_rung_cap_is_checked_before_any_wave(fx_full, request, monkeypatch, max_rungs,
                                                    witness_r, shape):
    # 4R walks down by 1/2 through 2R, R, R/2 and R/4; R/8 is inside r0.
    # The witness is the rung where that walk crosses the cap, and a
    # refused request keeps no rung.  With two shift couplings (1/4 and
    # 1/8) the rungs are 4R, R, R/2 and R/4; at k = 2 the ladder walks down
    # by 2^(-1/2) through 9 rungs
    spec, cfg, sol = fx_full
    if shape != "full":
        spec, cfg, sol = request.getfixturevalue("fx_ladder_shapes")[shape]
    monkeypatch.setattr(transforms, "_MAX_RUNGS", max_rungs)
    om = ContinuedOmega(sol, spec, cfg)
    u = CoveringPoint(4.0 * cfg.R, 0.1)
    assert cfg.R / 8.0 < om.r0 < cfg.R / 4.0
    if witness_r is None:
        om.values(u)
        assert om._rungs == max_rungs
        return
    with pytest.raises(DomainTooLarge) as exc:
        om.values(u)
    assert exc.value.witness["rungs"] == max_rungs + 1
    assert exc.value.witness["point"] == pytest.approx((witness_r * cfg.R, 0.1))
    assert om._memo == {} and om._rungs == 0


def test_continued_refuses_shift_factor_not_below_one(fx_full):
    # c = q^(l1 - l0/k) = 1: the shift ladder would never reach the disc
    spec, cfg, sol = fx_full
    term = MahlerTerm(l0=1, l1=1, l2=1, R=[1.0], A=spec.terms[0].A)
    with pytest.raises(ValidationError, match=r"term\[0\]"):
        ContinuedOmega(sol, dataclasses.replace(spec, terms=(term,)), cfg)


def test_one_band_per_coupling_term(monkeypatch):
    # every realisation of a coupling term (Picard sweep, formal residual,
    # continuation rung, summed equation) convolves with the band its
    # MahlerTerm built when the problem was loaded
    builds = []
    build = fourier.kernel_band

    def counting(space, h):
        builds.append(len(h))
        return build(space, h)

    monkeypatch.setattr(fourier, "kernel_band", counting)
    monkeypatch.setattr(geometry, "kernel_band", counting)
    _, spec, _ = load_problem("basic.json")
    assert len(builds) == len(spec.terms)
    cfg = select_sector(spec, 0.0)
    sol = solve_fixed_point(spec, cfg, 12)
    main_equation_residual(assemble_U_hat(sol, spec.params), spec, cfg)
    pts = [(CoveringPoint(0.8 * cfg.R, th), 0.3 + 0.1j) for th in (0.1, -0.2)]
    om = ContinuedOmega(sol, spec, cfg)
    theorem2_residual(sol, spec, cfg, pts, beta_prime=0.5, omega=om)
    assert om._rungs > 0
    assert len(builds) == len(spec.terms)


def test_continued_memoises_on_lattice(fx_full):
    spec, cfg, sol = fx_full
    om = ContinuedOmega(sol, spec, cfg)
    u = CoveringPoint(math.exp(s_lattice(spec.params) * 6), 0.1)
    om.values(u)
    used = om._rungs
    om.values(u)
    assert om._rungs == used


def test_no_run_without_a_shift_coupling(fx_forcing):
    # no rung reads another without a shift coupling, so a deep request
    # fills its own rung alone, not a half-lattice run down from it to r0
    spec, cfg = fx_forcing
    om = ContinuedOmega(solve_fixed_point(spec, cfg, 12), spec, cfg)
    h = s_lattice(spec.params) / 4.0
    j = 2 * math.ceil(math.log(om.r0) / (2 * h)) + 20
    om.ray_values(np.array([math.exp(j * h)]), 0.1)
    assert om._drops == [] and om._rungs == om._waves == 1


def test_rung_bits_do_not_depend_on_request_order(fx_full):
    # a probe's accumulated s += h and a window's linspace name the same
    # lattice rungs by radii some last bits apart; a rung is computed at the
    # radius its key names, so either order leaves bit-identical rows
    spec, cfg, sol = fx_full
    h = s_lattice(spec.params)
    j0 = math.ceil(math.log(cfg.R / 2.0) / h)
    s, probe = j0 * h, []
    for _ in range(16):
        probe.append(s)
        s += h
    window = np.linspace(j0 * h, (j0 + 15) * h, 16)
    assert not np.array_equal(np.exp(probe), np.exp(window))
    memos = []
    for order in ((probe, window), (window, probe)):
        om = ContinuedOmega(sol, spec, cfg)
        for nodes in order:
            om.ray_values(np.exp(nodes), 0.1)
        memos.append(om._memo)
    assert memos[0].keys() == memos[1].keys() and len(memos[0]) > 16
    assert all(np.array_equal(memos[0][k], memos[1][k]) for k in memos[0])


def test_rung_names_do_not_collide(fx_full):
    # an off-lattice radius is named by its own log radius and a lattice node
    # by its index: log r = 3.0 against j = 3, one float key 3.0 if keyed
    # naively, are two ladders.  Two floats of one lattice node are one rung,
    # computed at the radius exp(j h) its name gives
    spec, cfg, sol = fx_full
    h = s_lattice(spec.params) / 4.0
    node = math.exp(3 * h)
    radii = np.array([math.exp(3.0), node * (1.0 + 1e-12), node])
    om = ContinuedOmega(sol, spec, cfg)
    assert node > om.r0 and abs(3.0 / h - round(3.0 / h)) > 0.01
    got = om.ray_values(radii, 0.1)
    fresh = [ContinuedOmega(sol, spec, cfg) for _ in radii]
    want = np.array([f.values(CoveringPoint(r, 0.1)) for f, r in zip(fresh, radii.tolist())])
    assert np.array_equal(got, want)
    assert np.array_equal(got[1], got[2]) and not np.array_equal(got[0], got[2])
    assert om._rungs == fresh[0]._rungs + fresh[2]._rungs and fresh[1]._rungs == fresh[2]._rungs


@pytest.mark.parametrize("unit, rungs, waves", [(0, 552, 110), (1, 554, 110), (2, 550, 110)])
def test_ladders_are_half_lattice_runs(monkeypatch, unit, rungs, waves):
    # a seeded sum batch on basic.json (8 t by 4 z, as the benchmark's
    # sum-g601 draws them) leaves, per ray, the even j from r0 to the top
    # rung: the rungs the walk down each request's ladder makes, no more.
    # A request fills the missing top of its run in ascending waves of
    # min d / 2 rungs, all but the top one full
    workloads = benchmark_workloads()
    _, spec, _ = load_problem("basic.json")
    cfg = select_sector(spec, 0.0)
    om = ContinuedOmega(solve_fixed_point(spec, cfg, workloads.SUM_ORDER), spec, cfg)
    asked, filled = [], []
    climb = ContinuedOmega._climb

    def logged(self, names, theta):
        before = self._rungs, self._waves
        climb(self, names, theta)
        asked.extend(names)
        filled.append((self._rungs - before[0], self._waves - before[1]))

    monkeypatch.setattr(ContinuedOmega, "_climb", logged)
    for t_r, t_theta, z_re, z_im in workloads.sum_points(1, unit, cfg.R):
        gq_sum(om, CoveringPoint(t_r, t_theta), complex(z_re, z_im), cfg, spec,
               beta_prime=0.5 * spec.space.beta, tail=workloads.SUM_TAIL,
               eps_rel=workloads.SUM_EPS_REL)
    h, log_r0 = om._key_step, om._log_r0
    walk, level = set(), set(asked)
    while level := {n for n in level if n[1] + n[2] * h > log_r0} - walk:
        walk |= level
        level = {(t, b, j - d) for t, b, j in level for d in om._drops}
    assert set(om._memo) == walk and om._rungs == rungs and om._waves == waves
    for theta in {t for t, _, _ in walk}:
        js = sorted(j for t, b, j in walk if t == theta and b == 0.0)
        assert len(js) == len([n for n in walk if n[0] == theta])
        assert js == list(range(js[0], js[-1] + 1, 2)) and (js[0] - 2) * h <= log_r0 < js[0] * h
    per_wave = min(om._drops) // 2
    assert per_wave == 6 and all(w == -(-r // per_wave) for r, w in filled)


def test_continued_batch_outside_disc_raises(fx_full):
    spec, cfg, sol = fx_full
    om = ContinuedOmega(sol, spec, cfg)
    with pytest.raises(DomainViolation):
        om.values_batch(np.array([om.r0 * 3.0 + 0.0j]))


def _mixed_request(om, start=0, count=14):
    """Radii inside ``r0``, on ``count`` lattice nodes from ``start`` nodes
    beyond it, on the refined half-lattice, with duplicates, in shuffled
    order."""
    h = s_lattice(om.params)
    j0 = math.ceil(math.log(om.r0) / h) + start
    radii = [0.3 * om.r0, 0.9 * om.r0]
    radii += [math.exp(j * h) for j in range(j0, j0 + count)]
    radii += [math.exp((j + 0.5) * h) for j in range(j0, j0 + count, 3)]
    radii += radii[3:9]
    return np.random.default_rng(0).permutation(radii)


@pytest.fixture(scope="module")
def fx_basic_g2001(tmp_path_factory):
    """``basic.json`` on the library's default grid (G = 2001), order 12."""
    raw = json.loads(resolve_input("basic.json").read_text())
    raw["space"] = {"beta": raw["space"]["beta"], "mu": raw["space"]["mu"]}
    path = tmp_path_factory.mktemp("g2001") / "basic.json"
    path.write_text(json.dumps(raw))
    _, spec, _ = load_problem(str(path))
    cfg = select_sector(spec, 0.0)
    return spec, cfg, solve_fixed_point(spec, cfg, 12)


@pytest.fixture(scope="module")
def fx_basic_orders():
    """``basic.json`` as shipped (G = 601), solved at orders 16 and 24."""
    _, spec, _ = load_problem("basic.json")
    cfg = select_sector(spec, 0.0)
    return {n: (spec, cfg, solve_fixed_point(spec, cfg, n)) for n in (16, 24)}


@pytest.mark.parametrize(
    "kind", ["continued", "contour", "separable", "polynomial", "continued g2001",
             "continued n16", "continued n24", "continued two shifts", "continued k2",
             "continued run"])
def test_ray_values_match_one_node_requests(fx_full, request, kind):
    # one request equals, bit for bit, the same nodes asked one at a time of
    # a fresh evaluator, and fills the same ladder; at G = 2001 the request
    # brackets more rungs at once than one `_contract` chunk holds, and at
    # orders 16 and 24 the series and its bracket sum more powers than one
    # `_power_sum` piece.  The basic.json cases ask for deep rungs, where
    # the Mahler rows weigh enough to show their last bits.  The run case
    # asks for a few deep nodes, so one request fills a long half-lattice
    # run in full waves that the one-node requests fill in other segments
    spec, cfg, sol = fx_full
    depth = {}
    if kind == "continued run":
        depth = {"start": 16, "count": 2}
    elif kind == "continued g2001":
        spec, cfg, sol = request.getfixturevalue("fx_basic_g2001")
        depth = {"start": 24, "count": 30}
    elif kind in ("continued n16", "continued n24"):
        spec, cfg, sol = request.getfixturevalue("fx_basic_orders")[int(kind[-2:])]
        depth = {"start": 10, "count": 30}
    elif kind in ("continued two shifts", "continued k2"):
        spec, cfg, sol = request.getfixturevalue("fx_ladder_shapes")[kind[10:]]
        depth = {"start": 4, "count": 20}
    g = gaussian_profile(spec.space, 1.0).values
    make = {
        "contour": lambda: checks.ContourBracket(ContinuedOmega(sol, spec, cfg)),
        "separable": lambda: SeparableOmega(lambda u: u / (1.0 + u), g),
        "polynomial": lambda: PolynomialOmega([1, 3], [g, 0.5 * g]),
    }.get(kind, lambda: ContinuedOmega(sol, spec, cfg))
    ev, fresh = make(), make()
    radii = _mixed_request(ContinuedOmega(sol, spec, cfg), **depth)
    got = ev.ray_values(radii, 0.1)
    if kind.startswith("continued"):
        want = np.array([fresh.values(CoveringPoint(r, 0.1)) for r in radii.tolist()])
        assert ev._rungs == fresh._rungs > (10 if depth else 0)
        if kind == "continued run":
            assert ev._waves == -(-ev._rungs // (min(ev._drops) // 2)) < fresh._waves
    else:
        want = np.array([fresh.ray_values(np.array([r]), 0.1)[0] for r in radii.tolist()])
    assert got.shape == (radii.size, spec.space.size)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", [12, 16, 24, 32])
def test_bracket_rows_do_not_depend_on_the_batch(order):
    # the rows of a 12-node bracket equal, bit for bit, its nodes bracketed
    # one at a time: a `_contract` over 16 or more powers would not
    _, spec, _ = load_problem("basic.json")
    term = spec.terms[1]
    assert term.l2 >= 2
    rng = np.random.default_rng(order)
    shape = (order, spec.space.size)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    powers = range(1, order + 1)
    log_h = term.l2 * (np.linspace(-4.0, 1.0, 12) + 0.1j)
    batch = decelerated_bracket(powers, rows, term, log_h, spec.params)
    for got, lh in zip(batch, log_h):
        assert np.array_equal(got, decelerated_bracket(powers, rows, term, lh, spec.params))


def _bracket_then_convolve(om, radii, theta):
    """The continued equation's right-hand side with every coupling row
    bracketed first and convolved after, as the ray integrand does."""
    spec = om.spec
    s, uc = np.log(radii), radii * np.exp(1j * theta)
    acc = sum(fc.F.values * uc[:, None] ** fc.j for fc in spec.forcing)
    for term in spec.terms:
        rows = _term_rows(om, s, theta, spec, term)
        acc = acc + INV_SQRT_2PI * convolve_values(spec.space, term.band, term.symbol * rows)
    return acc / geometry.eval_Pm(uc[:, None], spec.space.m, spec)


@pytest.mark.parametrize("terms", ["basic", "mahler only"])
def test_ladder_convolves_mahler_rows_first(terms):
    # the wave takes the Mahler coupling as the bracket of convolved series
    # rows; the bracket is linear in its rows, so that is the bracket of
    # the series convolved.  Mahler only, all 40 rungs fall in one wave
    _, spec, _ = load_problem("basic.json")
    if terms == "mahler only":
        spec = dataclasses.replace(spec, terms=(spec.terms[1],))
    assert spec.terms[-1].l2 >= 2
    cfg = select_sector(spec, 0.0)
    om = ContinuedOmega(solve_fixed_point(spec, cfg, 12), spec, cfg)
    h = s_lattice(spec.params)
    j0 = math.ceil(math.log(om.r0) / h) + 1
    # the radii the rungs' keys name
    radii = np.array([math.exp(j * h) for j in range(j0, j0 + 40)])
    rungs = om.ray_values(radii, 0.1)
    got = om.rhs_at(radii, 0.1)
    want = _bracket_then_convolve(om, radii, 0.1)
    w = spec.space.decay_weight()
    assert np.array_equal(got, rungs)
    for g, r in zip(got, want):
        assert np.max(w * np.abs(g - r)) <= 1e-14 * np.max(w * np.abs(r))


def _count(monkeypatch, name):
    calls = []
    fn = getattr(transforms, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(transforms, name, counting)
    return calls


def test_gq_sum_reuses_the_profile_across_z(fx_full, monkeypatch):
    # the window and the level profiles at one t do not depend on z: on one
    # continuation, calls 2-4 run no probe and no profile, and every value
    # equals that of a fresh continuation
    spec, cfg, sol = fx_full
    t = CoveringPoint(cfg.R / 4.0, 0.1)
    zs = [0.2 + 0.1j, -0.4, 0.7 - 0.2j, 0.1 + 0.3j]
    want = [gq_sum(ContinuedOmega(sol, spec, cfg), t, z, cfg, spec, beta_prime=0.5)
            for z in zs]
    om = ContinuedOmega(sol, spec, cfg)
    got = [gq_sum(om, t, zs[0], cfg, spec, beta_prime=0.5)]
    probes, profiles = _count(monkeypatch, "_auto_quad"), _count(monkeypatch, "_profile")
    got += [gq_sum(om, t, z, cfg, spec, beta_prime=0.5) for z in zs[1:]]
    assert got == want
    assert probes == [] and profiles == []


@pytest.mark.parametrize("change", ["t", "tail"])
def test_gq_sum_recomputes_when_the_sum_changes(fx_full, monkeypatch, change):
    spec, cfg, sol = fx_full
    t = CoveringPoint(cfg.R / 4.0, 0.1)
    first = {"t": t, "beta_prime": 0.5}
    other = {
        "t": {"t": CoveringPoint(cfg.R / 5.0, 0.1)},
        "tail": {"tail": 1e-10},
    }[change]
    # the oracle is a fresh continuation; one sum is kept, so going back to
    # the first recomputes too
    om = ContinuedOmega(sol, spec, cfg)
    for call in [first, {**first, **other}, first]:
        kw = dict(call)
        point = kw.pop("t")
        want = gq_sum(ContinuedOmega(sol, spec, cfg), point, 0.2, cfg, spec, **kw)
        profiles = _count(monkeypatch, "_profile")
        assert gq_sum(om, point, 0.2, cfg, spec, **kw) == want
        assert profiles
        monkeypatch.undo()


# t as fractions of R and directions, z: four t on one direction, whose
# ladders collide, and two on another
_POINTS = [(0.05, 0.1, 0.2 + 0.1j), (0.15, 0.1, -0.4), (0.3, 0.1, 0.2 + 0.1j),
           (0.45, 0.1, 0.7 - 0.2j), (0.2, -0.2, 0.1), (0.35, -0.2, -0.3 + 0.1j)]


def _sums(om, cfg, spec, order):
    """`gq_sum` at ``_POINTS`` in ``order`` on ``om``, keyed by index."""
    return {i: gq_sum(om, CoveringPoint(_POINTS[i][0] * cfg.R, _POINTS[i][1]), _POINTS[i][2],
                      cfg, spec, beta_prime=0.5) for i in order}


@pytest.fixture(scope="module")
def fx_point_sums(fx_full):
    spec, cfg, sol = fx_full
    return _sums(ContinuedOmega(sol, spec, cfg), cfg, spec, range(len(_POINTS)))


@settings(max_examples=8, deadline=None)
@given(order=st.permutations(range(len(_POINTS))))
def test_gq_sum_does_not_depend_on_point_order(fx_full, fx_point_sums, order):
    # a summed value is a function of its point: any order of the points on
    # one continuation gives each the same bits
    spec, cfg, sol = fx_full
    assert _sums(ContinuedOmega(sol, spec, cfg), cfg, spec, order) == fx_point_sums


def test_warm_and_fresh_continuations_sum_the_same_bits(fx_full):
    # a ladder that other points filled gives a point the bits of a fresh one
    spec, cfg, sol = fx_full
    warm = ContinuedOmega(sol, spec, cfg)
    _sums(warm, cfg, spec, [3, 5, 1])
    for i in (0, 2, 4):
        want = _sums(ContinuedOmega(sol, spec, cfg), cfg, spec, [i])
        assert _sums(warm, cfg, spec, [i]) == want


def test_contour_bracket_never_sees_the_continuation_profiles(fx_full, monkeypatch):
    # a sum on the bracket keeps nothing, and leaves the sum kept on the
    # continuation it wraps as it was
    spec, cfg, sol = fx_full
    t = CoveringPoint(cfg.R / 4.0, 0.1)
    want = gq_sum(checks.ContourBracket(ContinuedOmega(sol, spec, cfg)), t, 0.2, cfg, spec,
                  beta_prime=0.5)
    om = ContinuedOmega(sol, spec, cfg)
    gq_sum(om, t, 0.2, cfg, spec, beta_prime=0.5)
    kept = list(om._last_sum)
    profiles = _count(monkeypatch, "_profile")
    assert gq_sum(checks.ContourBracket(om), t, 0.2, cfg, spec, beta_prime=0.5) == want
    assert profiles and all(a is b for a, b in zip(om._last_sum, kept))


def test_gq_sum_domain_error_holds_for_every_z(fx_full, monkeypatch):
    # a refused t keeps nothing, so every z at it is refused alike
    spec, cfg, sol = fx_full
    monkeypatch.setattr(transforms, "_MAX_RUNGS", 5)
    om = ContinuedOmega(sol, spec, cfg)
    t = CoveringPoint(0.4 * cfg.R, 0.1)
    for z in (0.2, -0.3 + 0.1j, 0.5j, 0.9):
        with pytest.raises(DomainTooLarge):
            gq_sum(om, t, z, cfg, spec, beta_prime=0.5)
    assert om._last_sum == [None]


def test_gq_sum_refuses_t_beyond_the_sector_radius(fx_full, monkeypatch):
    # |t| > R is outside the sector: refused before any probe, keeping nothing
    spec, cfg, sol = fx_full
    om = ContinuedOmega(sol, spec, cfg)
    probes = _count(monkeypatch, "_auto_quad")
    with pytest.raises(DomainTooLarge, match="sector radius"):
        gq_sum(om, CoveringPoint(1.5 * cfg.R, 0.1), 0.2, cfg, spec, beta_prime=0.5)
    assert probes == [] and om._rungs == 0 and om._last_sum == [None]


# ---------------------------------------------------------------------------
# ray probe


def _one_node_walk(level, s_seed, h, *, tail):
    """The probe as a walk of one-node requests on the integers ``j`` of the
    nodes ``j h``: the reference the chunked `_probe_ray` must match."""
    stride, j_seed = max(1, round(0.5 / h)), round(s_seed / h)
    peak = level(np.array([j_seed * h]))[0]
    ends = []
    for step in (stride, -stride):
        j = j_seed
        for _ in range(int(40.0 / (stride * h))):
            j += step
            nxt = level(np.array([j * h]))[0]
            peak = max(peak, nxt)
            if nxt < tail * max(peak, 1e-300):
                break
        else:
            raise DomainTooLarge("one-node walk did not decay")
        ends.append(j)
    return ends[1], ends[0]


def _synthetic_level(shape, fail_on=None, error=DomainTooLarge):
    """``level`` of the scalar ``shape(s)``; a request holding a node with
    ``fail_on(s)`` raises ``error``.  Returns it and the list of raises."""
    raised = []

    def level(s):
        if fail_on is not None and any(fail_on(x) for x in s.tolist()):
            raised.append(s.size)
            raise error("synthetic failure")
        return [float(shape(x)) for x in s.tolist()]

    return level, raised


_PROBE_SHAPES = {
    "peak-away-from-seed": lambda s: math.exp(-((s - 3.0) ** 2)),
    "upper-many-chunks": lambda s: math.exp(-0.2 * (s - 6.0) ** 2),
    "lower-decays-at-once": lambda s: math.exp(-((s - 1.0) ** 2)) if s > 0.0 else 0.0,
}


# the lattice step of the error cases: strides of 2 nodes, 0.5 apart
_H = 0.25


@pytest.mark.parametrize("h", [0.17328679513998632])
@pytest.mark.parametrize("shape", list(_PROBE_SHAPES))
def test_probe_ray_matches_one_node_walk(shape, h):
    level, _ = _synthetic_level(_PROBE_SHAPES[shape])
    want = _one_node_walk(level, 0.3, h, tail=1e-10)
    assert transforms._probe_ray(level, 0.3, h, tail=1e-10) == want
    if shape == "upper-many-chunks":
        assert want[1] * h - 0.3 > 0.5 * transforms._PROBE_CHUNK


@pytest.mark.parametrize("error", [DomainTooLarge, ZeroDivision])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_probe_ray_ignores_errors_past_the_stopping_node(side, error):
    # a chunk that raises past the node the scan stops at is asked again one
    # node at a time, which never reaches the failing node
    shape = _PROBE_SHAPES["upper-many-chunks"]
    lo, hi = _one_node_walk(_synthetic_level(shape)[0], 0.3, _H, tail=1e-10)
    fail_on = (lambda s: s > hi * _H + 0.1) if side == "upper" else (lambda s: s < lo * _H - 0.1)
    level, raised = _synthetic_level(shape, fail_on, error)
    assert transforms._probe_ray(level, 0.3, _H, tail=1e-10) == (lo, hi)
    assert raised


@pytest.mark.parametrize("error", [DomainTooLarge, ZeroDivision])
def test_probe_ray_raises_errors_before_the_stopping_node(error):
    shape = _PROBE_SHAPES["upper-many-chunks"]
    level, _ = _synthetic_level(shape, lambda s: 4.0 < s < 4.5, error)
    with pytest.raises(error) as want:
        _one_node_walk(level, 0.3, _H, tail=1e-10)
    with pytest.raises(error) as got:
        transforms._probe_ray(level, 0.3, _H, tail=1e-10)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("side, shape", [
    ("upper", lambda s: 1.0),
    ("lower", lambda s: math.exp(-s)),
])
def test_probe_ray_undecayed_side_carries_witness(side, shape):
    level, _ = _synthetic_level(shape)
    with pytest.raises(DomainTooLarge):
        _one_node_walk(level, 0.3, _H, tail=1e-10)
    with pytest.raises(DomainTooLarge, match="after 40 units") as exc:
        transforms._probe_ray(level, 0.3, _H, tail=1e-10)
    # 80 strides of 2 nodes from the seed's node j = 1
    s = (1 + (160 if side == "upper" else -160)) * _H
    assert exc.value.witness == {"side": side, "s": s, "level": shape(s), "peak": shape(s)}


def _reference_probe(monkeypatch):
    """Swap `_probe_ray` for the one-node walk; returns the count of the
    nodes it asks for."""
    nodes = []

    def walk(level, s_seed, h, *, tail):
        def one(s):
            nodes.append(s.size)
            return level(s)

        return _one_node_walk(one, s_seed, h, tail=tail)

    monkeypatch.setattr(transforms, "_probe_ray", walk)
    return nodes


def _theorem2_windows(sol, spec, cfg, t):
    """theorem2_residual at ``t``: its row, and per job the probed window
    and the continuation's rung count after that job's term sum."""
    om = ContinuedOmega(sol, spec, cfg)
    log = []
    auto_quad, term_sum = transforms._auto_quad, transforms._term_sum

    def probed(*args, **kwargs):
        log.append(auto_quad(*args, **kwargs))
        return log[-1]

    def summed(*args, **kwargs):
        out = term_sum(*args, **kwargs)
        log.append(om._rungs)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_auto_quad", probed)
        mp.setattr(transforms, "_term_sum", summed)
        rep = theorem2_residual(sol, spec, cfg, [(t, 0.2 + 0.1j)], beta_prime=0.5, omega=om)
    return rep.rows[0], log


@pytest.mark.parametrize("t_frac, theta", [(0.25, 0.1), (0.5, -0.2), (0.8, 0.3)])
def test_chunked_probe_keeps_theorem2_windows_and_rungs(fx_full, monkeypatch, t_frac, theta):
    # every job (lhs, dominant, both couplings, forcing) probes the same
    # window and leaves the same ladder as the one-node walk, and the row is
    # bit-identical: the rungs a chunk reaches past the stopping node change
    # no other rung's bits
    spec, cfg, sol = fx_full
    t = CoveringPoint(t_frac * cfg.R, theta)
    got, got_log = _theorem2_windows(sol, spec, cfg, t)
    _reference_probe(monkeypatch)
    want, want_log = _theorem2_windows(sol, spec, cfg, t)
    assert len(got_log) == 2 * (3 + len(spec.terms))
    assert got_log == want_log
    assert got == want


def test_probe_requests_a_chunk_per_call(fx_full, monkeypatch):
    # one `_integrand` request per chunk of 4 nodes: the two sides round up
    # separately, so at most one request above a quarter of the walk's nodes
    spec, cfg, sol = fx_full
    t = CoveringPoint(0.5 * cfg.R, 0.1)
    calls = _count(monkeypatch, "_integrand")
    got = _auto_quad(ContinuedOmega(sol, spec, cfg), t, spec, tail=1e-11)
    requests = len(calls)
    nodes = _reference_probe(monkeypatch)
    assert _auto_quad(ContinuedOmega(sol, spec, cfg), t, spec, tail=1e-11) == got
    assert len(nodes) == sum(nodes) > 8
    assert requests <= math.ceil(len(nodes) / 4) + 1


# ---------------------------------------------------------------------------
# equation residual drivers


def test_theorem2_forcing_only(fx_forcing):
    spec, cfg = fx_forcing
    sol = solve_fixed_point(spec, cfg, 16)
    pts = [
        (CoveringPoint(cfg.R / 8.0, 0.0), 0.3 + 0.1j),
        (CoveringPoint(cfg.R / 8.0, 0.2), -0.2 + 0.05j),
        (CoveringPoint(cfg.R / 8.0, -0.2), 0.1 - 0.2j),
        (CoveringPoint(cfg.R / 8.0, 0.5), 0.4 + 0.0j),
        (CoveringPoint(cfg.R / 8.0, -0.5), -0.35 + 0.15j),
    ]
    rows = checks.summed_equation(sol, spec, cfg, pts, beta_prime=0.5)  # 10x budget
    assert len(rows) == 5
    for _, detail, ratio, _ in rows:
        assert ratio <= 1.0, detail


def test_theorem2_sees_mahler_coupling_error(fx_full):
    # at |t| = 0.8 R every term is material, so the residual is gated
    # against the smallest term's own size rather than the budget.  The gate
    # also runs on the contour realisation of the Mahler coupling, where an
    # error of 1e-6 in the closed-form bracket leaves a residual of
    # 1e-6 |coupling1| instead of cancelling
    spec, cfg, sol = fx_full
    pts = [
        (CoveringPoint(0.8 * cfg.R, 0.1), 0.3 + 0.1j),
        (CoveringPoint(0.8 * cfg.R, -0.2), -0.2 + 0.05j),
    ]
    rows = checks.term_gate(sol, spec, cfg, pts, beta_prime=0.5)
    assert len(rows) == 4  # both points, on the continuation and on the contour
    for _, detail, ratio, _ in rows:
        assert ratio <= 1.0, detail


def test_theorem2_deterministic(fx_smallq):
    spec, cfg, sol = fx_smallq
    pts = [(CoveringPoint(cfg.R / 8.0, 0.02), 0.3 + 0.1j)]
    a = theorem2_residual(sol, spec, cfg, pts, beta_prime=0.5).rows[0]["residual"]
    b = theorem2_residual(sol, spec, cfg, pts, beta_prime=0.5).rows[0]["residual"]
    assert a == b


def test_sector_residual_forcing_only(fx_forcing):
    spec, cfg = fx_forcing
    sol = solve_fixed_point(spec, cfg, 16)
    taus = [CoveringPoint(1.2 * cfg.R, 0.1), CoveringPoint(2.0 * cfg.R, -0.3)]
    rows = checks.sector(sol, spec, cfg, taus)
    # both samples lie beyond the series' 5% radius: the growth row alone
    assert [row[0] for row in rows] == ["sector-growth"] and rows[0][2] <= rows[0][3]
    # with no coupling the continued value is one right-hand side, bit for bit
    om = ContinuedOmega(sol, spec, cfg)
    for tau in taus:
        assert np.array_equal(om.values(tau), om.rhs_at(np.array([tau.r]), tau.theta)[0])


def test_sector_residual_shift_only_overlap(fx_shift):
    # l1 - l0/k = -1 < 0: the shifted argument moves into the disc for
    # |tau| < R q, so the series and the continued right-hand side overlap;
    # the mismatch is the series truncation tail
    spec, cfg, sol = fx_shift
    term = spec.terms[0]
    assert term.l1 - term.l0 / spec.params.k < 0
    limit = cfg.R * spec.params.q ** (term.l0 / spec.params.k - term.l1)
    top = float(np.max(np.abs(sol.omega.coeffs[-1])))
    taus = [CoveringPoint(1.05 * cfg.R, 0.05), CoveringPoint(1.14 * cfg.R, -0.1)]
    assert all(t.r < limit for t in taus)
    rows = checks.sector(sol, spec, cfg, taus)
    assert [row[0] for row in rows] == ["sector-overlap", "sector-overlap", "sector-growth"]
    for (_, detail, residual, _), tau in zip(rows, taus):
        tail_est = top * tau.r ** sol.omega.order
        assert residual <= 10.0 * tail_est, detail


def test_sector_residual_full_fixture(fx_full):
    spec, cfg, sol = fx_full
    taus = [
        CoveringPoint(1.05 * cfg.R, 0.03),
        CoveringPoint(1.4 * cfg.R, 0.03),
        CoveringPoint(1.9 * cfg.R, 0.03),
        CoveringPoint(2.5 * cfg.R, 0.03),
    ]
    rows = checks.sector(sol, spec, cfg, taus)
    overlap = [row for row in rows if row[0] == "sector-overlap"]
    assert overlap
    for _, detail, residual, threshold in overlap:
        # the threshold is 5e-2 times the right-hand side's size
        assert residual <= threshold, detail
    C, _ = checks._growth_fit(ContinuedOmega(sol, spec, cfg), spec, taus)
    assert math.isfinite(C) and C > 0
    assert rows[-1][0] == "sector-growth" and rows[-1][2] <= rows[-1][3]


def test_sector_growth_certificate_stable(fx_full):
    spec, cfg, sol = fx_full

    def cert(nsamp):
        rads = np.geomspace(1.05 * cfg.R, 3.0 * cfg.R, nsamp)
        taus = [CoveringPoint(float(r), 0.03) for r in rads]
        return checks._growth_fit(ContinuedOmega(sol, spec, cfg), spec, taus)[0]

    c1, c2 = cert(5), cert(9)
    assert math.isfinite(c1) and math.isfinite(c2)
    assert abs(c1 - c2) <= 0.1 * max(c1, c2)


def test_sector_samples_must_leave_disc(fx_full):
    spec, cfg, sol = fx_full
    with pytest.raises(ValidationError):
        checks.sector(sol, spec, cfg, [CoveringPoint(0.5 * cfg.R, 0.0)])


# ---------------------------------------------------------------------------
# fit helper


def test_fit_log_quadratic_recovers_exact():
    n = np.arange(2.0, 9.0)
    c0, c1, c2 = 0.7, -1.2, 0.31
    vals = c0 + c1 * n + c2 * n**2
    f0, f1, f2 = checks.fit_log_quadratic(n, vals)
    assert f0 == pytest.approx(c0, abs=1e-9)
    assert f1 == pytest.approx(c1, abs=1e-9)
    assert f2 == pytest.approx(c2, abs=1e-9)
