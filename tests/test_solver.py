import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import benchmark_workloads, build_spec, gaussian_profile
from qsum import checks, solver
from qsum.cli import load_problem
from qsum.errors import GridMismatch, NoContraction, OverflowFailure, StripViolation
from qsum.fourier import FourierSpace, enorm_values, make_space, series_norm_1R
from qsum.geometry import poly_eval_im, select_sector
from qsum.series import TruncatedSeries, borel_exponent, formal_q_borel, formal_q_laplace
from qsum.solver import (
    _coupling_image,
    _forward,
    _sweep,
    apply_H1,
    assemble_U_hat,
    assemble_u_hat,
    contraction_bound,
    main_equation_residual,
    make_h1_context,
    picard,
    pm_taylor_rows,
    solve_fixed_point,
)
from qsum.transforms import _decel_logmag

SQRT_2PI = math.sqrt(2.0 * math.pi)


def zero_series(spec, N):
    return TruncatedSeries(np.zeros((N, spec.space.size), dtype=complex), spec.space)


def random_series(spec, N, rng, scale=1.0):
    """Gaussian-windowed random rows; decays fast enough for any certificate."""
    g = np.exp(-spec.space.m ** 2 / 2.0)
    vals = rng.standard_normal((N, spec.space.size)) + 1j * rng.standard_normal(
        (N, spec.space.size)
    )
    return TruncatedSeries(scale * vals * g[None, :], spec.space)


def picard_solve(spec, cfg, N):
    ctx = make_h1_context(spec, cfg, N)
    return picard(ctx, contraction_bound(ctx))


def g2001_spec(unit, tmp_path):
    """Unit ``unit`` of the benchmark's seed-1 ``solve-g2001`` problems."""
    workloads = benchmark_workloads()
    problem = workloads.write_problem(tmp_path / "problem.json", workloads.solve_problem(1, unit))
    return load_problem(str(problem))[1]


def small_q_setup(terms="full", N=16):
    spec = build_spec(terms=terms, q=1.12, ratio=1e-5)
    cfg = select_sector(spec, 0.0)
    cfg = dataclasses.replace(cfg, R=0.2 * cfg.rho)
    return spec, cfg


class TestApplyH1:
    def test_zero_input_no_forcing(self):
        spec = build_spec(terms="full", forcing="none")
        cfg = select_sector(spec, 0.0)
        out = apply_H1(zero_series(spec, 8), make_h1_context(spec, cfg, 8))
        assert out.max_abs() == 0.0

    def test_forcing_composition_single(self):
        # omega = 0 with one forcing monomial: row p is F_1 * invP[p-1]
        spec = build_spec(terms="none", forcing="first")
        cfg = select_sector(spec, 0.0)
        ctx = make_h1_context(spec, cfg, 6)
        out = apply_H1(zero_series(spec, 6), ctx)
        f1 = spec.forcing[0].F.values
        for p in range(1, 7):
            np.testing.assert_allclose(
                out.coeffs[p - 1], f1 * ctx.inv_p[p - 1], rtol=1e-13
            )

    def test_forcing_composition_two_terms(self, forcing_spec):
        cfg = select_sector(forcing_spec, 0.0)
        ctx = make_h1_context(forcing_spec, cfg, 5)
        out = apply_H1(zero_series(forcing_spec, 5), ctx)
        f1 = forcing_spec.forcing[0].F.values
        f2 = forcing_spec.forcing[1].F.values
        np.testing.assert_allclose(out.coeffs[0], f1 * ctx.inv_p[0], rtol=1e-13)
        np.testing.assert_allclose(
            out.coeffs[2], f1 * ctx.inv_p[2] + f2 * ctx.inv_p[1], rtol=1e-13
        )

    def test_shift_term_recomposition(self):
        # One l2=1 coupling (l0=2, l1=1), omega a single order-1 row. The
        # only numerator row sits at order 3 and equals
        # q^{-e(2)} q^{l1 - l0/k} (1/sqrt(2 pi)) * conv(A, omega_1 R(im)),
        # recomputed here from the kernel formula, not the grid samples.
        spec = build_spec(terms="shift", forcing="none", cA=0.3)
        cfg = select_sector(spec, 0.0)
        ctx = make_h1_context(spec, cfg, 6)
        space = spec.space
        g = np.exp(-((space.m - 0.5) ** 2))
        omega = TruncatedSeries(
            np.vstack([g, np.zeros((5, space.size))]), space
        )
        out = apply_H1(omega, ctx)

        r_vals = poly_eval_im(spec.terms[0].R, space.m)
        w = space.weights()
        target = g * r_vals
        conv = np.array(
            [np.sum(w * 0.3 * np.exp(-((mi - space.m) ** 2) / 2.0) * target)
             for mi in space.m]
        )
        q = spec.params.q
        numer3 = q ** (-1.0) * q ** (-1.0) * conv / SQRT_2PI
        assert np.all(out.coeffs[0] == 0) and np.all(out.coeffs[1] == 0)
        for p in (3, 4, 5, 6):
            np.testing.assert_allclose(
                out.coeffs[p - 1], ctx.inv_p[p - 3] * numer3, rtol=1e-10
            )

    def test_mahler_term_exponents(self):
        # l2=2 term (l0=2, l1=1): order-1 input -> shifted order 3 with
        # q^{-1} dilation, deceleration factor q^{e(3)-e(6)} = q^{-12},
        # substitution lands at order 6, prefactor q^{-e(2)}
        spec = build_spec(terms="full", forcing="none")
        cfg = select_sector(spec, 0.0)
        ctx = make_h1_context(spec, cfg, 6)
        space = spec.space
        g = np.exp(-space.m ** 2 / 2.0)
        omega = TruncatedSeries(
            np.vstack([g, np.zeros((5, space.size))]), space
        )
        spec_shift_only = build_spec(terms="shift", forcing="none")
        out_full = apply_H1(omega, ctx)
        out_shift = apply_H1(omega, make_h1_context(spec_shift_only, cfg, 6))
        mahler_part = out_full - out_shift

        q = spec.params.q
        r_vals = poly_eval_im(spec.terms[1].R, space.m)
        w = space.weights()
        conv = np.array(
            [np.sum(w * 0.02 * np.exp(-((mi - space.m) ** 2) / 2.0) * g * r_vals)
             for mi in space.m]
        )
        factor = q ** (-1.0) * q ** (-12.0) * q ** (-1.0) / SQRT_2PI
        expected6 = ctx.inv_p[0] * factor * conv
        np.testing.assert_allclose(mahler_part.coeffs[5], expected6, rtol=1e-9)
        for p in (1, 2, 3, 4, 5):
            assert np.all(mahler_part.coeffs[p - 1] == 0)

    def test_cauchy_product_matches_double_loop(self, basic_spec, rng):
        # the offset updates add each order's products in the order of the
        # double loop they replaced, so the bits are the same
        cfg = select_sector(basic_spec, 0.0)
        N = 9
        ctx = make_h1_context(basic_spec, cfg, N)
        omega = random_series(basic_spec, N, rng, scale=0.1)
        numer = _coupling_image(omega.coeffs, ctx) + ctx.forcing_rows
        want = np.zeros_like(numer)
        for p in range(1, N + 1):
            for b in range(1, p + 1):
                want[p - 1] += ctx.inv_p[p - b] * numer[b - 1]
        got = apply_H1(omega, ctx)
        assert np.array_equal(got.coeffs, want)

    def test_affine_in_omega(self, basic_spec, rng):
        cfg = select_sector(basic_spec, 0.0)
        ctx = make_h1_context(basic_spec, cfg, 5)
        a = 0.37
        w1 = random_series(basic_spec, 5, rng)
        w2 = random_series(basic_spec, 5, rng)
        mixed = w1 * a + w2 * (1.0 - a)
        lhs = apply_H1(mixed, ctx)
        rhs = (
            apply_H1(w1, ctx) * a
            + apply_H1(w2, ctx) * (1.0 - a)
        )
        scale = max(lhs.max_abs(), 1e-30)
        assert (lhs - rhs).max_abs() <= 1e-12 * scale

    def test_grid_mismatch(self, basic_spec):
        cfg = select_sector(basic_spec, 0.0)
        other = make_space(1.0, 3.0, half_width=8.0, n_points=201)
        bad = TruncatedSeries(np.zeros((4, other.size)), other)
        with pytest.raises(GridMismatch):
            apply_H1(bad, make_h1_context(basic_spec, cfg, 4))

    def test_context_factors_are_the_bracket_magnitudes(self):
        # the solver's coupling map and the Mahler bracket read one exponent
        _, spec, _ = load_problem("basic.json")
        cfg = select_sector(spec, 0.0)
        N = 12
        ctx = make_h1_context(spec, cfg, N)
        for term, (src, dst, factors) in zip(spec.terms, ctx.maps):
            assert np.array_equal(src, np.arange(1, N // term.l2 - term.l0 + 1))
            assert np.array_equal(dst, term.l2 * (src + term.l0))
            _, logmag = _decel_logmag(
                tuple(int(p) for p in src), term.l0, term.l1, term.l2, spec.params
            )
            np.testing.assert_allclose(factors, np.exp(logmag), rtol=1e-13)


class TestFixedPoint:
    def test_forcing_only_one_step(self, forcing_spec):
        cfg = select_sector(forcing_spec, 0.0)
        sol = solve_fixed_point(forcing_spec, cfg, N=8)
        assert sol.iterations == 2
        assert sol.residual_1R == 0.0
        one_step = apply_H1(zero_series(forcing_spec, 8), make_h1_context(forcing_spec, cfg, 8))
        assert np.array_equal(sol.omega.coeffs, one_step.coeffs)

    def test_contraction_ratios_seeded(self):
        # smallness regime: the Picard ratio stays at or below 0.55 for every
        # seed, and at or below the contraction bound
        for seed in range(5):
            r = np.random.default_rng(seed)
            spec = build_spec(
                terms="full",
                cA=float(r.uniform(0.01, 0.25)),
                cF=float(r.uniform(0.05, 0.2)),
            )
            cfg = select_sector(spec, 0.0)
            rows = {name: (m, t) for name, _, m, t in checks.contraction(spec, cfg, N=10)}
            ratio, bound = rows["contraction-bound"]
            assert ratio > 0.0, "expected at least one measured ratio"
            assert ratio <= 0.55 and ratio <= bound
            assert rows["contraction-residual"][0] <= 1e-10

    def test_no_contraction_raises(self, basic_spec):
        spec = build_spec(terms="full", cA=2e4)
        cfg = select_sector(spec, 0.0)
        with pytest.raises(NoContraction) as exc:
            solve_fixed_point(spec, cfg, N=10)
        assert len(exc.value.history) >= 3

    def test_triangular_mode_exact(self):
        spec = build_spec(terms="full", cA=2e4)
        cfg = select_sector(spec, 0.0)
        sol = solve_fixed_point(spec, cfg, N=10, mode="triangular")
        assert sol.residual_1R == 0.0
        assert sol.iterations <= 11

    def test_modes_agree_in_regime(self, basic_spec):
        cfg = select_sector(basic_spec, 0.0)
        a = solve_fixed_point(basic_spec, cfg, N=10)
        b = solve_fixed_point(basic_spec, cfg, N=10, mode="triangular")
        np.testing.assert_allclose(a.omega.coeffs, b.omega.coeffs, rtol=1e-12)

    def test_iterate_norms_stay_in_ball(self, basic_spec):
        # every Picard iterate stays inside the ball the limit defines;
        # norm changes shrink geometrically (norms themselves may wiggle)
        cfg = select_sector(basic_spec, 0.0)
        ctx = make_h1_context(basic_spec, cfg, 8)
        omega = zero_series(basic_spec, 8)
        norms = []
        for _ in range(8):
            omega = apply_H1(omega, ctx)
            norms.append(series_norm_1R(omega, cfg.R))
        bound = norms[-1] * 1.001 + 1e-12
        assert all(n <= bound for n in norms)
        changes = [abs(b - a) for a, b in zip(norms, norms[1:])]
        assert changes[-1] <= 1e-2 * changes[0]

    def test_dropped_mass_is_that_of_the_accepted_iterate(self):
        # every order a coupling pushes past N, shift terms included, counted
        # once on the iterate it is given: the iterates after 2, 3 and 4
        # sweeps from zero, and the Picard, forward and triangular solutions
        _, spec, _ = load_problem("basic.json")
        cfg = select_sector(spec, 0.0)
        N = 12
        ctx = make_h1_context(spec, cfg, N)
        omega, iterates = zero_series(spec, N), []
        for sweeps in range(1, 5):
            omega = apply_H1(omega, ctx)
            if sweeps >= 2:
                iterates.append((omega, solver._dropped_mass_1R(omega, spec, cfg.R)))
        sols = [picard_solve(spec, cfg, N), solve_fixed_point(spec, cfg, N),
                solve_fixed_point(spec, cfg, N, mode="triangular")]
        assert [sol.path for sol in sols] == ["picard", "forward", "forward"]
        q, k = spec.params.q, spec.params.k
        for omega, mass in iterates + [(sol.omega, sol.dropped_mass_1R) for sol in sols]:
            want = 0.0
            for term in spec.terms:
                for p in range(1, N + 1):
                    D = term.l2 * (p + term.l0)
                    if D > N:
                        E = (Fraction(p * (p - 1), 2 * k) + term.l1 * p
                             - Fraction(D * (D - 1), 2 * k))
                        norm = enorm_values(spec.space, omega.coeffs[p - 1])
                        want += q ** float(E) * norm * cfg.R ** D
            assert mass == pytest.approx(want, rel=1e-13)
        assert len({mass for _, mass in iterates}) == 3
        masses = [sol.dropped_mass_1R for sol in sols]
        assert max(masses) <= min(masses) * (1.0 + 1e-9)

    def test_forward_pass_is_the_picard_fixed_point(self):
        # the forward pass has the bits of the Picard iterate and of the
        # triangular solve, and one more sweep returns them
        _, spec, _ = load_problem("basic.json")
        cfg = select_sector(spec, 0.0)
        sol = solve_fixed_point(spec, cfg, 12)
        assert sol.path == "forward" and sol.contraction_history == ()
        assert sol.residual_1R == 0.0
        pic = picard_solve(spec, cfg, 12)
        assert pic.path == "picard" and pic.contraction_history
        for other in (pic, solve_fixed_point(spec, cfg, 12, mode="triangular")):
            assert np.array_equal(sol.omega.coeffs, other.omega.coeffs)

    @pytest.mark.parametrize("case", ["basic-16", "basic-32", "g2001-0", "g2001-1", "g2001-2",
                                      "g2001-3"])
    def test_forward_rows_match_picard(self, case, tmp_path):
        # the sweeps run until one changes nothing, and so end on the
        # forward pass's bits
        name, arg = case.split("-")
        if name == "basic":
            spec, N = load_problem("basic.json")[1], int(arg)
        else:
            spec, N = g2001_spec(int(arg), tmp_path), 32
        cfg = select_sector(spec, 0.0)
        sol = solve_fixed_point(spec, cfg, N)
        assert sol.path == "forward" and sol.residual_1R == 0.0
        assert np.array_equal(sol.omega.coeffs, picard_solve(spec, cfg, N).omega.coeffs)

    def test_forward_path_convolves_each_row_once(self, monkeypatch):
        # the confirming sweep takes the forward pass's image of every row
        # that is final when the pass reads it, which is every row
        _, spec, _ = load_problem("basic.json")
        cfg = select_sector(spec, 0.0)
        seen = []
        convolve = solver.convolve_values

        def counted(space, h, g):
            seen.extend(row.tobytes() for row in np.asarray(g).reshape(-1, space.size))
            return convolve(space, h, g)

        monkeypatch.setattr(solver, "convolve_values", counted)
        sol = solve_fixed_point(spec, cfg, 12)
        assert sol.path == "forward" and sol.residual_1R == 0.0
        ctx = make_h1_context(spec, cfg, 12)
        live = []
        for term, (src, _, factors) in zip(spec.terms, ctx.maps):
            rows = factors[:, None] * sol.omega.coeffs[src - 1] * term.symbol[None, :]
            live += [row.tobytes() for row in rows if np.any(row)]
        assert len(live) > 2 * len(spec.terms)
        assert sorted(seen) == sorted(live)

    def test_sweep_recomputes_a_changed_source_row(self):
        # a row that differs from the one the forward pass convolved gets its
        # own image: the sweep is then bit for bit a sweep from scratch
        _, spec, _ = load_problem("basic.json")
        cfg = select_sector(spec, 0.0)
        ctx = make_h1_context(spec, cfg, 12)
        omega, _, images = _forward(ctx)
        changed = omega.coeffs.copy()
        changed[1] *= 1.0 + 2.0 ** -20
        changed = TruncatedSeries(changed, spec.space)
        assert any(p == 2 for _, p in images)
        want = apply_H1(changed, ctx)
        assert not np.array_equal(want.coeffs, apply_H1(omega, ctx).coeffs)
        assert np.array_equal(_sweep(changed, ctx, images).coeffs, want.coeffs)

    @pytest.mark.parametrize("case, below", [("basic.json", True), ("divergent.json", False),
                                             ("cA=2e4", False)])
    def test_contraction_bound_selects_the_path(self, case, below):
        # below one the forward pass runs; at or above it Picard decides,
        # and on these two problems it refuses them
        if case.endswith(".json"):
            spec = load_problem(case)[1]
        else:
            spec = build_spec(terms="full", cA=2e4)
        cfg = select_sector(spec, 0.0)
        assert (contraction_bound(make_h1_context(spec, cfg, 16)) < 1.0) == below
        if below:
            assert solve_fixed_point(spec, cfg, 16).path == "forward"
        else:
            with pytest.raises(NoContraction):
                solve_fixed_point(spec, cfg, 16)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_high_order_solve_is_finite(self, q):
        # no order cap from the q-factorial: N=64 solves at every q, and
        # assembling names the first order whose U_n leaves the double range
        spec = build_spec(terms="full", q=q)
        cfg = select_sector(spec, 0.0)
        sol = solve_fixed_point(spec, cfg, N=64)
        assert np.all(np.isfinite(sol.omega.coeffs))
        assert sol.residual_1R <= 1e-10 * series_norm_1R(sol.omega, cfg.R)
        log_u = [
            math.log(np.max(np.abs(sol.omega.coeffs[n - 1])))
            + float(borel_exponent(n, spec.params.k)) * math.log(q)
            for n in range(1, 65)
        ]
        first = next(n for n, v in enumerate(log_u, start=1) if v > math.log(sys.float_info.max))
        with pytest.raises(OverflowFailure, match=f"order {first} "):
            assemble_U_hat(sol, spec.params)


class TestAssembly:
    def test_laplace_weights(self, basic_spec):
        cfg = select_sector(basic_spec, 0.0)
        sol = solve_fixed_point(basic_spec, cfg, N=6)
        U = assemble_U_hat(sol, basic_spec.params)
        assert np.array_equal(U.coeffs[0], sol.omega.coeffs[0])
        assert np.array_equal(U.coeffs[2], 8.0 * sol.omega.coeffs[2])
        back = formal_q_borel(U, basic_spec.params)
        np.testing.assert_allclose(back.coeffs, sol.omega.coeffs, rtol=1e-13)

    def test_u_hat_zero_row(self, basic_spec):
        space = basic_spec.space
        U = TruncatedSeries(np.zeros((3, space.size)), space)
        table = assemble_u_hat(U, [0.0, 0.2 + 0.1j], 0.5)
        assert table.shape == (3, 2)
        assert np.all(table == 0)

    def test_u_hat_gaussian_value(self):
        space = make_space(1.0, 3.0, half_width=12.0, n_points=601)
        U = TruncatedSeries(np.exp(-space.m ** 2 / 2.0)[None, :], space)
        table = assemble_u_hat(U, [0.0], 0.5)
        assert abs(table[0, 0] - 1.0) <= 1e-8

    def test_u_hat_strip_bound(self, basic_spec):
        cfg = select_sector(basic_spec, 0.0)
        sol = solve_fixed_point(basic_spec, cfg, N=5)
        U = assemble_U_hat(sol, basic_spec.params)
        space = basic_spec.space
        beta_prime = 0.5
        z_points = [0.0, 0.3 + 0.4j, -1.0 - 0.2j]
        table = assemble_u_hat(U, z_points, beta_prime)
        w = space.weights()
        envelope = np.sum(
            w * (1.0 + np.abs(space.m)) ** (-space.mu)
            * np.exp(-(space.beta - beta_prime) * np.abs(space.m))
        ) / SQRT_2PI
        for p in range(U.order):
            cap = enorm_values(space, U.coeffs[p]) * envelope
            assert np.all(np.abs(table[p]) <= cap * (1.0 + 1e-12))

    def test_u_hat_outside_strip(self, basic_spec):
        space = basic_spec.space
        U = TruncatedSeries(np.zeros((2, space.size)), space)
        with pytest.raises(StripViolation):
            assemble_u_hat(U, [0.9j], 0.5)


class TestMainEquation:
    def test_forcing_only_residual(self):
        spec, cfg = small_q_setup(terms="none")
        sol = solve_fixed_point(spec, cfg, N=16)
        U = assemble_U_hat(sol, spec.params)
        norms = main_equation_residual(U, spec, cfg, 16)
        assert norms.shape == (16,)
        assert norms.max() <= 1e-10

    def test_full_problem_residual(self):
        spec, cfg = small_q_setup(terms="full")
        sol = solve_fixed_point(spec, cfg, N=16)
        U = assemble_U_hat(sol, spec.params)
        norms = main_equation_residual(U, spec, cfg, 16)
        max_l0 = max(t.l0 for t in spec.terms)
        assert norms[: 16 - max_l0].max() <= 1e-11
        # edge orders are still reported
        assert np.all(np.isfinite(norms))

    def test_borel_plane_agreement(self, basic_spec, rng):
        # For an arbitrary (non-solution) omega, the Borel transform of the
        # driving-equation defect of its formal sum equals the symbol series
        # times the fixed-point defect, order by order.
        cfg = select_sector(basic_spec, 0.0)
        N = 7
        omega = random_series(basic_spec, N, rng, scale=0.1)
        U = formal_q_laplace(omega, basic_spec.params)
        _, defect = main_equation_residual(U, basic_spec, cfg, N, return_series=True)
        lhs = formal_q_borel(defect, basic_spec.params)

        h1 = apply_H1(omega, make_h1_context(basic_spec, cfg, N))
        diff = omega - h1
        pm = pm_taylor_rows(basic_spec, N)
        rhs = np.zeros_like(diff.coeffs)
        for p in range(1, N + 1):
            for a in range(0, p):
                rhs[p - 1] += pm[a] * diff.coeffs[p - a - 1]
        scale = max(np.max(np.abs(lhs.coeffs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs.coeffs - rhs)) <= 1e-9 * scale
