import math

import numpy as np
import pytest

from qsum.errors import GridMismatch, StripViolation, ValidationError
from qsum.fourier import (
    FourierFn,
    FourierSpace,
    SQRT2PI,
    _contract,
    convolve,
    convolve_values,
    enorm,
    inverse_fourier_eval,
    inverse_fourier_table,
    kernel_band,
    make_space,
    series_norm_1R,
)
from qsum.series import TruncatedSeries


def gaussian_space(step, M=12.0, beta=1.0, mu=2.0):
    n = int(round(2 * M / step)) + 1
    if n % 2 == 0:
        n += 1
    return make_space(beta, mu, half_width=M, n_points=n)


def gaussian_fn(space):
    return FourierFn.from_callable(space, lambda m: np.exp(-(m ** 2) / 2.0))


class TestSpace:
    def test_default_policy(self):
        sp = make_space(beta=0.5, mu=2.0)
        assert sp.m[-1] == pytest.approx(80.0)
        assert sp.size >= 2001 and sp.size % 2 == 1
        assert math.exp(-sp.beta * sp.m[-1]) < 1e-10

    def test_rejects_uneven_grid(self):
        with pytest.raises(ValidationError):
            FourierSpace(np.array([-1.0, 0.0, 2.0]), 1.0, 2.0)

    def test_rejects_asymmetric_grid(self):
        with pytest.raises(ValidationError):
            FourierSpace(np.linspace(-1.0, 2.0, 7), 1.0, 2.0)

    def test_rejects_weak_certificate(self):
        with pytest.raises(ValidationError):
            make_space(beta=-1.0, mu=2.0)
        with pytest.raises(ValidationError):
            make_space(beta=1.0, mu=1.0)


class TestEnorm:
    def test_exact_on_saturating_profile(self):
        sp = make_space(1.0, 2.0, half_width=10.0, n_points=801)
        f = FourierFn.from_callable(
            sp, lambda m: np.exp(-np.abs(m)) / (1.0 + np.abs(m)) ** 2
        )
        assert enorm(f) == pytest.approx(1.0, rel=1e-12)


class TestConvolution:
    def test_gaussian_closed_form(self):
        # exact: (g * g)(m) = sqrt(pi) e^{-m^2/4}
        sp = gaussian_space(step=0.01)
        g = gaussian_fn(sp)
        got = convolve(g, g)
        idx = [np.argmin(np.abs(sp.m - m0)) for m0 in (0.0, 1.0, 2.0)]
        for i in idx:
            want = math.sqrt(math.pi) * math.exp(-sp.m[i] ** 2 / 4.0)
            assert abs(got.values[i] - want) < 1e-6

    def test_halving_step_cuts_error(self):
        # run in the aliasing regime where the trapezoid error is visible;
        # at fine steps the quadrature is exact to roundoff and the ratio
        # check would be vacuous
        errs = []
        for step in (1.2, 0.6):
            sp = gaussian_space(step=step)
            g = gaussian_fn(sp)
            got = convolve(g, g).values
            want = np.sqrt(np.pi) * np.exp(-sp.m ** 2 / 4.0)
            errs.append(float(np.max(np.abs(got - want))))
        assert errs[0] > 3.5 * errs[1]

    def test_commutes_when_tails_are_resolved(self, rng):
        # discrete commutativity holds up to the neglected grid-edge mass,
        # so the profiles must actually decay within the window
        sp = gaussian_space(step=0.05, M=12.0)
        a = FourierFn(sp, rng.standard_normal(sp.size) * np.exp(-sp.m ** 2 / 2.0))
        b = FourierFn(sp, rng.standard_normal(sp.size) * np.exp(-sp.m ** 2 / 2.0))
        np.testing.assert_allclose(
            convolve(a, b).values, convolve(b, a).values, atol=1e-12
        )

    def test_grid_mismatch(self):
        a = gaussian_fn(gaussian_space(step=0.5))
        b = gaussian_fn(gaussian_space(step=0.25))
        with pytest.raises(GridMismatch):
            convolve(a, b)


def direct_convolution(space, h, g):
    """The direct sum over every product, row by row: the oracle for
    `convolve_values`."""
    n = space.size
    c = (n - 1) // 2
    g = np.asarray(g)
    rows = [np.convolve(h, space.weights() * row)[c : c + n] for row in g.reshape(-1, n)]
    return np.array(rows).reshape(g.shape)


def assert_same_sum(space, h, g, got):
    # both sides sum the same products in different orders: each is within
    # gamma_n of the exact sum, measured on the sum of absolute products
    want = direct_convolution(space, h, g)
    bound = direct_convolution(space, np.abs(h), np.abs(g))
    tol = 4.0 * space.size * np.finfo(float).eps * bound
    assert np.all(np.abs(got.real - want.real) <= tol)
    assert np.all(np.abs(got.imag - want.imag) <= tol)


class TestBandConvolution:
    @pytest.mark.parametrize("n", [3, 21, 601])
    @pytest.mark.parametrize("kernel", ["gaussian", "re-im"])
    def test_matches_direct_sum(self, rng, n, kernel):
        sp = make_space(1.0, 2.0, half_width=6.0, n_points=n)
        h = 0.3 * np.exp(-sp.m ** 2 / 2.0) + 0j
        if kernel == "re-im":
            # a `re`/`im` profile: an arbitrary complex kernel
            h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
        got = convolve_values(sp, h, g)
        assert got.shape == (2, 3, n)
        assert_same_sum(sp, h, g, got)
        # a prebuilt band gives the same bits, and a single row its own row
        band = kernel_band(sp, h)
        assert len(band) == n
        assert np.array_equal(convolve_values(sp, band, g), got)
        assert_same_sum(sp, h, g[1, 2], convolve_values(sp, band, g[1, 2]))

    def test_real_rows_are_promoted(self, rng):
        sp = make_space(1.0, 2.0, half_width=6.0, n_points=21)
        h = np.exp(-sp.m ** 2 / 2.0)
        g = rng.standard_normal((4, 21))
        got = convolve_values(sp, h, g)
        assert np.iscomplexobj(got)
        assert_same_sum(sp, h, g, got)
        assert np.array_equal(got, convolve_values(sp, h, g + 0j))

    def test_zero_rows(self, rng):
        sp = make_space(1.0, 2.0, half_width=6.0, n_points=601)
        h = np.exp(-sp.m ** 2 / 2.0) + 0j
        g = np.zeros((3, 601), dtype=complex)
        g[1] = rng.standard_normal(601) + 1j * rng.standard_normal(601)
        got = convolve_values(sp, h, g)
        assert np.all(got[0] == 0) and np.all(got[2] == 0)
        assert_same_sum(sp, h, g, got)
        assert np.all(convolve_values(sp, h, np.zeros(601)) == 0)

    def test_huge_rows_stay_finite(self, rng):
        # the direct sum of rows near 1e250 is finite, so the lifted product
        # must not overflow either
        sp = make_space(1.0, 2.0, half_width=12.0, n_points=601)
        h = 0.02 * np.exp(-sp.m ** 2 / 2.0) + 0j
        g = 1e250 * np.stack([
            np.exp(-sp.m ** 2 / 2.0) * (1.0 + 1.0j),
            rng.standard_normal(601) + 1j * rng.standard_normal(601),
        ])
        got = convolve_values(sp, h, g)
        assert np.all(np.isfinite(got))
        assert_same_sum(sp, h, g, got)

    def test_subnormal_tails(self):
        # the library default grid (M = 40): the Gaussian tails run through
        # the subnormal range, where the direct sum loses bits to gradual
        # underflow and the lifted product does not
        sp = make_space(1.0, 3.0)
        assert sp.size == 2001 and sp.m[-1] == 40.0
        h = 0.02 * np.exp(-sp.m ** 2 / 2.0) + 0j
        g = np.stack([
            np.exp(-sp.m ** 2) * (1.0 + 0.5j),
            np.exp(-((sp.m - 1.0) ** 2) / 2.0) * (0.3 - 1.0j),
            np.where(np.abs(sp.m) < 1.0, 2.0 * np.exp(-4.0 * sp.m ** 2), 0.0) + 0j,
        ])
        assert np.any((g != 0) & (np.abs(g) < np.finfo(float).tiny))
        got = convolve_values(sp, h, g)
        want = direct_convolution(sp, h, g)
        for part in ("real", "imag"):
            a, b = getattr(got, part), getattr(want, part)
            normal = np.abs(b) >= np.finfo(float).tiny
            np.testing.assert_allclose(a[normal], b[normal], rtol=1e-12, atol=0)
            assert np.any(b == 0)
            assert np.all(a[b == 0] == 0)

    @pytest.mark.parametrize("G", [601, 2001])
    def test_batch_rows_match_one_row_calls(self, rng, G):
        # a ladder regroups its rungs into waves and batches freely: that
        # moves no bits only if a row's convolution ignores the rows beside it
        sp = make_space(1.0, 3.0, half_width=12.0, n_points=G)
        band = kernel_band(sp, 0.02 * np.exp(-sp.m ** 2 / 2.0) * (1.0 + 0.3j))
        for S in (2, 3, 12, 33, 40):
            g = rng.standard_normal((S, G)) + 1j * rng.standard_normal((S, G))
            batch = convolve_values(sp, band, g)
            for i in range(S):
                assert np.array_equal(batch[i], convolve_values(sp, band, g[i]))
        if G == 2001:
            # leading axes that span several row chunks
            g = rng.standard_normal((3, 5, G)) + 1j * rng.standard_normal((3, 5, G))
            batch = convolve_values(sp, band, g)
            assert batch.shape == g.shape
            for i, j in np.ndindex(3, 5):
                assert np.array_equal(batch[i, j], convolve_values(sp, band, g[i, j]))

    def test_grid_mismatch(self):
        sp = make_space(1.0, 2.0, half_width=6.0, n_points=21)
        h = np.exp(-sp.m ** 2 / 2.0)
        with pytest.raises(GridMismatch):
            kernel_band(sp, h[:-2])
        with pytest.raises(GridMismatch):
            convolve_values(sp, h, np.ones(19))
        other = make_space(1.0, 2.0, half_width=6.0, n_points=23)
        with pytest.raises(GridMismatch):
            convolve_values(other, kernel_band(sp, h), np.ones(23))


class TestInverseFourier:
    def test_gaussian_self_dual(self):
        sp = gaussian_space(step=0.01)
        g = gaussian_fn(sp)
        for x in (0.0, 0.7, -1.3, 2.5):
            got = inverse_fourier_eval(g, x, beta_prime=0.5)
            assert abs(got - math.exp(-x * x / 2.0)) < 1e-8

    def test_product_rule(self):
        sp = gaussian_space(step=0.01)
        g = gaussian_fn(sp)
        conv = FourierFn(sp, convolve(g, g).values / SQRT2PI)
        pts = [0.0, 0.4, -0.9 + 0.2j, 1.5 - 0.3j, 0.3 + 0.1j]
        for z in pts:
            lhs = inverse_fourier_eval(g, z, 0.5) * inverse_fourier_eval(g, z, 0.5)
            rhs = inverse_fourier_eval(conv, z, 0.5)
            assert abs(lhs - rhs) < 1e-6

    def test_derivative_rule_vs_central_difference(self):
        sp = gaussian_space(step=0.01)
        g = gaussian_fn(sp)
        deriv = FourierFn(sp, 1j * sp.m * g.values)
        z0, h = 0.3 + 0.1j, 1e-4
        fd = (
            inverse_fourier_eval(g, z0 + h, 0.5) - inverse_fourier_eval(g, z0 - h, 0.5)
        ) / (2 * h)
        assert abs(inverse_fourier_eval(deriv, z0, 0.5) - fd) < 1e-5

    def test_strip_guard(self):
        sp = gaussian_space(step=0.1)
        g = gaussian_fn(sp)
        with pytest.raises(StripViolation):
            inverse_fourier_eval(g, 0.3 + 0.8j, beta_prime=0.5)
        with pytest.raises(StripViolation):
            inverse_fourier_eval(g, 0.0, beta_prime=1.5)  # >= beta

    def test_table_matches_pointwise(self, rng):
        sp = gaussian_space(step=0.05, M=8.0)
        rows = rng.standard_normal((3, sp.size)) * np.exp(-np.abs(sp.m))
        zs = [0.1, 0.2 + 0.1j]
        table = inverse_fourier_table(rows, sp, zs, beta_prime=0.5)
        for i in range(3):
            for jz, z in enumerate(zs):
                # the trapezoid sum written out, independent of the contraction
                want = np.sum(sp.weights() * rows[i] * np.exp(1j * sp.m * z)) / SQRT2PI
                assert table[i, jz] == pytest.approx(want, rel=1e-12)


def assert_contracts(a, b, got):
    """``got`` against the products of ``a @ b`` summed by np.sum, within
    4 K eps times ``|a| @ |b|`` on each entry."""
    K = a.shape[-1]
    a2, b2 = np.atleast_2d(a), b.reshape(K, -1)
    want = np.sum(a2[:, :, None] * b2[None, :, :], axis=1)
    bound = 4 * K * np.finfo(float).eps * (np.abs(a2) @ np.abs(b2))
    assert got.shape == (a @ b).shape
    assert np.iscomplexobj(got)  # a real operand is promoted
    assert np.all(np.abs(got.reshape(want.shape) - want) <= bound)


class TestContract:
    KINDS = ["real", "complex", "real 1-d", "complex 1-d"]

    @pytest.mark.parametrize("K", [12, 64, 150])
    @pytest.mark.parametrize("left", KINDS)
    @pytest.mark.parametrize("right", KINDS)
    def test_matches_summed_products(self, rng, K, left, right):
        def operand(kind, shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if kind.startswith("complex") else x

        a = operand(left, (K,) if left.endswith("1-d") else (5, K))
        b = operand(right, (K,) if right.endswith("1-d") else (K, 7))
        assert_contracts(a, b, _contract(a, b))

    def test_reads_strided_operands(self, rng):
        a = rng.standard_normal((4, 130)) + 1j * rng.standard_normal((4, 130))
        b = rng.standard_normal((9, 130)) + 1j * rng.standard_normal((9, 130))
        assert_contracts(a[:, ::2], b.T[::2], _contract(a[:, ::2], b.T[::2]))

    @pytest.mark.parametrize(
        "S, K, G",
        [(78, 12, 601), (1000, 12, 601), (78, 12, 1001), (78, 12, 2001), (78, 8, 2001)],
        ids=["78", "1000", "78-K12-G1001", "78-K12-G2001", "78-K8-G2001"],
    )
    def test_batch_rows_match_one_row_calls(self, rng, S, K, G):
        # a ladder's Mahler bracket: N = K powers against G grid rows;
        # unchunked, or in chunks of a fixed 32 rows at G >= 1001, BLAS gave
        # many rows of such a batch other last bits
        a = np.exp(rng.standard_normal((S, K)) + 1j * rng.standard_normal((S, K)))
        b = rng.standard_normal((K, G)) + 1j * rng.standard_normal((K, G))
        batch = _contract(a, b)
        for i in range(S):
            assert np.array_equal(batch[i], _contract(a[i], b))


class TestSeriesNorms:
    def test_norm_1R_geometric(self):
        sp = make_space(1.0, 2.0, half_width=5.0, n_points=101)
        coeffs = np.zeros((3, sp.size), dtype=complex)
        coeffs[:, 50] = [1.0, 2.0, 4.0]  # spike at m=0, weight there is 1
        w = TruncatedSeries(coeffs, space=sp)
        # sum_p a_p R^p with R = 1/2
        assert series_norm_1R(w, 0.5) == pytest.approx(0.5 + 0.5 + 0.5, rel=1e-12)


class TestKernelBoundIntegral:
    @pytest.mark.parametrize("h1", [0.05])
    def test_lemma_style_bound_finite_and_stable(self, h1):
        # sup_m (1+|m|)^(mu-alpha) * int dm1 / ((1+|m-m1|)^mu (1+|m1|)^(mu-degB))
        # for (mu, alpha, degB) = (2, 1, 1)
        mu, alpha, degb = 2.0, 1.0, 1.0

        def sup_value(h):
            m = np.linspace(-50.0, 50.0, 201)
            m1 = np.arange(-400.0, 400.0 + h, h)
            integrand = 1.0 / (
                (1.0 + np.abs(m[:, None] - m1[None, :])) ** mu
                * (1.0 + np.abs(m1[None, :])) ** (mu - degb)
            )
            integral = np.trapezoid(integrand, dx=h, axis=1)
            return float(np.max((1.0 + np.abs(m)) ** (mu - alpha) * integral))

        coarse, fine = sup_value(h1), sup_value(h1 / 2)
        assert np.isfinite(fine) and fine > 0
        assert abs(coarse - fine) <= 0.05 * fine
