import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsum.errors import OrderOverflow, OverflowFailure, ValidationError
from qsum.qcore import QParams
from qsum.series import (
    TruncatedSeries,
    apply_t_sigma,
    borel_commutation_check,
    borel_exponent,
    coupling_exponent,
    deceleration_exponent,
    formal_deceleration,
    formal_q_borel,
    formal_q_laplace,
    mahler,
)


def S(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=complex))


class TestContainer:
    def test_space_mismatch_rejected(self):
        a = TruncatedSeries(np.ones(3), space="scalar")
        b = TruncatedSeries(np.ones(3), space="other")
        with pytest.raises(ValidationError):
            a + b

    def test_pad_down_is_an_error(self):
        with pytest.raises(OrderOverflow):
            S(1.0, 2.0, 3.0).pad_to(2)

    def test_truncated_is_explicit(self):
        assert S(1.0, 2.0, 3.0).truncated(2).order == 2

    def test_coeffs_read_only(self):
        s = S(1.0)
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0


class TestOperators:
    def test_borel_frozen_example(self, p2):
        got = formal_q_borel(S(1.0, 1.0, 1.0), p2)
        np.testing.assert_allclose(got.coeffs, [1.0, 0.5, 0.125], rtol=1e-15)

    def test_laplace_inverts_borel(self, p32, rng):
        u = TruncatedSeries(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        back = formal_q_laplace(formal_q_borel(u, p32), p32)
        np.testing.assert_allclose(back.coeffs, u.coeffs, rtol=1e-13)

    def test_apply_t_sigma_frozen_example(self, p2):
        got = apply_t_sigma(S(1.0, 2.0), sigma=1, j=1, params=p2)
        np.testing.assert_allclose(got.coeffs, [0.0, 2.0, 8.0], rtol=1e-15)

    def test_apply_t_sigma_rational_dilation(self, p2):
        got = apply_t_sigma(S(1.0), sigma=0, j=Fraction(1, 2), params=p2)
        np.testing.assert_allclose(got.coeffs, [2.0 ** 0.5], rtol=1e-15)

    def test_apply_t_sigma_explicit_truncation(self, p2):
        got = apply_t_sigma(S(1.0, 1.0), sigma=2, j=0, params=p2, out_order=3)
        assert got.order == 3
        np.testing.assert_allclose(got.coeffs, [0.0, 0.0, 1.0], rtol=1e-15)

    def test_mahler_interleaves(self):
        got = mahler(S(1.0, 2.0), 2)
        np.testing.assert_allclose(got.coeffs, [0.0, 1.0, 0.0, 2.0], rtol=1e-15)

    def test_mahler_rejects_p1(self):
        with pytest.raises(ValidationError):
            mahler(S(1.0), 1)

    def test_deceleration_frozen_example(self, p2):
        # k=1, p=2: order-n factor is q^(n(n-1)/2 - n(2n-1))
        got = formal_deceleration(S(1.0, 1.0), 2, p2)
        np.testing.assert_allclose(got.coeffs, [2.0 ** -1, 2.0 ** -5], rtol=1e-15)

    def test_laplace_factor_beyond_double_range(self, p2):
        # q^e(47) = 2^1081 overflows on its own, the scaled coefficient does not
        c = np.zeros(47, dtype=complex)
        c[46] = 1e-200
        got = formal_q_laplace(TruncatedSeries(c), p2)
        assert got.coeffs[46] == math.ldexp(1e-200, 1081)
        c[46] = 1e-10
        with pytest.raises(OverflowFailure, match="order 47 "):
            formal_q_laplace(TruncatedSeries(c), p2)

    @given(st.integers(0, 40), st.integers(0, 40), st.sampled_from([1, 2, 3]))
    @settings(deadline=None, max_examples=120)
    def test_exponent_splitting_identity(self, n, sigma, k):
        lhs = borel_exponent(n + sigma, k)
        rhs = borel_exponent(sigma, k) + borel_exponent(n, k) + Fraction(sigma * n, k)
        assert lhs == rhs


class TestLinearity:
    @given(
        st.floats(-3, 3), st.floats(-3, 3),
        st.sampled_from(["borel", "laplace", "sigma", "mahler", "decel"]),
    )
    @settings(deadline=None, max_examples=60)
    def test_ops_are_linear(self, a, b, which, ):
        params = QParams(q=1.5, k=2)
        rng = np.random.default_rng(7)
        u = TruncatedSeries(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        v = TruncatedSeries(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        ops = {
            "borel": lambda s: formal_q_borel(s, params),
            "laplace": lambda s: formal_q_laplace(s, params),
            "sigma": lambda s: apply_t_sigma(s, 2, Fraction(1, 3), params),
            "mahler": lambda s: mahler(s, 3),
            "decel": lambda s: formal_deceleration(s, 2, params),
        }
        op = ops[which]
        left = op(a * u + b * v)
        right = a * op(u) + b * op(v)
        np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-12)


class TestCommutation:
    @pytest.mark.parametrize("q", [2.0, 1.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shift_dilation_commutes_with_borel(self, q, k, rng):
        # all (sigma, j) in {0..3}^2 on a random order-10 series
        params = QParams(q=q, k=k)
        u = TruncatedSeries(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        for sigma in range(4):
            for j in range(4):
                ok, err = borel_commutation_check(u, sigma, j, params)
                assert ok, f"sigma={sigma} j={j} err={err:.3e}"

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_mahler_borel_exponents_exact(self, p, k):
        # rational identity behind the deceleration route, n up to 20
        for n in range(1, 21):
            assert borel_exponent(p * n, k) - borel_exponent(n, k) == -deceleration_exponent(n, p, k)

    @given(
        st.integers(1, 60), st.integers(0, 6), st.integers(-4, 4),
        st.integers(1, 5), st.sampled_from([1, 2, 3, 4]),
    )
    @settings(deadline=None, max_examples=200)
    def test_coupling_exponent_routes_agree(self, p, l0, l1, l2, k):
        E = coupling_exponent(p, l0, l1, l2, k)
        # the series operators: t^l0 with dilation q^{l1 - l0/k}, the
        # deceleration of ratio l2, and the q^{-e(l0)} prefactor
        chain = ((Fraction(l1) - Fraction(l0, k)) * p
                 + deceleration_exponent(p + l0, l2, k) - borel_exponent(l0, k))
        assert E == chain
        # the t-plane map q^{l1 p}, conjugated by the Borel weights q^{e(n)}
        D = l2 * (p + l0)
        assert E == Fraction(p * (p - 1), 2 * k) + l1 * p - Fraction(D * (D - 1), 2 * k)

    def test_mahler_borel_coefficient_routes_agree(self, p2, rng):
        u = TruncatedSeries(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        for p in (2, 3, 4):
            direct = formal_q_borel(mahler(u, p), p2)
            via_decel = mahler(formal_deceleration(formal_q_borel(u, p2), p, p2), p)
            np.testing.assert_allclose(direct.coeffs, via_decel.coeffs, rtol=1e-13)
