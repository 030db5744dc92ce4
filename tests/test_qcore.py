import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsum import qcore
from qsum.errors import ConvergenceError, EnvelopeViolation, ValidationError
from qsum.qcore import (
    CoveringPoint,
    QParams,
    envelope_check,
    exp_q,
    mu_growth,
    pi_qk,
    q_number,
    theta_kernel,
)


def mp_exp_q(z, q, dps=60):
    """Independent reference: direct summation at high precision."""
    with mp.workdps(dps):
        s = mp.mpc(0)
        term = mp.mpc(1)
        qm = mp.mpf(q)
        for n in range(1, 400):
            s += term
            term = term * mp.mpc(z) / ((qm ** n - 1) / (qm - 1))
            if abs(term) < mp.mpf(10) ** (-dps) * (1 + abs(s)):
                s += term
                break
        return complex(s)


class TestQNumbers:
    def test_frozen_values(self):
        assert q_number(0, 2.0) == 0.0
        assert q_number(3, 2.0) == 7.0
        assert q_number(4, 1.5) == pytest.approx(8.125, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            q_number(-1, 2.0)


class TestParams:
    @pytest.mark.parametrize("bad_q", [1.0, 0.5, -2.0, float("nan")])
    def test_q_must_exceed_one(self, bad_q):
        with pytest.raises(ValidationError):
            QParams(q=bad_q)

    @pytest.mark.parametrize("bad_k", [0, -1, 2.5, True])
    def test_k_must_be_positive_int(self, bad_k):
        with pytest.raises(ValidationError):
            QParams(q=2.0, k=bad_k)


class TestExpQ:
    def test_frozen_point_values(self, p2, p32):
        assert exp_q(1.0, p2) == pytest.approx(2.3842310290313717, rel=1e-12)
        got = exp_q(-2.0 + 1.0j, p2)
        assert got.real == pytest.approx(-0.11375552020613789, abs=1e-12)
        assert got.imag == pytest.approx(0.11841250653280375, abs=1e-12)
        assert exp_q(2.5, p32) == pytest.approx(7.8073864334729461, rel=1e-12)

    @pytest.mark.parametrize("q", [2.0, 1.5])
    def test_against_high_precision_oracle(self, q, rng):
        # 100 random points in |z| <= 20; error budget is the positive-term
        # sum (the conditioning of the alternating series), not |value|.
        params = QParams(q=q)
        pts = 20.0 * rng.random(100) * np.exp(2j * np.pi * rng.random(100))
        for z in pts:
            ref = mp_exp_q(complex(z), q)
            cond = abs(exp_q(abs(z), params))
            assert abs(exp_q(complex(z), params) - ref) <= 1e-12 * (1.0 + cond)

    def test_vectorised_matches_scalar(self, p2):
        zs = np.array([0.3 + 0.1j, -1.0, 2.0j])
        vec = exp_q(zs, p2)
        for i, z in enumerate(zs):
            assert vec[i] == pytest.approx(exp_q(complex(z), p2), rel=1e-14)

    def test_batch_gives_each_value_its_own_bits(self, p2, rng):
        # each element stops at its own term, so a batch changes no bit
        zs = 10.0 ** rng.uniform(-2, 1.5, 50) * np.exp(2j * np.pi * rng.random(50))
        vec = exp_q(zs.reshape(5, 10), p2).ravel()
        alone = np.array([exp_q(z, p2) for z in zs])
        assert np.array_equal(vec, alone)

    def test_term_cap_raises(self):
        slow = QParams(q=1.0001)
        with pytest.raises(ConvergenceError):
            exp_q(400.0, slow)

    @pytest.mark.parametrize("q,m", [(2.0, 0), (2.0, 1), (1.5, 0), (1.5, 1)])
    def test_zeros_match_closed_form(self, q, m):
        # the real series changes sign across z (1 -+ 1e-10): a zero lies
        # within 1e-10 relative of the closed form
        params = QParams(q=q)
        predicted = -(q ** (m + 1)) / (q - 1.0)
        below, above = (exp_q(predicted * (1.0 + e), params).real for e in (-1e-10, 1e-10))
        assert below * above < 0.0
        assert abs(exp_q(predicted, params)) < 1e-9 * abs(predicted)


class TestCoveringPoint:
    def test_rejects_bad_modulus(self):
        with pytest.raises(ValidationError):
            CoveringPoint(0.0, 1.0)
        with pytest.raises(ValidationError):
            CoveringPoint(-1.0, 0.0)

    def test_to_complex_loses_winding(self):
        a = CoveringPoint(2.0, 0.0)
        b = CoveringPoint(2.0, 2.0 * math.pi)
        assert a.to_complex() == pytest.approx(b.to_complex(), rel=1e-15)
        assert a != b


class TestThetaKernel:
    def test_frozen_values(self, p2, p32):
        # q=2, k=1: at z=(2,0) the exponent cancels exactly.
        assert theta_kernel(CoveringPoint(2.0, 0.0), p2) == pytest.approx(1.0, rel=1e-13)
        wound = theta_kernel(CoveringPoint(2.0, 2.0 * math.pi), p2)
        assert wound.real == pytest.approx(-2331793080462.342, rel=1e-11)
        v = theta_kernel(CoveringPoint(3.0, math.pi / 3), QParams(q=1.5, k=2))
        assert v.real == pytest.approx(0.56056836362972265, rel=1e-12)
        assert v.imag == pytest.approx(1.1944402710156999, rel=1e-12)

    def test_sheets_differ(self, p2):
        a = theta_kernel(CoveringPoint(2.0, 0.0), p2)
        b = theta_kernel(CoveringPoint(2.0, 2.0 * math.pi), p2)
        assert abs(a - b) > 1.0

    def test_rejects_plane_input(self, p2):
        with pytest.raises(ValidationError):
            theta_kernel(2.0 + 0.0j, p2)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=-12.0, max_value=12.0),
        st.sampled_from([(2.0, 1), (2.0, 2), (1.5, 3)]),
    )
    @settings(deadline=None, max_examples=80)
    def test_modulus_identity(self, r, th, qk):
        # |Theta_k| depends on the sheet through exp(+k theta^2/(2 log q)).
        q, k = qk
        params = QParams(q=q, k=k)
        got = abs(theta_kernel(CoveringPoint(r, th), params))
        lq = math.log(q)
        want = math.exp(-(k / (2 * lq)) * (math.log(r) ** 2 - th * th) + 0.5 * math.log(r))
        assert got == pytest.approx(want, rel=1e-11)


class TestGrowthPieces:
    def test_pi_qk_frozen(self):
        assert pi_qk(QParams(2.0, 1)) == pytest.approx(0.43940863365671958, rel=1e-14)
        assert pi_qk(QParams(2.0, 2)) == pytest.approx(0.64893015893579455, rel=1e-14)
        assert pi_qk(QParams(1.5, 1)) == pytest.approx(0.59555505433278973, rel=1e-14)

    def test_mu_growth_frozen(self):
        assert mu_growth(3.0, QParams(2.0)) == pytest.approx(0.32132349585114508, rel=1e-13)
        assert mu_growth(0.5, QParams(1.5)) == pytest.approx(2.1239879878834508, rel=1e-13)

    def test_mu_growth_rejects_nonpositive(self, p2):
        with pytest.raises(ValidationError):
            mu_growth(0.0, p2)


class TestEnvelope:
    def test_positive_axis_sector(self, p2, monkeypatch):
        monkeypatch.setattr(qcore, "_ENVELOPE_SAMPLES", 4000)
        env = envelope_check(0.0, math.pi / 4, p2, theta_excl=math.pi / 6)
        assert env.epsilon == pytest.approx(0.5, abs=1e-12)
        assert env.K1 >= env.lower_factor() > 0
        # disc floor sits well below 1 but clearly away from 0 for q=2
        assert 0.05 < env.C0 < 1.0

    def test_bounds_hold_on_fit_grid(self, p2, monkeypatch):
        # re-derive the sampling grid and check both inequalities pointwise
        monkeypatch.setattr(qcore, "_ENVELOPE_SAMPLES", 3000)
        env = envelope_check(0.1, math.pi / 6, p2, theta_excl=0.4)
        r0 = 2.0 ** 0.5 / (2.0 - 1.0)
        n_phi = max(48, int(math.sqrt(3000)))
        n_r = max(64, -(-3000 // n_phi))
        phis = np.linspace(0.1 - math.pi / 6, 0.1 + math.pi / 6, n_phi)
        radii = np.logspace(math.log10(r0), 4.0, n_r)
        zs = radii[:, None] * np.exp(1j * phis[None, :])
        vals = np.abs(exp_q(zs, p2))
        envl = np.exp(mu_growth(radii, p2))[:, None]
        assert np.all(vals <= env.K1 * envl * (1 + 1e-12))
        assert np.all(vals >= env.lower_factor() * envl * (1 - 1e-12))

    def test_sector_through_negative_axis_rejected(self, p2, monkeypatch):
        monkeypatch.setattr(qcore, "_ENVELOPE_SAMPLES", 1000)
        with pytest.raises(EnvelopeViolation):
            envelope_check(math.pi, 0.3, p2, theta_excl=0.3)

    def test_wide_sector_touching_cone_rejected(self, p2, monkeypatch):
        monkeypatch.setattr(qcore, "_ENVELOPE_SAMPLES", 1000)
        with pytest.raises(EnvelopeViolation):
            envelope_check(0.0, math.pi - 0.05, p2, theta_excl=0.2)

    def test_theta_excl_range_enforced(self, p2):
        with pytest.raises(ValidationError):
            envelope_check(0.0, 0.5, p2, theta_excl=math.pi / 2)
        with pytest.raises(ValidationError):
            envelope_check(0.0, 0.5, p2, theta_excl=0.0)
