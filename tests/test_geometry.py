import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_spec, gaussian_profile
from qsum import geometry, qcore
from qsum.errors import (
    BadDirection,
    BoundViolation,
    DivergentInversion,
    OverflowFailure,
    SmallDelta,
    ValidationError,
)
from qsum.fourier import make_space
from qsum.geometry import (
    ForcingTerm,
    MahlerTerm,
    ProblemSpec,
    SectorConfig,
    _min_distance,
    alpha_tilde,
    eval_Pm,
    inv_pm_taylor,
    pm_lower_bound_report,
    poly_eval_im,
    select_sector,
    validate_spec,
)
from qsum.qcore import QParams, envelope_check


def tiny_scalar_spec(Q=2.0, R_D=1.0, q=2.0, k=1, d_D=1, alpha_D=1.0):
    """Degree-zero symbols on a small grid; handy for closed-form checks."""
    space = make_space(1.0, 2.0, half_width=4.0, n_points=41)
    return ProblemSpec(
        Q=[Q], R_D=[R_D], alpha_D=alpha_D, d_D=d_D, terms=(), forcing=(),
        params=QParams(q=q, k=k), space=space,
    )


def hand_config(spec, rho, R, delta1=0.1, d=0.0, ho=0.3):
    with mock.patch.object(qcore, "_ENVELOPE_SAMPLES", 2000):
        env = envelope_check(d, ho, spec.params, theta_excl=math.pi / 6)
    return SectorConfig(
        d=d, half_opening=ho, rho=rho, R=R,
        alpha_tilde_D=alpha_tilde(spec), delta1=delta1, envelope=env,
    )


class TestValidation:
    def test_basic_spec_passes(self, basic_spec):
        rep = validate_spec(basic_spec)
        assert rep.ok, [c.name for c in rep.failures()]
        assert rep.ratio_min == pytest.approx(0.08, rel=1e-10)
        assert rep.ratio_max == pytest.approx(0.08, rel=1e-10)

    def test_shift_order_violation_detected(self):
        spec = build_spec(terms="none")
        bad = MahlerTerm(l0=1, l1=1, l2=1, R=[1.0, 0.25],
                         A=gaussian_profile(spec.space, 0.01))
        spec2 = ProblemSpec(
            Q=spec.Q, R_D=spec.R_D, alpha_D=spec.alpha_D, d_D=spec.d_D,
            terms=(bad,), forcing=spec.forcing, params=spec.params, space=spec.space,
        )
        rep = validate_spec(spec2)
        assert not rep.ok
        assert any("shift-order" in c.name for c in rep.failures())

    def test_mahler_power_bound(self):
        # l2 = 2 with k = 4 forces d_D > sqrt(4/3) > 1
        spec = build_spec(terms="none", k=4)
        term = MahlerTerm(l0=8, l1=1, l2=2, R=[1.0, 0.25],
                          A=gaussian_profile(spec.space, 0.01))
        spec2 = ProblemSpec(
            Q=spec.Q, R_D=spec.R_D, alpha_D=1.0, d_D=1,
            terms=(term,), forcing=(), params=spec.params, space=spec.space,
        )
        rep = validate_spec(spec2)
        assert any("Mahler ratios" in c.name and not c.ok for c in rep.conditions)

    def test_degree_mismatch_detected(self):
        spec = build_spec(terms="none")
        spec2 = ProblemSpec(
            Q=[0.08, 0.08, 0.02], R_D=spec.R_D, alpha_D=1.0, d_D=1,
            terms=(), forcing=(), params=spec.params, space=spec.space,
        )
        rep = validate_spec(spec2)
        assert any("deg Q = deg R_D" in c.name and not c.ok for c in rep.conditions)

    def test_vanishing_symbol_detected(self):
        spec = build_spec(terms="none")
        spec2 = ProblemSpec(
            Q=[0.0, 1.0], R_D=[1.0, 1.0], alpha_D=1.0, d_D=1,
            terms=(), forcing=(), params=spec.params, space=spec.space,
        )
        rep = validate_spec(spec2)
        assert any("Q(im) nonvanishing" in c.name and not c.ok for c in rep.conditions)

    def test_foreign_grid_rejected(self):
        spec = build_spec(terms="none")
        other = make_space(1.0, 3.0, half_width=10.0, n_points=201)
        with pytest.raises(ValidationError):
            ProblemSpec(
                Q=spec.Q, R_D=spec.R_D, alpha_D=1.0, d_D=1, terms=(),
                forcing=(ForcingTerm(j=1, F=gaussian_profile(other, 0.1)),),
                params=spec.params, space=spec.space,
            )


class TestSymbols:
    def test_alpha_tilde_frozen(self):
        spec = tiny_scalar_spec(d_D=2)
        assert alpha_tilde(spec) == pytest.approx(0.5, rel=1e-14)
        assert alpha_tilde(tiny_scalar_spec(d_D=1)) == pytest.approx(1.0)

    def test_eval_Pm_at_origin(self, basic_spec):
        # exp_q(0) = 1, so P reduces to Q - R_D
        got = eval_Pm(0.0, 0.0, basic_spec)
        assert got == pytest.approx(0.08 - 1.0, rel=1e-12)

    def test_eval_Pm_broadcasts(self, basic_spec):
        taus = np.array([0.1, 0.2j])
        ms = np.array([0.0, 1.0, 2.0])
        got = eval_Pm(taus[:, None], ms[None, :], basic_spec)
        assert got.shape == (2, 3)
        one = eval_Pm(0.2j, 1.0, basic_spec)
        assert got[1, 1] == pytest.approx(one, rel=1e-13)

    def test_poly_eval_orientation(self):
        # low-to-high: [1, 2] is 1 + 2X evaluated at X = i m
        assert poly_eval_im([1.0, 2.0], 3.0) == pytest.approx(1.0 + 6.0j)


class TestSectorSelection:
    def test_basic_direction_zero(self, basic_spec):
        cfg = select_sector(basic_spec, 0.0)
        assert cfg.rho == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert 0.0 < cfg.R < cfg.rho
        assert cfg.delta1 > 0.02
        assert cfg.envelope.C0 > 0.05

    def test_rho_formula_example(self):
        # q=2, alpha_D=1, d_D=2, k=1: alpha~ = 1/2, rho = 2^(3/4)
        spec = tiny_scalar_spec(Q=0.08, R_D=1.0, d_D=2)
        cfg = select_sector(spec, 0.0)
        assert cfg.rho == pytest.approx(2.0 ** 0.75, rel=1e-12)

    def test_bad_direction_raises(self, basic_spec):
        with pytest.raises(BadDirection):
            select_sector(basic_spec, math.pi)

    def test_bad_exclusion_angle_is_not_a_bad_direction(self, basic_spec, monkeypatch):
        # only envelope failures halve the opening; an invalid argument
        # surfaces as itself instead of as a failed direction search
        monkeypatch.setattr(geometry, "_THETA_EXCL", 2.0)
        with pytest.raises(ValidationError, match="theta_excl"):
            select_sector(basic_spec, 0.0)

    def test_small_delta_raises(self, monkeypatch):
        # ratio pinned on the real q-exponential image; the measured gap is
        # set by sampling resolution, so demand a margin well above it
        spec = tiny_scalar_spec(Q=2.3842310290313717, R_D=1.0)
        cfg = select_sector(spec, 0.0)
        monkeypatch.setattr(geometry, "_DELTA_FLOOR", 0.05)
        with pytest.raises(SmallDelta) as exc:
            select_sector(spec, 0.0)
        assert cfg.delta1 < 0.05
        # the witness is the nearest pair: |P_m(tau)| / |R_D(im)| there is delta1
        tau, m = exc.value.witness
        assert isinstance(tau, complex) and m in spec.space.m
        assert abs(eval_Pm(tau, m, spec)) == pytest.approx(cfg.delta1, rel=1e-9)

    def test_delta_stable_under_refinement(self, basic_spec, monkeypatch):
        c1 = select_sector(basic_spec, 0.0)
        monkeypatch.setattr(geometry, "_SCAN", 128)
        c2 = select_sector(basic_spec, 0.0)
        assert abs(c1.delta1 - c2.delta1) < 0.01 * c1.delta1

    def test_min_distance_refuses_non_finite_point(self):
        # the NaN shares its 512-point chunk with the nearest points: argmin
        # would pick the NaN and drop the whole chunk, measuring 0.45
        curve = np.array([0.05 + 0j])
        points = np.array([0.5] * 600 + [0.0501] * 10, dtype=complex)
        taus = np.arange(points.size + 1) * (1 + 1j)
        dist, i, j = _min_distance(curve, points, taus[:-1], np.zeros(1))
        assert dist == pytest.approx(1e-4, rel=1e-9) and (i, j) == (0, 600)
        points = np.insert(points, 600, complex(math.nan, 0.0))
        with pytest.raises(OverflowFailure) as exc:
            _min_distance(curve, points, taus, np.zeros(1))
        assert exc.value.witness == taus[600]

    def test_min_distance_refuses_non_finite_curve_value(self):
        # np.unique would merge the NaNs, and a NaN row would leave every
        # chunk's minimum NaN, so the scan would certify delta1 = inf
        curve = np.array([0.05, math.nan, math.nan, 0.07], dtype=complex)
        ms = np.array([-1.5, -0.5, 0.5, 1.5])
        points = np.linspace(0.0, 1.0, 700).astype(complex)
        with pytest.raises(OverflowFailure) as exc:
            _min_distance(curve, points, points, ms)
        assert exc.value.witness == -0.5
        spec = tiny_scalar_spec(Q=complex(math.nan, 0.0))
        with pytest.raises(OverflowFailure) as exc:
            select_sector(spec, 0.0)
        assert exc.value.witness == spec.space.m[0]


def _all_pairs(curve, points):
    """Every pair, 512 points at a time: the scan `_min_distance` must equal."""
    best, bi, bj = math.inf, 0, 0
    for start in range(0, points.size, 512):
        d = np.abs(curve[:, None] - points[None, start : start + 512])
        i, j = np.unravel_index(np.argmin(d), d.shape)
        if d[i, j] < best:
            best, bi, bj = float(d[i, j]), int(i), int(start + j)
    return best, bi, bj


def _cloud(rng, n, step):
    """``n`` complex points, rounded to multiples of ``step`` (ties) if given."""
    z = rng.standard_normal(n) * rng.uniform(0.1, 3.0) + 1j * rng.standard_normal(n)
    z += rng.uniform(-2.0, 2.0, size=n) if rng.random() < 0.5 else 0.0
    return np.round(z / step) * step if step else z


class TestMinDistance:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_curve=st.integers(1, 40),
        n_points=st.integers(1, 1700),
        step=st.sampled_from([None, 0.25, 1.0]),
        distinct=st.integers(1, 6),
    )
    @example(seed=0, n_curve=1, n_points=1, step=None, distinct=6)
    @example(seed=1, n_curve=30, n_points=1100, step=1.0, distinct=2)
    @settings(deadline=None, max_examples=200)
    def test_equals_all_pairs_scan(self, seed, n_curve, n_points, step, distinct):
        rng = np.random.default_rng(seed)
        curve = _cloud(rng, n_curve, step)
        if distinct < 6:  # few distinct values, repeated in random order
            curve = rng.choice(curve[:distinct], size=n_curve)
        points = _cloud(rng, n_points, step)
        got = _min_distance(curve, points, points, np.zeros(n_curve))
        want = _all_pairs(curve, points)
        assert got == want and got[0].hex() == want[0].hex()

    def test_equal_minima_in_two_chunks_go_to_the_first(self):
        # chunk 1's box holds the curve point, so it is visited first; chunk
        # 0 has the same minimum 1 and still wins, as in the sequential scan
        curve = np.array([0j, 0j, 3.0 + 0j])
        points = np.concatenate([
            np.linspace(1.0, 2.0, 512), np.full(511, 1j), [-1j, 5.0 + 5.0j, 6.0 + 5.0j],
        ])
        assert _min_distance(curve, points, points, np.zeros(3)) == (1.0, 0, 0)
        assert _all_pairs(curve, points) == (1.0, 0, 0)


class TestPmBounds:
    def test_report_on_basic(self, basic_spec):
        cfg = select_sector(basic_spec, 0.0)
        rep = pm_lower_bound_report(basic_spec, cfg)
        assert rep.min_margin >= 1.0 - 1e-9
        assert rep.far_field_constant > 0
        assert rep.gap_ok, rep.gap_detail

    def test_inflated_delta_is_caught(self, basic_spec):
        cfg = select_sector(basic_spec, 0.0)
        bad = SectorConfig(
            d=cfg.d, half_opening=cfg.half_opening, rho=cfg.rho, R=cfg.R,
            alpha_tilde_D=cfg.alpha_tilde_D, delta1=3.0 * cfg.delta1,
            envelope=cfg.envelope,
        )
        with pytest.raises(BoundViolation) as exc:
            pm_lower_bound_report(basic_spec, bad)
        tau, m = exc.value.witness
        assert np.isfinite(m) and np.isfinite(abs(tau))


class TestInversion:
    def test_hand_recursion_values(self):
        # Q=2, R_D=1, d_D=1, alpha~=1: f = [1, 1, 4/3, 12/7, ...]
        spec = tiny_scalar_spec()
        cfg = hand_config(spec, rho=math.sqrt(2.0), R=0.5)
        f = inv_pm_taylor(0.0, spec, cfg, 3)
        np.testing.assert_allclose(
            f.real, [1.0, 1.0, 4.0 / 3.0, 12.0 / 7.0], rtol=1e-13
        )
        np.testing.assert_allclose(f.imag, 0.0, atol=1e-14)

    def test_vectorised_over_grid(self, basic_spec):
        cfg = select_sector(basic_spec, 0.0)
        f = inv_pm_taylor(basic_spec.space.m, basic_spec, cfg, 5)
        assert f.shape == (6, basic_spec.space.size)
        single = inv_pm_taylor(float(basic_spec.space.m[10]), basic_spec, cfg, 5)
        np.testing.assert_allclose(f[:, 10], single, rtol=1e-13)

    @pytest.mark.parametrize("m", [0.0, 1.7])
    def test_against_contour_oracle(self, basic_spec, m):
        # Cauchy coefficients on |omega| = R with 512 nodes; the disc is
        # singularity free since delta_1 > 0
        cfg = select_sector(basic_spec, 0.0)
        f = inv_pm_taylor(m, basic_spec, cfg, 10)
        nodes = 512
        th = 2.0 * np.pi * np.arange(nodes) / nodes
        omega = cfg.R * np.exp(1j * th)
        vals = 1.0 / eval_Pm(omega, m, basic_spec)
        for p in range(11):
            oracle = np.mean(vals * np.exp(-1j * p * th)) / cfg.R ** p
            assert abs(f[p] - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_divergent_inversion(self):
        spec = tiny_scalar_spec(Q=1.0, R_D=1.0)
        cfg = hand_config(spec, rho=math.sqrt(2.0), R=0.5)
        with pytest.raises(DivergentInversion):
            inv_pm_taylor(0.0, spec, cfg, 3)
