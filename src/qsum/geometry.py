"""Problem descriptions and the geometry that makes the summation work.

A problem couples a q-difference operator of infinite order (the
q-exponential of a twisted shift), finitely many Mahler-type terms, and a
forcing, all acting on frequency-grid coefficient functions. Before any
transform runs, a direction has to be selected so that the image of the
candidate sector under ``tau -> alpha~ * tau^{d}`` stays clear of the zero
cone of the q-exponential, and the separation ``delta_1`` between the
symbol ratio and the q-exponential image has to be measured, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    BadDirection,
    BoundViolation,
    DivergentInversion,
    EnvelopeViolation,
    OverflowFailure,
    SmallDelta,
    ValidationError,
)
from .fourier import FourierFn, FourierSpace, KernelBand, enorm, kernel_band
from .qcore import GrowthEnvelope, QParams, envelope_check, exp_q, mu_growth, q_number


def poly_eval_im(coeffs: np.ndarray, m) -> np.ndarray:
    """Evaluate a low-to-high coefficient polynomial at ``i m``."""
    return npoly.polyval(1j * np.asarray(m, dtype=float), np.asarray(coeffs))


def poly_degree(coeffs) -> int:
    arr = np.asarray(coeffs)
    nz = np.nonzero(np.abs(arr) > 0)[0]
    if nz.size == 0:
        raise ValidationError("zero polynomial has no degree")
    return int(nz[-1])


@dataclass(frozen=True, eq=False)
class MahlerTerm:
    """One coupling term: ``a(z) * (t^l0 shift^l1 R(d_z) u)(t^l2, z)``.

    ``l2 = 1`` is a plain twisted shift, ``l2 >= 2`` adds the Mahler
    substitution ``t -> t^l2``. ``R`` is a low-to-high coefficient list and
    ``A`` the frequency profile of the coefficient ``a(z)``.  Derived once,
    for every realisation of the term: ``symbol = R(im)`` on ``A``'s grid
    and ``band``, the `kernel_band` of ``A`` that the convolution uses.
    """

    l0: int
    l1: int
    l2: int
    R: np.ndarray
    A: FourierFn
    symbol: np.ndarray = field(init=False, repr=False, compare=False)
    band: KernelBand = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("l0", "l1", "l2"):
            v = getattr(self, name)
            if not isinstance(v, int):
                raise ValidationError(f"{name} must be an integer")
        if self.l0 < 1 or self.l2 < 1 or self.l1 < 0:
            raise ValidationError("need l0 >= 1, l1 >= 0, l2 >= 1")
        r = np.asarray(self.R, dtype=complex)
        r.setflags(write=False)
        object.__setattr__(self, "R", r)
        symbol = poly_eval_im(r, self.A.space.m)
        symbol.setflags(write=False)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "band", kernel_band(self.A.space, self.A.values))


@dataclass(frozen=True, eq=False)
class ForcingTerm:
    """Forcing monomial in ``t`` of power ``j`` with frequency profile ``F``."""

    j: int
    F: FourierFn

    def __post_init__(self):
        if not isinstance(self.j, int) or self.j < 1:
            raise ValidationError("forcing power j must be an integer >= 1")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full problem data on one frequency grid.

    ``Q`` and ``R_D`` are the left and dominant-right symbols (low-to-high
    coefficients), ``alpha_D > 0`` and ``d_D >= 1`` shape the infinite
    order operator, ``terms`` the Mahler couplings, ``forcing`` the
    inhomogeneity. All grid functions must share ``space``.  Derived once:
    the symbols ``q_symbol = Q(im)`` and ``rd_symbol = R_D(im)`` on the grid.
    """

    Q: np.ndarray
    R_D: np.ndarray
    alpha_D: float
    d_D: int
    terms: tuple
    forcing: tuple
    params: QParams
    space: FourierSpace
    q_symbol: np.ndarray = field(init=False, repr=False, compare=False)
    rd_symbol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "Q", _frozen_array(self.Q))
        object.__setattr__(self, "R_D", _frozen_array(self.R_D))
        for name, coeffs in (("q_symbol", self.Q), ("rd_symbol", self.R_D)):
            object.__setattr__(self, name, _frozen_array(poly_eval_im(coeffs, self.space.m)))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "forcing", tuple(self.forcing))
        if self.alpha_D <= 0:
            raise ValidationError("alpha_D must be positive")
        if not isinstance(self.d_D, int) or self.d_D < 1:
            raise ValidationError("d_D must be an integer >= 1")
        for t in self.terms:
            if not t.A.space.same_grid(self.space):
                raise ValidationError("a coupling profile lives on a foreign grid")
        for f in self.forcing:
            if not f.F.space.same_grid(self.space):
                raise ValidationError("a forcing profile lives on a foreign grid")

    def _symbols(self, m):
        """``Q(im)`` and ``R_D(im)``: on the spec's own grid ``m``, its own."""
        if m is self.space.m:
            return self.q_symbol, self.rd_symbol
        return poly_eval_im(self.Q, m), poly_eval_im(self.R_D, m)


def _frozen_array(x):
    arr = np.asarray(x, dtype=complex)
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def alpha_tilde(spec: ProblemSpec) -> float:
    """Deformed amplitude ``alpha_D / q^(d_D(d_D-1)/(2k))``."""
    e = Fraction(spec.d_D * (spec.d_D - 1), 2 * spec.params.k)
    return spec.alpha_D / spec.params.q ** float(e)


@dataclass(frozen=True)
class ConditionReport:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    conditions: tuple
    ratio_min: float
    ratio_max: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failures(self):
        return [c for c in self.conditions if not c.ok]


def validate_spec(spec: ProblemSpec) -> ValidationReport:
    """Check the structural inequalities and the symbol hypotheses.

    Everything measurable is measured on the grid: nonvanishing of the
    symbols, the ratio corridor, finiteness of the decay certificates.
    The three index inequalities are evaluated in exact rational
    arithmetic.
    """
    conds = []
    k = spec.params.k

    for i, t in enumerate(spec.terms):
        ok = Fraction(t.l1) <= Fraction(t.l0, k) - 1
        conds.append(
            ConditionReport(
                f"shift-order bound term[{i}]",
                ok,
                f"l1={t.l1} vs l0/k-1={Fraction(t.l0, k) - 1}",
            )
        )

    mahler_ratios = [t.l2 for t in spec.terms if t.l2 >= 2]
    if mahler_ratios:
        bound = max(math.sqrt(k / (l2 ** 2 - 1)) for l2 in mahler_ratios)
        conds.append(
            ConditionReport(
                "leading-power vs Mahler ratios",
                spec.d_D > bound,
                f"d_D={spec.d_D} must exceed {bound:.6g}",
            )
        )

    try:
        dq, dr = poly_degree(spec.Q), poly_degree(spec.R_D)
        conds.append(
            ConditionReport("deg Q = deg R_D", dq == dr, f"deg Q={dq}, deg R_D={dr}")
        )
        for i, t in enumerate(spec.terms):
            dl = poly_degree(t.R)
            conds.append(
                ConditionReport(
                    f"deg R term[{i}] <= deg R_D", dl <= dr, f"{dl} vs {dr}"
                )
            )
    except ValidationError as exc:
        conds.append(ConditionReport("polynomial degrees", False, str(exc)))

    qv, rv = spec.q_symbol, spec.rd_symbol
    min_q, min_r = float(np.min(np.abs(qv))), float(np.min(np.abs(rv)))
    conds.append(
        ConditionReport("Q(im) nonvanishing", min_q > 1e-12, f"min |Q(im)| = {min_q:.3g}")
    )
    conds.append(
        ConditionReport(
            "R_D(im) nonvanishing", min_r > 1e-12, f"min |R_D(im)| = {min_r:.3g}"
        )
    )

    if min_r > 0:
        ratio = np.abs(qv / rv)
        r1, r2 = float(np.min(ratio)), float(np.max(ratio))
    else:
        r1, r2 = 0.0, math.inf
    conds.append(
        ConditionReport("ratio corridor finite", math.isfinite(r2), f"[{r1:.4g}, {r2:.4g}]")
    )

    for i, t in enumerate(spec.terms):
        c = enorm(t.A)
        conds.append(
            ConditionReport(
                f"coupling certificate term[{i}]", math.isfinite(c), f"C = {c:.4g}"
            )
        )
    for i, f in enumerate(spec.forcing):
        c = enorm(f.F)
        conds.append(
            ConditionReport(
                f"forcing certificate [{i}]", math.isfinite(c), f"C = {c:.4g}"
            )
        )

    return ValidationReport(tuple(conds), r1, r2)


@dataclass(frozen=True)
class SectorConfig:
    """Admissible direction with its certified radii and separation.

    ``rho`` is the disc radius keeping the q-exponential argument inside
    its small disc; ``R < rho`` is the working radius of the coefficient
    series; ``delta1`` the measured separation between the symbol ratio
    and the q-exponential image; ``envelope`` the fitted sector bounds of
    the q-exponential along the image sector.
    """

    d: float
    half_opening: float
    rho: float
    R: float
    alpha_tilde_D: float
    delta1: float
    envelope: GrowthEnvelope

    def __post_init__(self):
        if not (0.0 < self.R < self.rho):
            raise ValidationError("need 0 < R < rho")


def eval_Pm(tau, m, spec: ProblemSpec):
    """Denominator symbol ``Q(im) - exp_q(alpha~ tau^{d_D}) R_D(im)``.

    Broadcasts over ``tau`` and ``m``; ``tau`` is an ordinary complex
    variable (the symbol is single valued in it).
    """
    at = alpha_tilde(spec)
    tarr = np.asarray(tau, dtype=complex)
    e = exp_q(at * tarr ** spec.d_D, spec.params)
    qv, rv = spec._symbols(m)
    out = qv - np.asarray(e) * rv
    return complex(out) if np.ndim(out) == 0 else out


def _exp_image(spec, config_at, d, ho, radii, n_rays):
    phis = np.linspace(d - ho, d + ho, n_rays)
    tau = (radii[:, None] * np.exp(1j * phis[None, :])).ravel()
    return tau, exp_q(config_at * tau ** spec.d_D, spec.params)


def _min_distance(
    curve: np.ndarray, points: np.ndarray, taus: np.ndarray, ms: np.ndarray
) -> tuple[float, int, int]:
    """Min over pairs of |curve_i - points_j| and the lowest ``(i, j)`` at it.

    Exact: the same bits and indices as scanning every pair in 512-point
    chunks of ``points``, earliest chunk first.  It scans each distinct
    curve value once, visits chunks by a lower bound from their bounding
    boxes and stops when that bound exceeds the best distance; inside a
    chunk it drops the curve values farther than that from the box.  The
    ``1e-12`` slack covers the rounding of the bounds.

    Raises:
        OverflowFailure: a curve value or a point is not finite, so a chunk's
            minimum would be NaN; the witness is its ``ms`` or ``taus`` entry.
    """
    for vals, at, what in ((curve, ms, "symbol ratio {} is not finite at m = {:.6g}"),
                           (points, taus, "q-exponential image {} is not finite at tau = {:.6g}")):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            witness = at[bad[0]].item()
            raise OverflowFailure(what.format(vals[bad[0]], witness), witness=witness)
    rows = np.sort(np.unique(curve, return_index=True)[1])
    uc = curve[rows]
    starts = np.arange(0, points.size, 512)
    lo_re, hi_re, lo_im, hi_im = (f.reduceat(part, starts)[:, None]
                                  for part in (points.real, points.imag)
                                  for f in (np.minimum, np.maximum))
    gap = np.hypot(np.maximum(np.maximum(lo_re - uc.real, uc.real - hi_re), 0.0),
                   np.maximum(np.maximum(lo_im - uc.imag, uc.imag - hi_im), 0.0))
    bound = gap.min(axis=1)
    best, bc, bi, bj = math.inf, -1, 0, 0
    for c in np.argsort(bound, kind="stable"):
        if bound[c] > best * (1.0 + 1e-12):
            break
        near = np.flatnonzero(gap[c] <= best * (1.0 + 1e-12))
        d = np.abs(uc[near, None] - points[starts[c] : starts[c] + 512][None, :])
        i, j = np.unravel_index(np.argmin(d), d.shape)
        if d[i, j] < best or (d[i, j] == best and c < bc):
            best, bc = float(d[i, j]), c
            bi, bj = int(rows[near[i]]), int(starts[c] + j)
    return best, bi, bj


# Sector scans sample _SCAN rays by _SCAN radii.  A certified sector keeps
# the half-angle _THETA_EXCL clear of the negative axis, where exp_q has its
# zeros, and a separation delta_1 of at least _DELTA_FLOOR; its radius R is
# _R_FRACTION of rho.
_SCAN = 64
_THETA_EXCL = math.pi / 6
_DELTA_FLOOR = 1e-8
_R_FRACTION = 0.75


def select_sector(spec: ProblemSpec, requested_d: float) -> SectorConfig:
    """Certify a direction: envelope on the image sector, measured delta_1.

    The candidate half-opening is halved until the image sector (opening
    scaled by ``d_D``) passes the envelope check; the separation
    ``delta_1 = min |Q/R_D - exp_q(alpha~ tau^{d_D})|`` is then measured
    over the disc of radius ``rho`` and the sector sampled out to
    ``100 rho`` on a log-radial grid.  The scan over those samples is
    exact: it skips only pairs that cannot hold the minimum, so ``delta_1``
    is the minimum over every pair.

    Raises:
        BadDirection: no opening around ``requested_d`` clears the zero cone.
        SmallDelta: measured separation below ``_DELTA_FLOOR``; the witness
            is the ``(tau, m)`` of the nearest pair.
        OverflowFailure: a sampled q-exponential image point or a symbol
            ratio value is not finite; the witness is its tau or its m.
        ValidationError: ``_THETA_EXCL`` is out of range.
    """
    at = alpha_tilde(spec)
    q = spec.params.q
    rho = (q ** 0.5 / ((q - 1.0) * at)) ** (1.0 / spec.d_D)

    ho = math.pi / (4.0 * spec.d_D)
    env = None
    for _ in range(8):
        try:
            env = envelope_check(
                spec.d_D * requested_d, spec.d_D * ho, spec.params, _THETA_EXCL
            )
            break
        except EnvelopeViolation:
            ho *= 0.5
    if env is None:
        raise BadDirection(
            f"no admissible opening around direction {requested_d:.6g} "
            f"(image sector keeps meeting the excluded cone)"
        )

    ratio = spec.q_symbol / spec.rd_symbol

    disc_r = np.linspace(0.0, rho, _SCAN + 1)[1:]
    disc_phi = np.linspace(-math.pi, math.pi, _SCAN, endpoint=False)
    disc_tau = (disc_r[:, None] * np.exp(1j * disc_phi[None, :])).ravel()
    disc_img = exp_q(at * disc_tau ** spec.d_D, spec.params)
    sect_r = np.logspace(math.log10(1e-3 * rho), math.log10(100.0 * rho), _SCAN)
    sect_tau, sect_img = _exp_image(spec, at, requested_d, ho, sect_r, _SCAN)

    taus = np.concatenate([disc_tau, sect_tau])
    delta1, i, j = _min_distance(
        ratio, np.concatenate([disc_img, sect_img]), taus, spec.space.m
    )
    if delta1 < _DELTA_FLOOR:
        raise SmallDelta(
            f"measured separation {delta1:.3e} below floor {_DELTA_FLOOR:.1e}; "
            "the symbol ratio meets the q-exponential image",
            witness=(complex(taus[j]), float(spec.space.m[i])),
        )

    return SectorConfig(
        d=requested_d,
        half_opening=ho,
        rho=rho,
        R=_R_FRACTION * rho,
        alpha_tilde_D=at,
        delta1=delta1,
        envelope=env,
    )


@dataclass(frozen=True)
class PmBoundReport:
    """Measured lower-bound data for the denominator symbol."""

    delta1: float
    min_margin: float
    far_field_constant: float
    gap_ok: bool
    gap_detail: str


def pm_lower_bound_report(spec: ProblemSpec, config: SectorConfig) -> PmBoundReport:
    """Verify ``|P_m(tau)| >= delta1 |R_D(im)|`` on fresh samples and fit
    the far-field constant in front of ``exp(mu(alpha~ |tau|^{d_D}))``.

    Samples the disc and the sector (offset from the selection grid of
    ``_SCAN`` rays by ``_SCAN`` radii), and the far annulus
    ``[r_far, 100 r_far]``, ``r_far = max(1, rho)``, along the sector.

    Raises:
        BoundViolation: a sample lands below ``delta1 |R_D|``; the witness
            carries the offending ``(tau, m)``.
        OverflowFailure: a sampled q-exponential image point or a symbol
            ratio value is not finite; the witness is its tau or its m.
    """
    at = config.alpha_tilde_D
    ratio = spec.q_symbol / spec.rd_symbol
    m_grid = spec.space.m

    phis = np.linspace(
        config.d - config.half_opening, config.d + config.half_opening, _SCAN + 1
    )  # +1 offsets nodes from the selection pass
    radii = np.logspace(math.log10(2e-3 * config.rho), math.log10(90.0 * config.rho), _SCAN + 1)
    disc_r = np.linspace(0.0, config.rho, _SCAN)[1:]
    disc_phi = np.linspace(-math.pi, math.pi, _SCAN + 2, endpoint=False)

    tau_sets = [
        (radii[:, None] * np.exp(1j * phis[None, :])).ravel(),
        (disc_r[:, None] * np.exp(1j * disc_phi[None, :])).ravel(),
    ]
    min_margin = math.inf
    for taus in tau_sets:
        img = exp_q(at * taus ** spec.d_D, spec.params)
        dist, i, j = _min_distance(ratio, img, taus, m_grid)
        margin = dist / config.delta1
        if dist < config.delta1 * (1.0 - 1e-9):
            raise BoundViolation(
                f"|P_m| = {dist:.6e} |R_D| below delta1 = {config.delta1:.6e} |R_D|",
                witness=(complex(taus[j]), float(m_grid[i])),
            )
        min_margin = min(min_margin, margin)

    r_far = max(1.0, config.rho)
    far_r = np.logspace(math.log10(r_far), math.log10(100.0 * r_far), _SCAN)
    far_phis = np.linspace(
        config.d - config.half_opening, config.d + config.half_opening, 8
    )
    fit = math.inf
    uniq = np.unique(ratio)
    for phi in far_phis:
        taus = far_r * np.exp(1j * phi)
        img = exp_q(at * taus ** spec.d_D, spec.params)
        # per-tau distance to the ratio curve, normalised by the envelope
        d = np.abs(uniq[None, :] - img[:, None]).min(axis=1)
        envv = [math.exp(mu_growth(at * abs(tau) ** spec.d_D, spec.params)) for tau in taus]
        fit = min(fit, float(np.min(d / envv)))

    # corridor gap: the ratio must sit below both the disc floor and the
    # sector floor of |exp_q|
    _, r2 = float(np.min(np.abs(ratio))), float(np.max(np.abs(ratio)))
    x0 = spec.params.q ** 0.5 / (spec.params.q - 1.0)
    xs = np.logspace(math.log10(x0), 4.0, 400)
    sector_floor = config.envelope.lower_factor() * float(np.min(np.exp(mu_growth(xs, spec.params))))
    gap_ok = r2 < min(config.envelope.C0, sector_floor)
    gap_detail = (
        f"r2={r2:.4g} vs C0={config.envelope.C0:.4g}, "
        f"sector floor={sector_floor:.4g}"
    )

    return PmBoundReport(
        delta1=config.delta1,
        min_margin=float(min_margin),
        far_field_constant=float(fit),
        gap_ok=gap_ok,
        gap_detail=gap_detail,
    )


def inv_pm_taylor(m, spec: ProblemSpec, config: SectorConfig, N: int):
    """Coefficients ``f_0 .. f_N`` of ``1/P_m`` around ``tau = 0``.

    Uses the reciprocal-series recursion against the q-exponential Taylor
    coefficients: only powers that are multiples of ``d_D`` carry mass.
    Vectorised over ``m`` (scalar in, scalars out; array in, rows out:
    shape ``(N+1,) + m.shape``).

    Raises:
        DivergentInversion: ``Q(im) - R_D(im)`` vanishes somewhere, so the
            constant term cannot be inverted.
    """
    if N < 0:
        raise ValidationError("need N >= 0")
    q, k = spec.params.q, spec.params.k
    at = config.alpha_tilde_D
    qv, rv = spec._symbols(m)

    # at^n / [n]_q! by recurrence: the quotient only underflows, while the
    # factorial alone overflows at moderate n
    c = np.zeros(N + 1)
    c[0] = coeff = 1.0
    for n in range(1, N // spec.d_D + 1):
        coeff *= at / q_number(n, q)
        c[n * spec.d_D] = coeff

    p0 = qv - rv  # c[0] = 1
    if np.min(np.abs(p0)) < 1e-300:
        raise DivergentInversion("Q(im) = R_D(im) at some m; 1/P has no Taylor series")

    shape = (N + 1,) + np.shape(p0)
    f = np.zeros(shape, dtype=complex)
    f[0] = 1.0 / p0
    steps = [(j, -rv * c[j]) for j in range(spec.d_D, N + 1, spec.d_D) if c[j] != 0.0]
    for p in range(1, N + 1):
        acc = np.zeros(np.shape(p0), dtype=complex)
        for j, step in steps:
            if j <= p:
                acc += step * f[p - j]
        f[p] = -f[0] * acc
    return f
