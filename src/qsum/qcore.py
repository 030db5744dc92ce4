"""q-calculus primitives: q-numbers, the q-exponential, kernels, envelopes.

Throughout, ``q > 1`` is real and ``k >= 1`` is an integer order. Points on
the Riemann surface of the logarithm are represented by :class:`CoveringPoint`
(modulus plus an unreduced angle); the kernel functions are genuinely
multivalued and must never be fed a bare complex number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EnvelopeViolation, ValidationError

_EXPQ_MAX_TERMS = 500
_EXPQ_EPS = 1e-12
# envelope_check samples the image sector at about this many points
_ENVELOPE_SAMPLES = 12000


@dataclass(frozen=True)
class QParams:
    """Base parameters: the deformation ``q > 1`` and the order ``k``."""

    q: float
    k: int = 1

    def __post_init__(self):
        if not (isinstance(self.q, (int, float)) and math.isfinite(self.q)):
            raise ValidationError("q must be a finite real number")
        if self.q <= 1.0:
            raise ValidationError(f"q must satisfy q > 1 strictly, got {self.q}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValidationError(f"k must be an integer >= 1, got {self.k!r}")

    @property
    def log_q(self) -> float:
        return math.log(self.q)


@dataclass(frozen=True)
class CoveringPoint:
    """A point ``r * e^{i theta}`` on the log covering, ``theta`` unreduced.

    Angles are never wrapped: ``CoveringPoint(2, 0)`` and
    ``CoveringPoint(2, 2*pi)`` are different points and the kernels take
    different values on them. Conversion down to the plane is explicit and
    lossy via :meth:`to_complex`.
    """

    r: float
    theta: float

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValidationError(f"covering point needs r > 0, got {self.r}")
        if not math.isfinite(self.theta):
            raise ValidationError("covering point angle must be finite")

    def to_complex(self) -> complex:
        """Project onto the plane. Loses the winding information."""
        return self.r * cmath.exp(1j * self.theta)

    def log(self) -> complex:
        """The (single-valued) logarithm ``log r + i theta`` of this point."""
        return complex(math.log(self.r), self.theta)


def q_number(j: int, q: float) -> float:
    """The q-analog ``[j]_q = 1 + q + ... + q^(j-1)``, with ``[0]_q = 0``."""
    if j < 0:
        raise ValidationError("q-numbers are defined for j >= 0")
    return (q ** j - 1.0) / (q - 1.0)


def exp_q(z, params: QParams):
    r"""The q-exponential ``sum_n z^n / [n]_q!``, entire in ``z``.

    Accepts a scalar or any ``ndarray`` of plane points (the function is
    single valued, so no covering bookkeeping is needed). Each element adds
    terms until its next one falls below ``1e-12 * (1 + |partial sum|)``, so
    its value does not depend on the batch it is in; the series converges for
    every ``z`` because ``[n]_q!`` grows like ``q^{n(n-1)/2}``.

    Raises:
        ConvergenceError: the cap of 500 terms was hit, which means ``|z|``
            was astronomically large.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    work = arr.reshape(-1)
    # a stopped element's total takes no more terms
    live = np.ones(work.shape, dtype=bool)
    total = np.ones_like(work)
    term = np.ones_like(work)
    for n in range(1, _EXPQ_MAX_TERMS + 1):
        term = term * work / q_number(n, params.q)
        np.add(total, term, out=total, where=live)
        live &= ~(np.abs(term) < _EXPQ_EPS * (1.0 + np.abs(total)))
        if not live.any():
            return complex(total[0]) if scalar else total.reshape(arr.shape)
    raise ConvergenceError(
        f"q-exponential did not settle within {_EXPQ_MAX_TERMS} terms "
        f"(max |z| = {float(np.max(np.abs(work))):.3g})"
    )


def mu_growth(x, params: QParams):
    """Radial growth exponent of the q-exponential envelope.

    ``mu(x) = log^2(x) / (2 log q) + (-1/2 + log(q-1)/log q) * log x`` for
    ``x > 0``. Vectorised over ``x``.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0):
        raise ValidationError("mu_growth needs x > 0")
    lx = np.log(xa)
    lq = params.log_q
    out = lx * lx / (2.0 * lq) + (-0.5 + math.log(params.q - 1.0) / lq) * lx
    return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def theta_kernel(z: CoveringPoint, params: QParams) -> complex:
    r"""Multivalued summation kernel evaluated on the covering.

    With ``L = log z`` taken on the covering,

    .. math:: \Theta_k(z) = \exp\Big(-\frac{k}{2\log q}\,L^2 + \frac{L}{2}\Big),

    which for unreduced angles differs between sheets; the modulus depends
    on the angle through ``exp(k theta^2/(2 log q))``, so winding matters.
    """
    if not isinstance(z, CoveringPoint):
        raise ValidationError("theta_kernel takes a CoveringPoint, not a bare complex")
    return complex(theta_kernel_log(z.log(), params))


def theta_kernel_log(log_z, params: QParams):
    """Kernel as a function of the covering logarithm; vectorised."""
    l = np.asarray(log_z, dtype=complex)
    kappa = params.k / (2.0 * params.log_q)
    return np.exp(-kappa * l * l + 0.5 * l)


def recip_kernel_log(log_z, params: QParams, k_order: float | None = None):
    """Reciprocal kernel ``1/Theta`` for a possibly fractional order.

    The deceleration step needs order ``k' = k/(p^2-1)`` which is rational
    but not an integer; ``k_order`` overrides ``params.k`` there.
    """
    l = np.asarray(log_z, dtype=complex)
    k = params.k if k_order is None else k_order
    kappa = k / (2.0 * params.log_q)
    return np.exp(kappa * l * l - 0.5 * l)


def pi_qk(params: QParams) -> float:
    """Normalisation ``q^(-1/(8k)) sqrt(k) / sqrt(2 pi log q)``."""
    k = params.k
    return params.q ** (-1.0 / (8.0 * k)) * math.sqrt(k) / math.sqrt(2.0 * math.pi * params.log_q)


@dataclass(frozen=True)
class GrowthEnvelope:
    """Fitted two-sided envelope for the q-exponential on a sector.

    On the sampled sector, ``|exp_q| <= K1 * exp(mu(|z|))`` and
    ``|exp_q| >= (epsilon/K0) * exp(mu(|z|))`` beyond the inner radius,
    while ``|exp_q| >= C0`` on the closed inner disc. ``epsilon`` is
    ``sin(theta_excl)`` for the excluded half-angle around the negative
    axis where the zeros live.
    """

    K0: float
    K1: float
    C0: float
    epsilon: float
    theta_excl: float

    def lower_factor(self) -> float:
        return self.epsilon / self.K0


def _reduce_angle(phi: float) -> float:
    """Reduce to (-pi, pi]."""
    out = math.fmod(phi + math.pi, 2.0 * math.pi)
    if out <= 0:
        out += 2.0 * math.pi
    return out - math.pi


def envelope_check(
    d: float,
    half_opening: float,
    params: QParams,
    theta_excl: float,
) -> GrowthEnvelope:
    """Fit and verify the sector envelope of the q-exponential.

    The sector ``{arg in [d - half_opening, d + half_opening]}`` (angles
    reduced mod 2*pi, since the q-exponential is single valued) must avoid
    the excluded cone of half-angle ``theta_excl`` around the negative real
    axis. Radii are sampled log-spaced on ``[q^(1/2)/(q-1), 1e4]``; the
    constants are the extremal sampled ratios, so both bounds hold with
    equality somewhere and strictly elsewhere on the sample set.

    Raises:
        EnvelopeViolation: the sector meets the excluded cone, or the lower
            ratio collapses (a zero was sampled).
        ValidationError: ``theta_excl`` outside ``(0, pi/2)``.
    """
    if not (0.0 < theta_excl < math.pi / 2):
        raise ValidationError("theta_excl must lie in (0, pi/2)")
    if not (0.0 < half_opening < math.pi):
        raise ValidationError("half_opening must lie in (0, pi)")

    eps = math.sin(theta_excl)
    n_phi = max(48, int(math.sqrt(_ENVELOPE_SAMPLES)))
    n_r = max(64, -(-_ENVELOPE_SAMPLES // n_phi))  # ceil division
    phis = np.linspace(d - half_opening, d + half_opening, n_phi)
    reduced = np.array([_reduce_angle(p) for p in phis])
    if np.any(np.abs(reduced) >= math.pi - theta_excl):
        worst = float(phis[int(np.argmax(np.abs(reduced)))])
        raise EnvelopeViolation(
            f"sector direction {worst:.6g} enters the excluded cone around the negative axis"
        )

    q = params.q
    r_inner = q ** 0.5 / (q - 1.0)
    radii = np.logspace(math.log10(r_inner), 4.0, n_r)
    zs = radii[:, None] * np.exp(1j * reduced[None, :])
    ratios = np.abs(exp_q(zs, params)) / np.exp(mu_growth(radii, params))[:, None]
    ratio_min = float(np.min(ratios))
    ratio_max = float(np.max(ratios))
    if ratio_min < 1e-13:
        raise EnvelopeViolation("lower envelope collapsed; a zero of exp_q was sampled")

    disc_r = np.linspace(0.0, r_inner, 80)[1:]
    disc_phi = np.linspace(-math.pi, math.pi, 160, endpoint=False)
    disc = disc_r[:, None] * np.exp(1j * disc_phi[None, :])
    c0 = min(float(np.min(np.abs(exp_q(disc, params)))), abs(exp_q(0.0, params)))

    return GrowthEnvelope(
        K0=eps / ratio_min, K1=ratio_max, C0=c0, epsilon=eps, theta_excl=theta_excl
    )
