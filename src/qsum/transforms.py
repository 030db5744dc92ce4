"""Quadrature realisations of the Borel--Laplace machinery.

The formal layer (`series`) moves coefficients around; this module does the
analysis: the Laplace integral along a ray of the covering surface, the
inverse (Borel) contour integral over a covering circle, and the
deceleration contour that realises the Mahler substitution analytically.
Two ray sums turn a Borel-plane fixed point into functions of ``(t, z)``:
`gq_sum` is the solution ``u(t, z)``, and `_term_sum` is each term of the
equation it solves, which `theorem2_residual` compares.

Conventions used throughout:

* Ray integrals run in ``s = log|u|`` at fixed direction, where the kernel
  modulus is a Gaussian ``exp(-kappa (s_T - s)^2 + ...)`` with
  ``kappa = k/(2 log q)``.  Trapezoid sums then converge superalgebraically
  in the step and the only error sources are the step (aliasing) and the
  finite window (tail), both of which the window builders control.
* Contour integrals run in the covering angle ``t`` at fixed radius with
  ``dx/x = i dt``; the contour is traversed with increasing ``t``.  This
  orientation together with the ``-i`` in the Borel prefactor makes the
  monomial identities come out with the signs used here; it is recorded in
  run manifests because the opposite convention flips the sign of every
  contour value.
* Windows are either prescribed (`RayQuadrature`, `CircleContour`) or built
  automatically from a tail target by probing the actual integrand, never
  from growth assumptions alone.
* Ray nodes are ``s = j * step`` for integers ``j``, probed ones on the
  `s_lattice`; ``refined()`` halves the step and widens the window by a quarter,
  so both error sources shrink and a node is the same float at every level.

Error budgets reported by the residual drivers are documented estimates,
not bounds: the window term is the measured edge level times the Gaussian
tail mass, the step term is a refine-and-compare difference, and the
evaluator floor is the series truncation estimate of the continuation.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainTooLarge,
    DomainViolation,
    QuadratureStall,
    ValidationError,
    ZeroDivision,
)
from .fourier import _ROWS, INV_SQRT_2PI, _contract, convolve_values, inverse_fourier_table
from .geometry import ProblemSpec, SectorConfig, eval_Pm
from .qcore import CoveringPoint, QParams, exp_q, pi_qk, recip_kernel_log, theta_kernel_log
from .series import TruncatedSeries, borel_exponent, coupling_exponent


def _kappa(params: QParams, k_order: float | None = None) -> float:
    k = params.k if k_order is None else k_order
    return k / (2.0 * params.log_q)


# ---------------------------------------------------------------------------
# quadrature descriptions


def _trapezoid(h: float, nodes: int) -> np.ndarray:
    """Weights of the trapezoid rule of step ``h`` on ``nodes`` points."""
    w = np.full(nodes, h)
    w[[0, -1]] *= 0.5
    return w


def s_lattice(params: QParams) -> float:
    """The step of every probed ray window, ``log(q)/(k m)`` about 0.25: a
    coupling's ``log c = (l1 - l0/k) log q`` keeps a node on it, and ladders collide."""
    mstep = max(1, int(round(params.log_q / (params.k * 0.25))))
    return params.log_q / (params.k * mstep)


@dataclass(frozen=True)
class RayQuadrature:
    """Ray ``u = e^{s + i theta_d}``, trapezoid nodes ``s = j * step`` for the
    integers ``j_min <= j <= j_max``."""

    theta_d: float
    step: float
    j_min: int
    j_max: int

    def __post_init__(self):
        if not self.step > 0:
            raise ValidationError("need step > 0")
        if self.j_max - self.j_min < 7:
            raise ValidationError("need at least 8 nodes")

    def s_grid(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1) * self.step

    def weights(self) -> np.ndarray:
        return _trapezoid(self.step, self.j_max - self.j_min + 1)

    def refined(self) -> "RayQuadrature":
        """Half the step, the window a quarter wider, snapped outward."""
        pad = -(-(self.j_max - self.j_min) // 4)
        return RayQuadrature(self.theta_d, self.step / 2.0, 2 * self.j_min - pad,
                             2 * self.j_max + pad)


@dataclass(frozen=True)
class CircleContour:
    """Covering circle ``x = radius * e^{i t}``, ``t in [theta_min, theta_max]``."""

    radius: float
    theta_min: float
    theta_max: float
    nodes: int

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("radius must be positive")
        if not self.theta_min < self.theta_max:
            raise ValidationError("need theta_min < theta_max")
        if self.nodes < 8:
            raise ValidationError("need at least 8 nodes")

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.nodes)

    def weights(self) -> np.ndarray:
        return _trapezoid((self.theta_max - self.theta_min) / (self.nodes - 1), self.nodes)

    def refined(self) -> "CircleContour":
        c = 0.5 * (self.theta_min + self.theta_max)
        half = 0.5 * (self.theta_max - self.theta_min) * math.sqrt(2.0)
        return CircleContour(self.radius, c - half, c + half, 2 * self.nodes)


def ray_window(
    T: CoveringPoint,
    params: QParams,
    *,
    growth: float = 0.0,
    tail: float = 1e-12,
    step: float = 0.12,
) -> RayQuadrature:
    """Window for the Laplace integrand of something growing like ``u^growth``.

    The exponent ``-kappa (s_T - s)^2 + (1/2)(s_T - s) + growth * s`` peaks
    at ``s_T + (growth - 1/2)/(2 kappa)``; the window covers the peak out to
    where the Gaussian has dropped to ``tail``.
    """
    kap = _kappa(params)
    center = math.log(T.r) + (growth - 0.5) / (2.0 * kap)
    half = math.sqrt(max(math.log(1.0 / tail), 1.0) / kap) + 0.5
    return RayQuadrature(T.theta, step, math.floor((center - half) / step),
                         math.ceil((center + half) / step))


def contour_window(
    theta_center: float,
    radius: float,
    params: QParams,
    *,
    k_order: float | None = None,
    tail: float = 1e-12,
    step: float = 0.3,
) -> CircleContour:
    """Window for a Borel-type contour kernel centred at ``theta_center``."""
    kap = _kappa(params, k_order)
    half = math.sqrt(max(math.log(1.0 / tail), 1.0) / kap) + 0.25
    n = max(8, int(math.ceil(2.0 * half / step)) + 1)
    return CircleContour(radius, theta_center - half, theta_center + half, n)


# ---------------------------------------------------------------------------
# scalar transforms


def _stabilise(value_at, quad, eps_rel: float, what: str) -> complex:
    """Node-doubling check: accept once two consecutive levels agree."""
    v1 = value_at(quad)
    q2 = quad.refined()
    v2 = value_at(q2)
    scale = max(abs(v1), abs(v2), 1e-300)
    if abs(v1 - v2) <= eps_rel * scale:
        return v2
    v3 = value_at(q2.refined())
    if abs(v2 - v3) <= eps_rel * max(abs(v2), abs(v3), 1e-300):
        return v3
    raise QuadratureStall(
        f"{what}: node doubling did not settle "
        f"(|d1| = {abs(v1 - v2):.3g}, |d2| = {abs(v2 - v3):.3g}, scale {scale:.3g})"
    )


def q_laplace(
    f,
    T: CoveringPoint,
    quad: RayQuadrature | None = None,
    *,
    params: QParams,
    growth: float = 0.0,
    check: bool = True,
) -> complex:
    """Laplace integral ``pi_{q,k} int Theta_k(T/u) f(u) du/u`` along a ray.

    ``f`` is called with an ndarray of plane points ``e^{s + i theta_d}``
    and must broadcast.  With no ``quad`` the ray direction is ``T``'s own
    angle (the value does not depend on the direction within the admissible
    family) and the window is `ray_window`'s for ``growth``.  With ``check``
    the value is accepted once two node doublings agree to 1e-9.

    Raises:
        QuadratureStall: node doubling failed to stabilise the value.
    """

    def value_at(qd: RayQuadrature) -> complex:
        s = qd.s_grid()
        kern = theta_kernel_log((math.log(T.r) - s) + 1j * (T.theta - qd.theta_d), params)
        vals = np.broadcast_to(f(np.exp(s + 1j * qd.theta_d)), s.shape)
        return complex(pi_qk(params) * _contract(qd.weights() * kern, vals))

    if quad is None:
        quad = ray_window(T, params, growth=growth)
    return _stabilise(value_at, quad, 1e-9, "q_laplace") if check else value_at(quad)


def _contour_value(vals, log_y, weights: np.ndarray, params: QParams, k_order: float | None = None):
    """Borel-type contour sum ``pref int vals / Theta_k(x/h) dx/x`` at nodes
    ``log(x/h) = log_y``: a value for (n,) ``vals``, a row for (n, G) ones."""
    k = params.k if k_order is None else k_order
    pref = -1j * params.q ** (1.0 / (8.0 * k)) * math.sqrt(k)
    pref /= math.sqrt(2.0 * math.pi * params.log_q)
    kern = recip_kernel_log(log_y, params, k_order=k)
    return pref * _contract(weights * kern, vals) * 1j


def q_borel_analytic(
    phi,
    xi: CoveringPoint,
    *,
    params: QParams,
    step: float = 0.2,
) -> complex:
    """Analytic Borel transform: contour integral against the inverse kernel.

    ``phi`` is called once per node with a `CoveringPoint` on the circle (it
    may be multivalued in the angle).  The contour is built at radius 0.5
    centred on ``xi``'s angle, where the kernel Gaussian in the covering
    angle peaks, and checked by node doubling to 1e-8.
    """

    def value_at(ct: CircleContour) -> complex:
        pts = [CoveringPoint(ct.radius, float(t)) for t in ct.t_grid()]
        vals = np.array([phi(p) for p in pts], dtype=complex)
        log_y = (math.log(ct.radius) - math.log(xi.r)) + 1j * (ct.t_grid() - xi.theta)
        return complex(_contour_value(vals, log_y, ct.weights(), params))

    contour = contour_window(xi.theta, 0.5, params, step=step)
    return _stabilise(value_at, contour, 1e-8, "q_borel_analytic")


def _deceleration_window(p: int, params: QParams) -> CircleContour:
    """The angles of `_deceleration_contour` about ``arg h``."""
    return contour_window(0.0, 1.0, params, k_order=params.k / (p * p - 1.0), tail=1e-13)


def _deceleration_contour(f, p: int, l0: int, log_h, params: QParams, window, disc=None):
    """Order-``p`` deceleration of ``f`` at each ``h = exp(log_h)``: (S,) or (S, G).

    The Borel-type contour at order ``k' = k/(p^2-1)`` on ``x -> f(x q^{-k''})``,
    ``k'' = (p^2-p)/(2k)``, gives ``q^{e(n) - e(pn)}`` on monomials.  ``f`` maps
    (n,) plane points to (n,) values or (n, G) rows and starts at ``x^{l0+1}``.
    The radius ``min(cap, |h| e^{a*})``, ``a* = -min(3, (l0 + 1/2)/(2 kappa'))``,
    is that power's kernel saddle (a fixed radius would cost
    ``exp(kappa' log^2(rc/|h|))`` digits); ``cap = 0.7 disc q^{k''}`` keeps
    ``f``'s arguments within ``0.7 disc``, and there is no cap without a ``disc``.
    """
    k_prime = params.k / (p * p - 1.0)
    k_dd = (p * p - p) / (2.0 * params.k)
    shift = params.q ** (-k_dd)
    cap = math.inf if disc is None else 0.7 * disc * params.q**k_dd
    a_star = -min(3.0, (l0 + 0.5) / (2.0 * _kappa(params, k_prime)))
    tg, w = window.t_grid(), window.weights()
    out = []
    for lh in log_h:
        rc = min(cap, math.exp(lh.real + a_star))
        x = rc * np.exp(1j * (tg + lh.imag))
        log_y = (math.log(rc) - lh.real) + 1j * tg
        out.append(_contour_value(f(x * shift), log_y, w, params, k_prime))
    return np.array(out)


def deceleration_integral(
    f,
    p: int,
    h: CoveringPoint,
    *,
    params: QParams,
) -> complex:
    """Contour form of the order-``p`` deceleration of ``f``, evaluated at ``h``.

    The one-value case of `_deceleration_contour` (``f`` starting at ``x^1``,
    entire: no disc caps the radius), checked by node doubling to 1e-8.  ``f``
    is called with ndarrays of plane points.
    """
    if p < 2:
        raise ValidationError("deceleration needs p >= 2")
    log_h = [complex(math.log(h.r), h.theta)]

    def value_at(ct: CircleContour) -> complex:
        return complex(_deceleration_contour(f, p, 0, log_h, params, ct)[0])

    return _stabilise(value_at, _deceleration_window(p, params), 1e-8, "deceleration_integral")


# ---------------------------------------------------------------------------
# Borel-plane evaluators


class SeparableOmega:
    """Closed-form ``omega(u, m) = radial(u) * profile(m)``; valid everywhere.

    ``radial`` must broadcast over ndarrays.  Used for oracles and for the
    asymptotic-rate fixtures where the radial factor is known exactly.
    """

    def __init__(self, radial, profile: np.ndarray):
        self.radial = radial
        self.profile = np.asarray(profile, dtype=complex)

    def ray_values(self, radii, theta: float) -> np.ndarray:
        return self.values_batch(np.asarray(radii) * cmath.exp(1j * theta))

    def values_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.radial(np.asarray(pts, dtype=complex)))[:, None] * self.profile[None, :]


class PolynomialOmega:
    """Finite sum ``sum_j rows[j] u^{p_j}`` with grid-valued rows; exact."""

    def __init__(self, powers, rows):
        self.powers = [int(p) for p in powers]
        self.rows = np.array(rows, dtype=complex)

    def ray_values(self, radii, theta: float) -> np.ndarray:
        return _power_sum(self.powers, self.rows, np.log(radii) + 1j * theta)

    def polynomial(self):
        return self.powers, self.rows


_PIECE = 15


def _power_sum(powers, rows, log_u, logmag=0.0) -> np.ndarray:
    """``sum_j rows[j] e^{logmag_j} u^{p_j}`` at the nodes ``log u``, (S,) or
    scalar: power rows times ``rows`` through `_contract` in pieces of at most
    _PIECE powers (a product over 16 or more gets other last bits in a batch
    than alone), added in order, so a node's row is the same in any batch."""
    log_u = np.asarray(log_u)[..., None]
    terms = np.exp(logmag + np.asarray(powers, dtype=float) * log_u)
    out = _contract(terms[..., :_PIECE], rows[:_PIECE])
    for i in range(_PIECE, len(rows), _PIECE):
        out += _contract(terms[..., i : i + _PIECE], rows[i : i + _PIECE])
    return out


def _series_radius(series: TruncatedSeries, target: float, cap: float) -> float:
    """Radius where the top order of ``series`` falls to ``target`` times its
    coefficient scale, at most ``cap``; ``cap`` where the top order is zero."""
    scale = float(np.max(np.abs(series.coeffs)))
    top = float(np.max(np.abs(series.coeffs[-1])))
    if top > 0:
        return min(cap, (target * scale / top) ** (1.0 / series.order))
    return cap


@functools.lru_cache(maxsize=64)
def _shift_factors(l0: int, l1: int, params: QParams) -> tuple[float, float]:
    """A coupling bracket's shift ``c = q^{l1 - l0/k}`` and its ``q^{e(l0)}``."""
    return params.q ** (l1 - l0 / params.k), params.q ** float(borel_exponent(l0, params.k))


@functools.lru_cache(maxsize=64)
def _decel_logmag(powers: tuple, l0: int, l1: int, l2: int, params: QParams):
    """Exponents ``n = p + l0`` and log magnitudes of the decelerated bracket.

    Monomial ``u^p`` of the evaluator carries ``q**E(p)``, the coupling's
    Borel-plane factor (`series.coupling_exponent`): the bracket's twist and
    shift, times the exact deceleration factor.
    """
    exps = np.asarray(powers, dtype=float) + l0
    logmag = params.log_q * np.array(
        [float(coupling_exponent(p, l0, l1, l2, params.k)) for p in powers]
    )
    exps.setflags(write=False)
    logmag.setflags(write=False)
    return exps, logmag


def decelerated_bracket(powers, rows, term, log_h, params: QParams) -> np.ndarray:
    """Mahler bracket of the polynomial ``sum_j rows[j] u^{powers[j]}`` at ``h``.

    The bracket ``y^{l0} q^{-e(l0)} omega(c y)`` decelerated at order ``l2``
    is what the deceleration contour computes; on a polynomial it is the
    finite sum of `_decel_logmag` monomials, so no quadrature is needed.
    Summed in log magnitude so deep evaluations neither overflow nor round
    through the kernel peak.  A scalar ``log_h = log h`` gives one ``(G,)``
    row; an ``(S,)`` array (``l2 (s + i theta_d)`` along a ray) gives all
    ``(S, G)`` rows in one `_power_sum`, bit for bit as one row at a time.

    Raises:
        DomainTooLarge: a monomial's log magnitude exceeds 700; the witness
            holds ``log_h`` of the worst node and that peak log magnitude.
    """
    exps, logmag = _decel_logmag(
        tuple(int(p) for p in powers), term.l0, term.l1, term.l2, params
    )
    log_h = np.asarray(log_h)
    peaks = np.max(logmag + exps * log_h[..., None].real, axis=-1)
    if float(np.max(peaks)) > 700.0:
        worst = np.unravel_index(np.argmax(peaks), peaks.shape)
        raise DomainTooLarge(
            "decelerated bracket overflows at this depth; "
            "the point is outside any certified range",
            witness={
                "log_h": complex(log_h[worst]),
                "peak_log_magnitude": float(peaks[worst]),
            },
        )
    return _power_sum(exps, rows, log_h, logmag)


# the rungs one continuation may fill; a request past them is refused
_MAX_RUNGS = 20000


class ContinuedOmega:
    """Continuation of a Borel-plane fixed point beyond its series disc.

    Inside ``r0`` (where the series' top order falls to 1e-13 of its
    coefficient scale) the truncated series is used directly, as a
    `_power_sum`.  Outside, the value is the right-hand side of the continued
    fixed-point equation (`rhs_at`).  A shift coupling reads it at ``c u``,
    ``c = q^{l1 - l0/k} < 1``, a whole number ``d`` of key-lattice steps
    ``h = s_lattice / 4`` below ``u``: rungs are named by integers (`_names`),
    memoised and read by name, so their bits depend only on their node and
    ladders collide.  A ray's rungs on the half lattice (even ``j``) are one
    run up from ``r0``, filled in waves of ``min d / 2`` rungs (`_climb`);
    ``_rungs`` and ``_waves`` count the rungs and waves filled.  Mahler terms
    are the closed-form `decelerated_bracket` of the truncated series (whose
    brackets stay inside ``r0``), linear in its rows: those are convolved
    once, and a batch of rungs takes the term as one ``(S, N) @ (N, G)``
    product.  The forcing over the denominator symbol is a closed-form
    `_power_sum`.

    Raises:
        ValidationError: a coupling's ``c`` is not below 1, so its ladder
            would walk away from the disc.
    """

    def __init__(self, sol, spec: ProblemSpec, config: SectorConfig):
        self.series = sol.omega
        self.spec = spec
        self.params = spec.params
        self.space = spec.space
        for i, term in enumerate(spec.terms):
            if _shift_factors(term.l0, term.l1, self.params)[0] >= 1.0:
                raise ValidationError(
                    f"term[{i}]: shift factor q^(l1 - l0/k) is not below 1, "
                    "so the continuation ladder never reaches the series disc"
                )

        self.r0 = _series_radius(self.series, 1e-13, 0.9 * config.R)
        top = float(np.max(np.abs(self.series.coeffs[-1])))
        self._floor = top * self.r0**self.series.order

        # rungs are named on the quarter lattice, the finest a shipped window
        # reaches (gq_sum's third level, c09's doubled `_T2_NODE_FACTOR`); each
        # shift coupling, in term order, drops a rung by a whole number of steps
        self._key_step = h = s_lattice(self.params) / 4.0
        self._log_r0 = math.log(self.r0)
        self._drops = [round(-math.log(_shift_factors(t.l0, t.l1, self.params)[0]) / h)
                       for t in spec.terms if t.l2 == 1]
        self._memo: dict = {}
        self._rungs = self._waves = 0
        self._mahler_conv: dict = {}  # see `_node_rows`
        self._forcing = [f.j for f in spec.forcing], np.array([f.F.values for f in spec.forcing])
        self._last_sum: list = [None]  # see `gq_sum`

    def _names(self, radii: np.ndarray, theta: float) -> list:
        """The one rule that names a rung: ``(theta, 0.0, j)`` if ``log(r) / h`` is
        within 1e-9 of the integer ``j``, else ``(theta, log r, 0)``.  Rung ``(theta,
        b, j)`` sits at ``s = b + j h`` and is computed at ``r = exp(b + j h)``."""
        s = np.log(radii)
        j = np.rint(s / self._key_step)
        on = np.abs(s / self._key_step - j) < 1e-9
        return [(theta, *n) for n in zip(np.where(on, 0.0, s).tolist(),
                                         np.where(on, j, 0.0).astype(int).tolist())]

    def values(self, u: CoveringPoint) -> np.ndarray:
        """`ray_values` at the one node ``u``."""
        return self.ray_values(np.array([u.r]), u.theta)[0]

    def ray_values(self, radii, theta: float) -> np.ndarray:
        """Values (S, G) at the ray nodes ``radii * e^{i theta}``: beyond ``r0``
        the rungs `_names` gives them, filled by `_climb`; inside it the series."""
        radii = np.asarray(radii, dtype=float)
        names = self._names(radii, theta)
        self._climb(names, theta)
        return self._rows(names, radii, theta)

    def _rows(self, names: list, radii: np.ndarray, theta: float) -> np.ndarray:
        """Rows (S, G) of the rungs ``names``: memoised beyond ``r0``, inside
        it one `_power_sum` of the series at their float ``radii``."""
        inside = np.array([b + j * self._key_step <= self._log_r0 for _, b, j in names], bool)
        out = np.empty((len(names), self.space.size), dtype=complex)
        if inside.any():
            out[inside] = _power_sum(*self.polynomial(), np.log(radii[inside]) + 1j * theta)
        for i in np.flatnonzero(~inside).tolist():
            out[i] = self._memo[names[i]]
        return out

    def _climb(self, names: list, theta: float) -> None:
        """Memoise the rungs ``names`` beyond ``r0`` and every rung below them.

        With a shift coupling, the even ``j`` of the key lattice are one run
        from ``r0`` up to the highest even name: the half lattice every shipped
        window evaluates, closed under the drops ``d_i``, all multiples of 4.
        Other names (odd ``j``, off the lattice) bring their ladders
        ``j - sum n_i d_i`` beyond ``r0``.  The missing rungs, found in integers, are filled in ascending
        waves, the windows ``[a, a + min d_i)`` of a ladder, so a wave (`_wave`)
        reads only earlier ones; one `_node_rows` batch serves the whole waves
        that fit in _ROWS rungs.  Past _MAX_RUNGS in all it raises `DomainTooLarge`
        before any wave, its witness the rung where the walk down from the top
        crossed the cap, and keeps no rung."""
        h, log_r0, memo = self._key_step, self._log_r0, self._memo
        even = {n for n in names if n[1] == 0.0 and n[2] % 2 == 0} if self._drops else set()
        new, level = set(), set(names) - even
        # waves ascend, so the memoised part of the run reaches down to r0
        j = max((n[2] for n in even), default=-math.inf)
        while j * h > log_r0 and (theta, 0.0, j) not in memo:
            new.add((theta, 0.0, j))
            j -= 2
        while level := {n for n in level if n not in memo and n[1] + n[2] * h > log_r0} - new:
            new |= level
            level = {(t, b, j - d) for t, b, j in level for d in self._drops}
        if self._rungs + len(new) > _MAX_RUNGS:
            _, b, j = sorted(new, key=lambda n: -(n[1] + n[2] * h))[_MAX_RUNGS - self._rungs]
            raise DomainTooLarge(
                f"continuation ladder exceeded {_MAX_RUNGS} rungs; "
                "the requested points are too deep in the sector for this budget",
                witness={"point": (math.exp(b + j * h), theta), "rungs": _MAX_RUNGS + 1},
            )
        rungs, width = sorted(new), min(self._drops, default=math.inf)
        radii = [math.exp(b + j * h) for _, b, j in rungs]
        cuts = [0]
        while (a := cuts[-1]) < len(rungs):
            t, b, j = rungs[a]
            cuts.append(bisect.bisect_left(rungs, (t, b, j + width), a, min(a + _ROWS, len(rungs))))
        hi = 0
        for a, e in zip(cuts, cuts[1:]):
            if e > hi:
                lo, hi = a, cuts[bisect.bisect_right(cuts, a + _ROWS) - 1]
                node = self._node_rows(np.array(radii[lo:hi]), theta)
            rows = self._wave(rungs[a:e], [x[a - lo : e - lo] for x in node], theta)
            rows.setflags(write=False)
            memo.update(zip(rungs[a:e], rows))
            self._rungs += e - a
            self._waves += 1

    def values_batch(self, pts: np.ndarray) -> np.ndarray:
        """The series at plane points, which carry no covering angle: inside ``r0``."""
        pts = np.asarray(pts, dtype=complex)
        if np.all(np.abs(pts) <= self.r0):
            return _power_sum(*self.polynomial(), np.log(pts))
        raise DomainViolation("batch evaluation is restricted to the series disc")

    def rhs_at(self, radii, theta: float) -> np.ndarray:
        """One application of the continued equation's right-hand side at the
        ray nodes ``radii * e^{i theta}``: (S, G), the `_wave` of `_node_rows`."""
        names = self._names(radii, theta)
        self._climb([(t, b, j - d) for t, b, j in names for d in self._drops], theta)
        return self._wave(names, self._node_rows(radii, theta), theta)

    def _node_rows(self, radii, theta: float) -> list:
        """What `rhs_at` reads of the nodes alone: their log radii (S,), then
        (S, G) rows: the Mahler couplings in term order, the forcing (one row,
        if any), and the denominator.  A Mahler row is the bracket of the
        coupling's convolved series."""
        spec, space = self.spec, self.space
        # math.log: np.log differs in the last bit on some radii
        out = [np.array([math.log(r) for r in radii.tolist()])]
        for i, term in enumerate(spec.terms):
            if term.l2 >= 2:
                if i not in self._mahler_conv:
                    rows = term.symbol * self.series.coeffs
                    self._mahler_conv[i] = INV_SQRT_2PI * convolve_values(space, term.band, rows)
                log_h = term.l2 * (out[0] + 1j * theta)
                out.append(decelerated_bracket(
                    self.polynomial()[0], self._mahler_conv[i], term, log_h, self.params))
        if spec.forcing:
            out.append(_power_sum(*self._forcing, out[0] + 1j * theta))
        return out + [eval_Pm((radii * cmath.exp(1j * theta))[:, None], space.m, spec)]

    def _wave(self, names: list, node: list, theta: float) -> np.ndarray:
        """`rhs_at` at the rungs ``names`` from their `_node_rows`: the shift couplings, read
        ``d`` steps below by name, in term order among the Mahler rows, then forcing, division."""
        s, *parts, pm = node
        radii = np.exp(s)
        parts, drops, acc = iter(parts), iter(self._drops), np.zeros_like(pm)
        for term in self.spec.terms:
            if term.l2 >= 2:
                acc += next(parts)
                continue
            d, c = next(drops), _shift_factors(term.l0, term.l1, self.params)[0]
            below = self._rows([(t, b, j - d) for t, b, j in names], radii * c, theta)
            rows = _shift_bracket(below, radii, theta, term, self.params)
            acc += INV_SQRT_2PI * convolve_values(self.space, term.band, term.symbol * rows)
        for row in parts:
            acc += row
        return acc / pm

    def polynomial(self):
        """The truncated series as ``(powers, rows)``, all that the Mahler
        bracket sees: its arguments stay inside ``r0``."""
        return np.arange(1, self.series.coeffs.shape[0] + 1), self.series.coeffs

    def floor_estimate(self) -> float:
        return self._floor


class ContourBracket:
    """A continuation that hides its polynomial, so `_term_rows` takes its
    Mahler coupling rows from the deceleration contour."""

    def __init__(self, om: ContinuedOmega):
        self.ray_values, self.values_batch = om.ray_values, om.values_batch
        self.floor_estimate, self.r0 = om.floor_estimate, om.r0


# ---------------------------------------------------------------------------
# assembled integrals


# probe nodes per `level` request; wider chunks add rungs no window visits
_PROBE_CHUNK = 4


def _probe_levels(level, nodes: list):
    """``level`` at ``nodes`` in order, one request per `_PROBE_CHUNK`; a chunk
    that raises is asked again node by node, so only a node the scan reaches
    raises."""
    for i in range(0, len(nodes), _PROBE_CHUNK):
        chunk = nodes[i : i + _PROBE_CHUNK]
        try:
            levels = level(np.array(chunk))
        except (DomainTooLarge, ZeroDivision):
            levels = (level(np.array([s]))[0] for s in chunk)
        yield from levels


def _probe_ray(level, s_seed: float, h: float, *, tail: float) -> tuple[int, int]:
    """The integer ends ``(j_lo, j_hi)`` of the decayed support of ``level(s)
    -> list[float]`` on the nodes ``s = j h`` around ``s_seed``.

    Walks outward from the seed's nearest node, ``round(0.5 / h)`` nodes at
    a time, upward first (the peak can sit away from the seed), until the
    level falls below ``tail`` times the running peak; the lower side starts
    from the peak the upper side left.  A probe costs one request per chunk
    of nodes (`_probe_levels`); nodes past the stopping one change neither
    end.  Raises `DomainTooLarge`, its witness the side, last node, level
    and peak, if a side has not decayed within 40 units (the integral is
    then not certified to converge at this point for this budget).
    """
    span, stride, j_seed = 40.0, max(1, round(0.5 / h)), round(s_seed / h)
    n, peak, ends = int(span / (stride * h)), None, []
    for side, step in (("upper", stride), ("lower", -stride)):
        # the seed rides in the upper side's first request and starts the peak
        nodes = [j_seed + i * step for i in range(n + 1)]
        levels = _probe_levels(level, [j * h for j in nodes[0 if peak is None else 1:]])
        peak = next(levels) if peak is None else peak
        for j, nxt in zip(nodes[1:], levels):
            peak = max(peak, nxt)
            if nxt < tail * max(peak, 1e-300):
                break
        else:
            raise DomainTooLarge(
                f"ray integrand still at {nxt:.3g} (peak {peak:.3g}) after "
                f"{span:.0f} units; point outside the certified domain",
                witness={"side": side, "s": j * h, "level": nxt, "peak": peak},
            )
        ends.append(j)
    return ends[1], ends[0]


def _expq_row(u_plane: np.ndarray, spec: ProblemSpec, config: SectorConfig) -> np.ndarray:
    """``exp_q(alpha~ u^{d_D})`` along the ray, guarded against its zeros."""
    vals = exp_q(config.alpha_tilde_D * u_plane**spec.d_D, spec.params)
    bad = np.abs(vals) < 1e-12
    if np.any(bad):
        where = u_plane[np.argmax(bad)]
        raise ZeroDivision(
            f"q-exponential vanished at a ray node (u = {where:.6g}); "
            "the sector configuration does not keep this direction clear"
        )
    return vals


class _ExpqNodes:
    """`_expq_row` memoised per ray node ``(s, theta_d)``.

    `theorem2_residual` shares one across the terms of a call, so each
    distinct node costs one ``exp_q`` evaluation however many terms, probes
    and refinement levels visit it; a probe chunk is one batched call, and
    one that raises memoises nothing.
    """

    def __init__(self, spec: ProblemSpec, config: SectorConfig):
        self.spec = spec
        self.config = config
        self._memo: dict = {}

    def __call__(self, s: np.ndarray, theta_d: float) -> np.ndarray:
        keys = [(x, theta_d) for x in s.tolist()]
        new = [k for k in dict.fromkeys(keys) if k not in self._memo]
        if new:
            u = np.exp(np.array([k[0] for k in new]) + 1j * theta_d)
            self._memo.update(zip(new, _expq_row(u, self.spec, self.config)))
        return np.array([self._memo[k] for k in keys])


def _term_rows(omega_ev, s: np.ndarray, theta_d: float, spec: ProblemSpec, ell=None) -> np.ndarray:
    """Integrand rows (S, G) for a plain or coupling-twisted evaluator.

    The one realisation of a coupling's bracket (the shift's is `_shift_bracket`,
    which the ladder's waves share).  Plain and shift rows read the
    evaluator's `ray_values`.  A Mahler coupling of an evaluator that
    exposes its polynomial (``polynomial() -> (powers, rows)``) is the
    closed-form `decelerated_bracket` at ``h = u^{l2}``; only evaluators
    without one (callables such as `SeparableOmega`) take the deceleration
    contour.
    """
    params = spec.params
    radii = np.exp(s)
    if ell is None:
        return omega_ev.ray_values(radii, theta_d)
    if ell.l2 == 1:
        rows = omega_ev.ray_values(radii * _shift_factors(ell.l0, ell.l1, params)[0], theta_d)
        return _shift_bracket(rows, radii, theta_d, ell, params)
    log_h = ell.l2 * (s + 1j * theta_d)
    if hasattr(omega_ev, "polynomial"):
        return decelerated_bracket(*omega_ev.polynomial(), ell, log_h, params)
    return _deceleration_rows(omega_ev, ell, log_h, params)


def _shift_bracket(rows, radii, theta_d: float, ell, params: QParams) -> np.ndarray:
    """The one shift bracket ``u^{l0} q^{-e(l0)} omega(c u)`` (S, G), given ``omega(c u)``."""
    phase = complex(np.exp(1j * ell.l0 * theta_d)) / _shift_factors(ell.l0, ell.l1, params)[1]
    return (radii**ell.l0 * phase)[:, None] * rows


def _deceleration_rows(omega_ev, term, log_h, params: QParams) -> np.ndarray:
    """Mahler rows (S, G) of ``omega_ev.values_batch`` by the deceleration contour.

    The quadrature realisation of `decelerated_bracket`: the only one for
    callables, and the independent one a `ContourBracket` gives
    `checks.term_gate` for the continuation.  The bracket's disc is
    ``r0 / c`` for an evaluator with a series radius ``r0``, so ``omega``
    is evaluated within ``0.7 r0``.
    """
    l0 = term.l0
    c, e_l0 = _shift_factors(l0, term.l1, params)
    r0 = getattr(omega_ev, "r0", None)

    def bracket(y: np.ndarray) -> np.ndarray:
        return (y**l0 / e_l0)[:, None] * omega_ev.values_batch(y * c)

    disc = None if r0 is None else r0 / c
    window = _deceleration_window(term.l2, params)
    return _deceleration_contour(bracket, term.l2, l0, log_h, params, window, disc)


def _integrand(
    omega_ev,
    t: CoveringPoint,
    s: np.ndarray,
    theta_d: float,
    spec: ProblemSpec,
    ell,
    expq: _ExpqNodes | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ray integrand at nodes ``s``: the kernel ``Theta(t/u)`` (S,) and the
    new rows (S, G) that `_term_rows` selects, divided in place by ``exp_q``
    when an ``expq`` memo is given."""
    kern = theta_kernel_log((math.log(t.r) - s) + 1j * (t.theta - theta_d), spec.params)
    rows = _term_rows(omega_ev, s, theta_d, spec, ell)
    if expq is not None:
        rows /= expq(s, theta_d)[:, None]
    return kern, rows


def _profile(
    omega_ev,
    t: CoveringPoint,
    spec: ProblemSpec,
    quad: RayQuadrature,
    *,
    ell=None,
    expq: _ExpqNodes | None = None,
    m_mult: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Ray integral at fixed ``m``: ``pi int Theta(t/u) rows(u, m) du/u``,
    and the integrand's level at the window edges (``ell`` and ``expq``
    as in `_integrand`)."""
    kern, rows = _integrand(omega_ev, t, quad.s_grid(), quad.theta_d, spec, ell, expq)
    if m_mult is not None:
        rows *= m_mult[None, :]
    prof = pi_qk(spec.params) * _contract(quad.weights() * kern, rows)
    return prof, float(np.max(np.abs(kern[[0, -1], None] * rows[[0, -1]])))


def _auto_quad(
    omega_ev,
    t: CoveringPoint,
    spec: ProblemSpec,
    *,
    ell=None,
    expq: _ExpqNodes | None = None,
    tail: float = 1e-11,
) -> RayQuadrature:
    """Probe the actual integrand to size the ray window on the `s_lattice`
    (``ell`` and ``expq`` as in `_integrand`).  Each chunk of the probe is
    one `_integrand` request: one `ray_values` and one batched ``exp_q``."""
    h = s_lattice(spec.params)

    def level(sv: np.ndarray) -> list[float]:
        kern, rows = _integrand(omega_ev, t, sv, t.theta, spec, ell, expq)
        return np.max(np.abs(kern[:, None] * rows), axis=1).tolist()

    lo, hi = _probe_ray(level, math.log(t.r), h, tail=tail)
    # a vanishing integrand stops the probe at once; a window has 8 nodes
    return RayQuadrature(t.theta, h, lo, max(hi, lo + 7))


def gq_sum(
    omega_ev,
    t: CoveringPoint,
    z: complex,
    config: SectorConfig,
    spec: ProblemSpec,
    *,
    beta_prime: float,
    tail: float = 1e-11,
    eps_rel: float = 1e-8,
) -> complex:
    """The solution sum ``(pi/sqrt(2 pi)) iint Theta(t/u) omega(u, m) e^{imz}``.

    The q-Laplace transform of the evaluator along ``arg t`` on the window
    probed to ``tail``, inverted at ``z`` and checked by node doubling to
    ``eps_rel``.  The terms of the equation it solves are summed by `_term_sum`.

    Raises:
        DomainTooLarge: ``|t|`` exceeds the sector's ``R``, or the ray
            integrand does not decay at this ``t``.
    """
    if t.r > config.R:
        raise DomainTooLarge(f"|t| = {t.r:.3g} exceeds the sector radius R = {config.R:.3g}")
    # the window and the level profiles do not depend on z: a continuation
    # keeps those of its last sum, so the next z costs only the inversions
    kept = omega_ev._last_sum if isinstance(omega_ev, ContinuedOmega) else [None]
    key = (t, tail, id(spec))
    if kept[0] != key:
        # holding spec keeps its id in the key unique
        kept[:] = [key, spec, _auto_quad(omega_ev, t, spec, tail=tail), {}]
    quad, profiles = kept[2:]

    def value_at(qd: RayQuadrature) -> complex:
        if qd not in profiles:
            profiles[qd] = _profile(omega_ev, t, spec, qd)[0]
        return complex(inverse_fourier_table(profiles[qd], spec.space, [z], beta_prime)[0])

    return _stabilise(value_at, quad, eps_rel, "gq_sum")


# ---------------------------------------------------------------------------
# residual drivers


def _term_sum(
    ev,
    t: CoveringPoint,
    z: complex,
    spec: ProblemSpec,
    *,
    beta_prime: float,
    ell,
    expq: _ExpqNodes | None,
    mult: np.ndarray | None,
    tail: float,
    node_factor: int,
) -> tuple[complex, float]:
    """One term of the summed equation at ``(t, z)``: ``(value, budget)``.

    The rows `_integrand` selects (``ell`` and ``expq`` as there), times
    ``mult``, summed on the probed window refined ``node_factor - 1`` times
    and once more; a coupling's symbol and convolution act on both profiles.
    The budget adds the refine difference, the window edge mass and the
    profile's mass at the grid ends."""
    space = spec.space
    quad = _auto_quad(ev, t, spec, ell=ell, expq=expq, tail=tail)
    for _ in range(node_factor - 1):
        quad = quad.refined()
    p1, edge1 = _profile(ev, t, spec, quad, ell=ell, expq=expq, m_mult=mult)
    p2, _ = _profile(ev, t, spec, quad.refined(), ell=ell, expq=expq, m_mult=mult)
    profs = np.stack([p1, p2])
    if ell is not None:
        # symbol under the convolution, then the profile product rule
        profs = INV_SQRT_2PI * convolve_values(space, ell.band, ell.symbol * profs)
    v1, v2 = map(complex, inverse_fourier_table(profs, space, [z], beta_prime)[:, 0])
    edge = edge1 * math.sqrt(math.pi / _kappa(spec.params))
    return v2, abs(v2 - v1) + edge + (abs(profs[1, 0]) + abs(profs[1, -1])) / space.beta


@dataclass
class Theorem2Report:
    """Per-sample residual of the pseudo-equation satisfied by the sum."""

    rows: list


# theorem2_residual probes each term's window to _T2_TAIL and sums it refined
# _T2_NODE_FACTOR - 1 times and once more; acceptance c09 doubles the nodes
_T2_TAIL = 1e-10
_T2_NODE_FACTOR = 1


def theorem2_residual(
    sol,
    spec: ProblemSpec,
    config: SectorConfig,
    sample_points,
    *,
    beta_prime: float,
    omega=None,
) -> Theorem2Report:
    """Evaluate every term of the summed equation and report ``|LHS - RHS|``.

    Each term is a `_term_sum` on its own probed window, so that tails do
    not cancel between terms.  The budget column is the documented
    estimate: the terms' budgets plus the evaluator's truncation floor; the
    residual itself is computed from the refined values.  The Mahler
    coupling rows of a polynomial evaluator (the continuation's truncated
    series, which is all its bracket sees) are the closed-form
    `decelerated_bracket`, so that term carries only the ray quadrature's
    error.
    """
    if omega is None:
        omega = ContinuedOmega(sol, spec, config)
    expq = _ExpqNodes(spec, config)
    # terms: (name, evaluator, ell, exp_q memo, m multiplier)
    jobs = [("lhs", omega, None, expq, spec.q_symbol),
            ("dominant", omega, None, None, spec.rd_symbol)]
    for i, term in enumerate(spec.terms):
        jobs.append((f"coupling{i}", omega, term, expq, None))
    if spec.forcing:
        forcing_ev = PolynomialOmega([f.j for f in spec.forcing], [f.F.values for f in spec.forcing])
        jobs.append(("forcing", forcing_ev, None, expq, None))
    rows = []
    for t, z in sample_points:
        values: dict = {}
        budget = omega.floor_estimate()
        for name, ev, ell, ex, mult in jobs:
            values[name], term_budget = _term_sum(
                ev, t, z, spec, beta_prime=beta_prime, ell=ell, expq=ex, mult=mult,
                tail=_T2_TAIL, node_factor=_T2_NODE_FACTOR,
            )
            budget += term_budget
        rhs = values["dominant"] + sum(
            values[f"coupling{i}"] for i in range(len(spec.terms))
        ) + values.get("forcing", 0.0)
        rows.append({"t_r": t.r, "t_theta": t.theta, "z_re": complex(z).real,
                     "z_im": complex(z).imag, "terms": values, "lhs": values["lhs"],
                     "rhs": rhs, "residual": abs(values["lhs"] - rhs), "budget": budget})
    return Theorem2Report(rows)
