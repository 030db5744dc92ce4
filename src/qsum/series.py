"""Truncated formal power series and the formal Borel-plane operators.

Series have no constant term: the coefficient array index ``i`` holds the
coefficient of ``t^(i+1)``. Coefficients are either scalars or vectors over
a frequency grid; the ``space`` tag distinguishes the two and addition is
only defined within one space.

Every operator here rescales coefficients by ``q`` raised to an exact
rational exponent. Exponent arithmetic is done in :class:`~fractions.Fraction`
and floats appear only when the scale factor is finally evaluated; tests of
the exponent identities therefore compare rationals, not floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import OrderOverflow, OverflowFailure, ValidationError
from .qcore import QParams

RationalLike = Union[int, Fraction]


def borel_exponent(n: int, k: int) -> Fraction:
    """Exponent ``n(n-1)/(2k)`` attached to the order-``n`` coefficient."""
    return Fraction(n * (n - 1), 2 * k)


def deceleration_exponent(n: int, p: int, k: int) -> Fraction:
    """Exponent shift ``n(n-1)/(2k) - pn(pn-1)/(2k)`` of the formal
    deceleration of ratio ``p`` at order ``n``; always nonpositive."""
    return borel_exponent(n, k) - borel_exponent(p * n, k)


def coupling_exponent(p: int, l0: int, l1: int, l2: int, k: int) -> Fraction:
    """Exponent ``E(p) = e(p) + l1 p - e(l2 (p + l0))`` of a coupling's
    Borel-plane map, ``e`` being `borel_exponent`.

    The coupling ``(t^l0 sigma_q^l1 R(d_z) u)(t^l2, z)`` sends the order-``p``
    Borel coefficient to order ``l2 (p + l0)`` times ``q^E(p)``: the shift,
    the dilation and the Mahler deceleration in one step.
    """
    return borel_exponent(p, k) + l1 * p - borel_exponent(l2 * (p + l0), k)


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients ``a_1 .. a_N`` of a series with zero constant term.

    ``coeffs`` has shape ``(N,)`` for scalar coefficients or ``(N, G)`` for
    grid-valued ones; ``space`` is ``"scalar"`` or a grid-space descriptor
    and must match for arithmetic to be allowed.
    """

    coeffs: np.ndarray
    space: object = "scalar"

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim not in (1, 2):
            raise ValidationError("coefficient array must be 1- or 2-dimensional")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    def pad_to(self, n: int) -> "TruncatedSeries":
        if n < self.order:
            raise OrderOverflow(f"cannot pad order {self.order} down to {n}")
        if n == self.order:
            return self
        extra = np.zeros((n - self.order,) + self.coeffs.shape[1:], dtype=complex)
        return TruncatedSeries(np.concatenate([self.coeffs, extra]), self.space)

    def truncated(self, n: int) -> "TruncatedSeries":
        """Explicitly drop coefficients beyond order ``n``."""
        if n < 1:
            raise ValidationError("truncation order must be >= 1")
        return TruncatedSeries(self.coeffs[:n], self.space)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.space != other.space:
            raise ValidationError("cannot add series over different spaces")
        n = max(self.order, other.order)
        return TruncatedSeries(
            self.pad_to(n).coeffs + other.pad_to(n).coeffs, self.space
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (other * (-1.0))

    def __mul__(self, c) -> "TruncatedSeries":
        if isinstance(c, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(self.coeffs * c, self.space)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.order else 0.0


def _scale_by_exponents(U: TruncatedSeries, exps, q: float) -> TruncatedSeries:
    """Multiply the order-``n`` coefficient by ``q**exps[n-1]``.

    A factor beyond the double range is applied in pieces ``q**step``: the
    partial products move monotonically toward the result, so a coefficient
    that fits once scaled is never lost to its factor overflowing first.

    Raises:
        OverflowFailure: a scaled coefficient leaves the double range.
    """
    step = max(1, int(690.0 / math.log(q)))  # q**step stays inside the range
    out = np.array(U.coeffs)
    for n, e in enumerate(exps, start=1):
        rest = Fraction(e)
        with np.errstate(over="ignore"):
            while abs(rest) > step:
                piece = step if rest > 0 else -step
                out[n - 1] *= q ** float(piece)
                rest -= piece
            out[n - 1] *= q ** float(rest)
        if not np.all(np.isfinite(out[n - 1])):
            peak = float(np.max(np.abs(U.coeffs[n - 1])))
            raise OverflowFailure(
                f"order {n} leaves the double range: q^{float(e):.6g} times a "
                f"coefficient of size {peak:.3g} (log magnitude "
                f"{math.log(peak) + float(e) * math.log(q):.1f})"
            )
    return TruncatedSeries(out, U.space)


def formal_q_borel(U: TruncatedSeries, params: QParams) -> TruncatedSeries:
    """Divide the order-``n`` coefficient by ``q^(n(n-1)/(2k))``."""
    k = params.k
    return _scale_by_exponents(
        U, [-borel_exponent(n, k) for n in range(1, U.order + 1)], params.q
    )


def formal_q_laplace(W: TruncatedSeries, params: QParams) -> TruncatedSeries:
    """Inverse of :func:`formal_q_borel`: multiply by ``q^(n(n-1)/(2k))``."""
    k = params.k
    return _scale_by_exponents(
        W, [borel_exponent(n, k) for n in range(1, W.order + 1)], params.q
    )


def apply_t_sigma(
    U: TruncatedSeries,
    sigma: int,
    j: RationalLike,
    params: QParams,
    out_order: int | None = None,
) -> TruncatedSeries:
    """Apply ``t^sigma`` followed by the dilation ``t -> q^j t``.

    The order-``n`` input coefficient lands at order ``n + sigma`` scaled by
    ``q^(j n)``. ``sigma`` raises the degree, so the target order is either
    explicit or defaults to ``N + sigma``; nothing is dropped silently.
    ``j`` may be a rational (dilations by fractional powers of ``q`` occur
    throughout the Borel-plane calculus).
    """
    if sigma < 0 or not isinstance(sigma, int):
        raise ValidationError("sigma must be a nonnegative integer")
    jf = Fraction(j)
    n_out = U.order + sigma if out_order is None else out_order
    shape = (n_out,) + U.coeffs.shape[1:]
    out = np.zeros(shape, dtype=complex)
    for n in range(1, U.order + 1):
        tgt = n + sigma
        if tgt > n_out:
            break
        out[tgt - 1] = U.coeffs[n - 1] * params.q ** float(jf * n)
    return TruncatedSeries(out, U.space)


def mahler(U: TruncatedSeries, p: int, out_order: int | None = None) -> TruncatedSeries:
    """Substitute ``t -> t^p`` for integer ``p >= 2``.

    Order ``n`` moves to order ``p n``; the default target order ``p N``
    keeps everything, a smaller explicit one drops the excess knowingly.
    """
    if not isinstance(p, int) or p < 2:
        raise ValidationError("Mahler ratio p must be an integer >= 2")
    n_out = p * U.order if out_order is None else out_order
    shape = (n_out,) + U.coeffs.shape[1:]
    out = np.zeros(shape, dtype=complex)
    for n in range(1, U.order + 1):
        if p * n > n_out:
            break
        out[p * n - 1] = U.coeffs[n - 1]
    return TruncatedSeries(out, U.space)


def formal_deceleration(f: TruncatedSeries, p: int, params: QParams) -> TruncatedSeries:
    """Rescale coefficients by ``q^(n(n-1)/(2k) - pn(pn-1)/(2k))``.

    This is the Borel-plane shadow of the Mahler substitution: composing a
    Borel transform with ``t -> t^p`` equals decelerating the Borel image
    and then substituting ``tau -> tau^p`` in the result. Power indices are
    untouched; the caller performs the substitution step.
    """
    if not isinstance(p, int) or p < 2:
        raise ValidationError("deceleration ratio p must be an integer >= 2")
    k = params.k
    return _scale_by_exponents(
        f, [deceleration_exponent(n, p, k) for n in range(1, f.order + 1)], params.q
    )


def borel_commutation_check(
    U: TruncatedSeries, sigma: int, j: RationalLike, params: QParams
) -> tuple[bool, float]:
    """Check the Borel image of ``t^sigma`` plus dilation against its
    Borel-plane form.

    Both routes are computed on the same truncation: transform-then-operate
    versus operate-then-transform with the operator rewritten as
    ``tau^sigma / q^(sigma(sigma-1)/(2k))`` and dilation exponent
    ``j - sigma/k``. Returns the flag and the max coefficient error
    relative to the largest coefficient involved.
    """
    n_out = U.order + sigma
    lhs = formal_q_borel(apply_t_sigma(U, sigma, j, params, out_order=n_out), params)
    shifted = apply_t_sigma(
        formal_q_borel(U, params),
        sigma,
        Fraction(j) - Fraction(sigma, params.k),
        params,
        out_order=n_out,
    )
    rhs = shifted * params.q ** float(-borel_exponent(sigma, params.k))
    scale = max(lhs.max_abs(), rhs.max_abs(), 1e-300)
    err = float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale
    return err <= 64 * np.finfo(float).eps, err
