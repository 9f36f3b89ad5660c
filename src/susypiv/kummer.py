"""Confluent hypergeometric function M = 1F1 for complex parameters, as a
double-precision view of mpmath.

``kummer_oracle`` is the one 1F1, ``mpmath.hyp1f1``, which raises its working
precision until cancellation is resolved, so large negative Re a costs no
digits.  ``kummer_m`` rounds it to double point by point (about 0.2-2 ms a
point).  mpmath is imported on first use, so importing the package does not
load it."""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, PoleParameter
from .grid import on_points

# Oracle digits behind ``kummer_m``; bits of cancellation that mean an exact zero.
_DOUBLE_DIGITS = 17
_ZERO_BITS = 1024


def _nonpositive_integer(w) -> bool:
    """True when any entry of ``w`` is 0, -1, -2, ..."""
    w = np.asarray(w, dtype=complex)
    return bool(np.any((w.imag == 0.0) & (w.real <= 0.0) & (w.real == np.round(w.real))))


def _finite(what: str, *values) -> None:
    """NoConvergence unless every value is finite."""
    if not np.isfinite(np.array(values, dtype=complex)).all():
        raise NoConvergence(f"{what} input is not finite")


def _double(value, what: str) -> complex:
    """``value`` as a complex double; NoConvergence when it is nonzero and
    outside the normal double range (M past real z ~ 709)."""
    w = complex(value)
    if not abs(w) <= np.finfo(float).max or (value != 0 and abs(w) < np.finfo(float).tiny):
        raise NoConvergence(f"{what} {'under' if abs(w) < 1 else 'over'}flowed the double range")
    return w


def kummer_m(a, b, z):
    """1F1(a, b; z), ``kummer_oracle`` rounded to double; a, b and z broadcast
    to an ndarray, or give a complex when all are scalars.  Raises
    PoleParameter when b is a nonpositive integer, and NoConvergence for
    non-finite input or a value past the double range."""
    a, b, z = (np.asarray(v, dtype=complex) for v in (a, b, z))
    z = np.broadcast_to(z, np.broadcast_shapes(a.shape, b.shape, z.shape))

    def values(z):
        out = np.empty(z.shape, dtype=complex)
        for i, (ai, bi, zi) in enumerate(np.broadcast(a, b, z)):
            out.flat[i] = _double(kummer_oracle(ai, bi, zi, _DOUBLE_DIGITS), f"1F1 at z={zi}")
        return out

    return on_points(values, z, dtype=complex)


def kummer_m_derivative(a, b, z, order: int = 1):
    """order-th z-derivative via the contiguous shift (a)_k/(b)_k M(a+k, b+k; z)."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    a, b = complex(a), complex(b)
    num = den = 1.0 + 0.0j
    for k in range(order):
        if _nonpositive_integer(b + k):
            raise PoleParameter(f"1F1 parameter b+{k}={b + k} is a nonpositive integer")
        num *= a + k
        den *= b + k
    return (num / den) * kummer_m(a + order, b + order, z)


def kummer_oracle(a, b, z, decimal_digits: int = 30):
    """1F1 from ``mpmath.hyp1f1`` at ``decimal_digits`` + 10 working digits, as
    an mpmath number (``complex()`` gives the double view).  An exact zero
    comes back as 0; non-finite input or a series mpmath cannot converge
    raises NoConvergence."""
    _finite("1F1", a, b, z)
    if not 0 < decimal_digits <= 50:
        raise ValueError("decimal_digits must lie in (0, 50]")
    if _nonpositive_integer(b):
        raise PoleParameter(f"1F1 parameter b={b} is a nonpositive integer")
    import mpmath

    try:
        with mpmath.workdps(decimal_digits + 10):
            return mpmath.hyp1f1(complex(a), complex(b), complex(z), zeroprec=_ZERO_BITS)
    except (mpmath.libmp.NoConvergence, ValueError) as exc:
        raise NoConvergence(f"1F1 at a={a}, b={b}, z={z} did not converge: {exc}") from exc
