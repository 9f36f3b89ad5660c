"""Confluent hypergeometric function M = 1F1 and the Gamma function for
complex parameters.

``kummer_m`` is the Maclaurin sum alone (DLMF 13.2.2), for the arguments of
the seed's two branches: z = x**2 on the nonnegative real axis.  The seed
itself no longer sums it (``seed`` continues the ODE by Taylor series); it
stays the library's 1F1, anchored to ``kummer_oracle`` by the tests.  On
that axis the terms end up sharing phase once n passes |a|; for large
negative Re a the first |Re a| terms alternate and cancel, which costs digits
silently (about 7 at a = -20, the branch of eps = 81).  The term budget is
derived from the inputs: the terms peak near n = |z| and fall below the
tolerance about 8.6 sqrt|z| terms later, so max|z| + 12 sqrt(max|z|) +
max|a| + 60 terms leave a margin.  M grows like exp(z) z**(a-b) and
overflows the double range near z = 709 (x = 26.6), earlier for large Re a;
there NoConvergence is raised.
General complex z away from the real axis is out of scope."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NoConvergence, PoleArgument, PoleParameter
from .grid import on_points

_TERM_TOLERANCE = 1e-16
# Convergence is tested every _CHECK_EVERY terms.  Points are summed in blocks
# of _BLOCK along the last axis, so each block stops at its own term count and
# the temporaries stay bounded on large grids.
_CHECK_EVERY = 4
_BLOCK = 8192

# Fixed published rational-approximation coefficients (g = 7, n = 9); good
# for ~1e-13 relative accuracy away from the poles.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _nonpositive_integer(w) -> bool:
    """True when any entry of ``w`` is 0, -1, -2, ..."""
    w = np.asarray(w, dtype=complex)
    return bool(np.any((w.imag == 0.0) & (w.real <= 0.0) & (w.real == np.round(w.real))))


def gamma(z) -> complex:
    """Gamma for complex argument: rational approximation plus reflection."""
    z = complex(z)
    if _nonpositive_integer(z):
        raise PoleArgument(f"gamma pole at z={z}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    w = z - 1.0
    acc = complex(_LANCZOS[0])
    for k, coeff in enumerate(_LANCZOS[1:], start=1):
        acc += coeff / (w + k)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc


def _maclaurin(a, b, z, budget):
    # Stops once two consecutive terms fall below the tolerance relative to
    # the running sum at every point; a terminating series (a a nonpositive
    # integer) reaches exact zero terms and stops the same way.  The loop
    # works in place, with ``term`` and ``prev`` swapping buffers each step.
    # Overflow shows as a non-finite sum and is raised, not warned about.
    shape = np.broadcast_shapes(a.shape, b.shape, z.shape)
    total = np.ones(shape, dtype=complex)
    term = np.ones(shape, dtype=complex)
    prev = np.empty(shape, dtype=complex)
    ratio = np.empty(shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(budget):
            np.multiply((a + n) / ((b + n) * (n + 1.0)), z, out=ratio)
            np.multiply(term, ratio, out=prev)
            term, prev = prev, term
            total += term
            if n % _CHECK_EVERY == _CHECK_EVERY - 1:
                bound = _TERM_TOLERANCE * np.abs(total)
                small = (np.abs(term) <= bound) & (np.abs(prev) <= bound)
                if bool(np.all(small)) and bool(np.all(np.isfinite(total))):
                    return total
    z_max = float(np.max(np.abs(z)))
    if not bool(np.all(np.isfinite(total))):
        raise NoConvergence(f"1F1 overflowed the double range (max|z|={z_max:.3g})")
    raise NoConvergence(f"1F1 series not converged after {budget} terms (max|z|={z_max:.3g})")


def _columns(v, block):
    # Only operands that vary along the last axis are sliced; the rest broadcast.
    return v[..., block] if v.ndim and v.shape[-1] > 1 else v


def kummer_m(a, b, z):
    """1F1(a, b; z) by its Maclaurin series; ``a``, ``b`` and ``z`` broadcast.

    Returns a complex when every input is a scalar, else an ndarray of the
    broadcast shape.  Raises PoleParameter when b is a nonpositive integer
    and NoConvergence for non-finite input or when the sum overflows (real z
    past about 709).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if _nonpositive_integer(b):
        raise PoleParameter(f"1F1 parameter b={b} is a nonpositive integer")
    z = np.broadcast_to(z, np.broadcast_shapes(a.shape, b.shape, z.shape))

    def values(z):
        # ``z`` has the broadcast shape; ``a`` and ``b`` broadcast against it.
        z_max = float(np.max(np.abs(z), initial=0.0))
        reach = z_max + 12.0 * math.sqrt(z_max) + float(np.max(np.abs(a)))
        if not math.isfinite(reach):
            raise NoConvergence("1F1 input is not finite")
        out = np.empty(z.shape, dtype=complex)
        for start in range(0, z.shape[-1], _BLOCK):
            block = slice(start, start + _BLOCK)
            out[..., block] = _maclaurin(
                _columns(a, block), _columns(b, block), _columns(z, block), int(reach) + 60
            )
        return out, None

    return on_points(values, z, dtype=complex)


def kummer_m_derivative(a, b, z, order: int = 1):
    """order-th z-derivative via the contiguous shift (a)_k/(b)_k M(a+k, b+k; z)."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    a = complex(a)
    b = complex(b)
    num = 1.0 + 0.0j
    den = 1.0 + 0.0j
    for k in range(order):
        if _nonpositive_integer(b + k):
            raise PoleParameter(f"1F1 parameter b+{k}={b + k} is a nonpositive integer")
        num *= a + k
        den *= b + k
    return (num / den) * kummer_m(a + order, b + order, z)


def kummer_oracle(a, b, z, decimal_digits: int = 30):
    """Reference 1F1 from ``mpmath.hyp1f1`` at ``decimal_digits`` digits.

    Returns an mpmath complex so the extra digits survive; cast with
    ``complex()`` for the double view.  Test-suite oracle: mpmath chooses its
    own method for each argument and works in extended precision, so it is
    independent of the double-precision sum above.
    """
    if not 0 < decimal_digits <= 50:
        raise ValueError("decimal_digits must lie in (0, 50]")
    if _nonpositive_integer(b):
        raise PoleParameter(f"1F1 parameter b={b} is a nonpositive integer")
    import mpmath

    with mpmath.workdps(decimal_digits + 10):
        return mpmath.mpc(mpmath.hyp1f1(complex(a), complex(b), complex(z)))
