"""Complex Schrodinger seed u(x; eps, lam, kappa) for the oscillator and its
logarithmic derivative beta = u'/u.

u solves u'' = (x^2 - eps) u with u(0) = 1 and u'(0) = lam + i kappa, that is
u = e^{-x^2/2} [M((1-eps)/4, 1/2; x^2) + (lam + i kappa) x M((3-eps)/4, 3/2; x^2)].
It is computed from the ODE itself by Taylor continuation (DLMF 3.7(ii)), not
from the 1F1 series.  Centres sit at x_j = j h with h = min(1/4, 2/sqrt|eps|),
so a step spans at most about two radians of the oscillation.  Around x_j,
u(x_j + t) = sum_k c_k t^k with c_0 = u(x_j), c_1 = u'(x_j) and

    (k+1)(k+2) c_{k+2} = (x_j^2 - eps) c_k + 2 x_j c_{k-1} + c_{k-2},

which links four coefficients.  A series stops at c_m (at most 96 terms,
about 30 on [-5, 5]) once its weights |c_k| h^k for k = m-3 .. m are below
2^-80 of the largest and m (m+1) / 2 is at least
G = |x_j^2 - eps| h^2 + 2 |x_j| h^3 + h^4: every later weight is then at most
half the largest of the three it reaches back to, so the dropped tail sums
to less than 2^-78 of the largest weight, far below the 1e-18 trim below,
and no stored coefficient moves.  Centre j +- 1 takes its c_0, c_1 from
centre j's series summed at t = +-h (the exact distance between the rounded
centres).  A point x is evaluated from its nearest centre, j = rint(x / h),
by Horner's rule for u and u' at t = x - j h, with each centre's trailing
terms below 1e-18 of its largest term at |t| <= h/2 dropped.

Against mpmath the relative error is about 1e-14 for |x| <= 26.5, and up to
2.5e-13 near |x| = 35, where a point on the inner side of its centre is
summed against the e^{x^2/2} growth.  It is larger where u itself is
ill-conditioned: near its complex near-zeros, and where a real seed decays.

The chain depends only on the parameters and is extended outward on demand;
extending it never changes an existing centre, so a value does not depend on
call history or on how the points are split into calls.  The last parameter
set's chain is cached.  Where a centre's coefficients leave the double range
(|x| near 36.6 for eps = -1+i) the chain stops, and points past it raise
NoConvergence; so does a point that would need more than _MAX_CENTRES centres
on one side of the origin.

All higher derivatives are eliminated through u'' = (x^2 - eps) u, so beta'
is returned in the closed Riccati form x^2 - eps - beta^2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PoleArgument
from .grid import Grid, denominator, excluded, on_points, screen

# Taylor continuation: largest centre spacing, longest series of a centre,
# share of the largest weight below which four trailing weights end a
# series, share below which evaluation drops trailing terms, centres allowed
# on each side of the origin, and the coefficient size (times k+1, so u' is
# covered too) past which a centre is out of range.  Horner sums stay within
# 4/3 of the largest coefficient for |t| <= 1/4, so nothing overflows below
# 1e307.
_STEP = 0.25
_TERMS = 96
_CUT = 2.0**-80
_TRIM = 1e-18
_MAX_CENTRES = 8192
_RANGE = 1e307
# By k, the floats (k+1)(k+2), k+3 and (k+2)(k+3) of the recurrence step that
# gives c_{k+2}: its divisor, the factor of |c_{k+2}| checked against _RANGE
# and the bound that m(m+1) must reach for m = k+2.  A complex divided by an
# int or by the equal float takes the same double.
_STEPS = tuple((float((k + 1) * (k + 2)), float(k + 3), float((k + 2) * (k + 3))) for k in range(_TERMS - 2))


@dataclass(frozen=True)
class TransformParams:
    """Factorization energy and seed coefficients; the input of every construction."""

    epsilon: complex
    lam: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        eps = complex(self.epsilon)
        if not (math.isfinite(eps.real) and math.isfinite(eps.imag)):
            raise ValueError("epsilon must be finite")
        lam = float(self.lam)
        kappa = float(self.kappa)
        if not (math.isfinite(lam) and math.isfinite(kappa)):
            raise ValueError("lam and kappa must be finite")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "kappa", kappa)

    @property
    def coefficient(self) -> complex:
        """lam + i*kappa, the weight of the odd branch."""
        return complex(self.lam, self.kappa)


@dataclass(frozen=True)
class SeedEvaluation:
    """Seed value, derivative, and log-derivative data at one point."""

    u: complex
    u_prime: complex
    beta: complex
    beta_prime: complex
    x: float


def _series(x0: float, c0: complex, c1: complex, eps: complex, h: float):
    """Taylor coefficients c_0 .. c_m of u around x0 from u(x0), u'(x0), or
    None when some (k+1)|c_k| is not finite or passes _RANGE.

    The series stops after c_m (m < _TERMS) once the weights w_k = |c_k| h^k
    for k = m-3 .. m are below _CUT of the largest so far and G <= m(m+1)/2;
    by the recurrence each later weight is then at most half the largest of
    the three it reaches back to, so the tail sums to less than 4 _CUT of the
    largest weight.
    """
    q = x0 * x0 - eps
    two_x0 = 2.0 * x0
    c = [c0, c1]
    # c_{k-2}, c_{k-1}, c_k, c_{k+1}: two zeros stand in for c_{-2}, c_{-1}.
    back2, back1, now, ahead = 0j, 0j, c0, c1
    try:
        twice_g = 2.0 * (abs(q) * h * h + 2.0 * abs(x0) * h**3 + h**4)
        size0, size1 = abs(c0), abs(c1)
        if not (size0 <= _RANGE and 2.0 * size1 <= _RANGE):
            return None
        top = max(size0, size1 * h)
        cut = _CUT * top
        scale = h
        small = 0  # trailing weights below cut
        for divisor, span, reach in _STEPS:
            ck = (q * now + two_x0 * back1 + back2) / divisor
            c.append(ck)
            back2, back1, now, ahead = back1, now, ahead, ck
            size = abs(ck)
            if not span * size <= _RANGE:
                return None
            scale *= h
            weight = size * scale
            if weight > top:
                top = weight
                cut = _CUT * top
            small = small + 1 if weight < cut else 0
            if small >= 4 and twice_g <= reach:
                break
    except OverflowError:  # Python's abs of a complex past the double range
        return None
    return c


def _sum_at(c: list, t: float):
    """u and u' at offset t from the centre whose series is ``c``."""
    value = slope = 0j
    for k in range(len(c) - 1, 0, -1):
        value = value * t + c[k]
        slope = slope * t + k * c[k]
    return value * t + c[0], slope


class _Chain:
    """Taylor centres x_j = j h of one parameter set, grown outward on demand.

    Column j - lo of ``u_table`` holds the trimmed series of u at centre j
    (row k: the t^k coefficient, zero past the series), and ``lengths`` the
    number of terms each keeps.  ``ends`` holds the full series of the two
    outermost centres, from which the next ones are stepped, and ``stops``
    the error of a side that has left the double range.
    """

    def __init__(self, params: TransformParams):
        self.key = _key(params)
        self.eps = params.epsilon
        try:
            size = abs(self.eps)
        except OverflowError:  # past the double range, and so is c_4 = eps^2 / 24
            raise NoConvergence("seed u overflowed the double range at x = 0") from None
        self.h = min(_STEP, 2.0 / math.sqrt(size)) if size > 0.0 else _STEP
        # Python floats: _trimmed weighs a column of about 30 terms, where a
        # numpy call costs more than the arithmetic.
        self.scales = ((0.5 * self.h) ** np.arange(_TERMS)).tolist()
        first = _series(0.0, 1.0 + 0j, params.coefficient, self.eps, self.h)
        if first is None:
            raise NoConvergence("seed u overflowed the double range at x = 0")
        self.ends = {1: first, -1: first}
        self.stops = {1: None, -1: None}
        self.columns = [self._trimmed(first)]
        self.lo = 0
        self._tabulate()

    def _trimmed(self, c):
        """The series ``c`` as a stored column: without its trailing terms
        below _TRIM of its largest term at |t| = h/2."""
        weights = list(map(operator.mul, map(abs, c), self.scales))
        floor = _TRIM * max(weights)
        kept = len(weights)
        while weights[kept - 1] < floor:
            kept -= 1
        return np.array(c[:kept], dtype=complex)

    def _tabulate(self):
        self.lengths = np.array([col.size for col in self.columns])
        rows = int(self.lengths.max())
        self.u_table = np.zeros((rows, len(self.columns)), dtype=complex)
        for i, col in enumerate(self.columns):
            self.u_table[: col.size, i] = col

    def _grow(self, side: int, reach: int) -> None:
        """Extend the chain on ``side`` (+1 or -1) to ``reach`` centres, or raise."""
        have = len(self.columns) - 1 + self.lo if side > 0 else -self.lo
        if have >= reach:
            return
        added = []
        end = self.ends[side]
        while have < reach and self.stops[side] is None:
            # Step by the exact distance between the rounded centres, not by h.
            x0 = side * (have + 1) * self.h
            c = _series(x0, *_sum_at(end, x0 - side * have * self.h), self.eps, self.h)
            if c is None:
                self.stops[side] = (
                    f"seed u overflowed the double range (|x| past {abs(x0) - 0.5 * self.h:.4g})"
                )
                break
            added.append(self._trimmed(c))
            end = c
            have += 1
        if added:
            self.ends[side] = end
            if side > 0:
                self.columns.extend(added)
            else:
                self.columns[:0] = added[::-1]
                self.lo -= len(added)
            self._tabulate()
        if have < reach:
            raise NoConvergence(self.stops[side])

    def evaluate(self, xs, derivative: bool):
        """u (and u' when ``derivative``) at the positions ``xs``, a 1-d array."""
        if xs.size == 0:
            return (xs.astype(complex), xs.astype(complex)) if derivative else xs.astype(complex)
        if not bool(np.all(np.isfinite(xs))):
            raise NoConvergence("seed position is not finite")
        with np.errstate(over="ignore"):
            j = np.rint(xs / self.h)
        j_min, j_max = float(j.min()), float(j.max())
        if max(j_max, -j_min) > _MAX_CENTRES:
            raise NoConvergence(
                f"seed needs more than {_MAX_CENTRES} Taylor centres on one side "
                f"(step {self.h:.3g}, max|x| {float(np.max(np.abs(xs))):.4g})"
            )
        j_min, j_max = int(j_min), int(j_max)
        self._grow(1, j_max)
        self._grow(-1, -j_min)
        # Complex once here, so Horner's in-place products cast nothing per term.
        t = (xs - j * self.h).astype(complex)
        index = j.astype(np.intp) - self.lo
        terms = int(self.lengths[j_min - self.lo : j_max - self.lo + 1].max())
        return _horner(self.u_table, index, t, terms, derivative)


def _horner(table, index, t, terms, derivative):
    """u = sum_k table[k, index] t^k over the first ``terms`` rows, or (u, u') with
    ``derivative``: each row is gathered once, added into u, then times k into u'."""
    value = table[terms - 1].take(index)
    if derivative:  # for terms = 1 the rows past the first are zero
        slope = value * float(terms - 1) if terms > 1 else np.zeros_like(value)
    for k in range(terms - 2, -1, -1):
        value *= t
        row = table[k].take(index)
        value += row
        if derivative and k:
            row *= float(k)
            slope *= t
            slope += row
    return (value, slope) if derivative else value


def _key(params: TransformParams):
    # Bit patterns, so that -0.0 and 0.0 (equal as floats) get their own chains.
    eps = params.epsilon
    return tuple(float(v).hex() for v in (eps.real, eps.imag, params.lam, params.kappa))


_last_chain: _Chain | None = None


def _chain(params: TransformParams) -> _Chain:
    """The Taylor chain of ``params``; the last one built is kept."""
    global _last_chain
    if _last_chain is None or _last_chain.key != _key(params):
        _last_chain = _Chain(params)
    return _last_chain


def seed_u(params: TransformParams, x):
    """Seed solution e^{-x^2/2} [M(a1, 1/2; x^2) + (lam+i*kappa) x M(a2, 3/2; x^2)].

    ``x`` may be a scalar or ndarray.
    """

    def values(xs):
        return _chain(params).evaluate(xs.ravel(), derivative=False).reshape(xs.shape)

    return on_points(values, x)


def seed_eval(params: TransformParams, x) -> SeedEvaluation:
    """Point evaluation with log-derivative fields.

    Routed through the vectorized path, so scalar and grid evaluations agree
    bit-for-bit.  Raises SingularPoint where u is singular (within rounding
    distance of a real node; that can only happen for real factorization
    energies).
    """
    xf = float(x)
    u, up, beta, beta_prime = seed_eval_grid(params, np.asarray([xf]))
    screen({"u": denominator(u, up)}, xf)
    return SeedEvaluation(*(complex(v[0]) for v in (u, up, beta, beta_prime)), x=xf)


def seed_eval_grid(params: TransformParams, xs):
    """Vectorized (u, u', beta, beta') over an array of positions.

    No singular screening: division at an exact node produces non-finite
    entries, which grid consumers exclude.
    """
    xs = np.asarray(xs, dtype=float)
    u, up = (v.reshape(xs.shape) for v in _chain(params).evaluate(xs.ravel(), derivative=True))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta = up / u
        beta_prime = xs * xs - params.epsilon - beta * beta
    return u, up, beta, beta_prime


def real_case_lambda(nu: float, epsilon: float) -> float:
    """Seed coefficient 2 nu Gamma((3-eps)/4) / Gamma((1-eps)/4) reproducing
    the real-parameter construction (real eps, kappa = 0).  The ratio is one
    ``mpmath.gammaprod`` at 80 bits plus the exponent of eps, rounded once:
    0 at eps = 1, 5, 9, ..., finite past the range of each Gamma, and
    PoleArgument at eps = 3, 7, ...; NoConvergence for a non-finite eps."""
    epsilon = float(epsilon)
    if not math.isfinite(epsilon):
        raise NoConvergence("real_case_lambda: epsilon is not finite")
    import mpmath

    with mpmath.workprec(80 + max(0, math.frexp(epsilon)[1])):
        eps = mpmath.mpf(epsilon)
        ratio = mpmath.gammaprod([(3 - eps) / 4], [(1 - eps) / 4])
    if mpmath.isinf(ratio):
        raise PoleArgument(f"Gamma((3-eps)/4) has a pole at eps={epsilon}")
    return 2.0 * nu * float(ratio)


def locate_real_zeros(params: TransformParams, grid: Grid):
    """Grid points adjacent to real zeros of u; an empty list means node-free.

    A point qualifies when the denominator u excludes it (``grid.excluded``:
    within 1e-6 of a zero of u, |u| < 1e-6 |u'|, singular or not finite), or
    when the real and imaginary parts both change sign across an interval (a
    component negligible over the whole grid counts as changing).
    """
    xs = grid.points()
    u, up, _, _ = seed_eval_grid(params, xs)
    au = np.abs(u)
    flagged = excluded(*denominator(u, up))
    for i in sign_change_brackets(u):
        flagged[i if au[i] <= au[i + 1] else i + 1] = True
    return [float(v) for v in xs[flagged]]


def sign_change_brackets(u):
    """Indices i where Re u and Im u both change sign between u[i] and u[i+1].

    A component below 1e-12 of max|u| over the whole array counts as changing
    sign everywhere, so a real (or imaginary) u brackets its nodes by the
    other component alone.  An all-zero u has no brackets.
    """
    top = float(np.max(np.abs(u), initial=0.0))
    if top == 0.0:
        return np.empty(0, dtype=int)
    re, im = u.real, u.imag
    re_negligible = bool(np.max(np.abs(re)) < 1e-12 * top)
    im_negligible = bool(np.max(np.abs(im)) < 1e-12 * top)
    # Products of signs, not of values, which overflow once |u| passes 1e154.
    sr, si = np.sign(re), np.sign(im)
    crossing = ((sr[:-1] * sr[1:] < 0.0) | re_negligible) & (
        (si[:-1] * si[1:] < 0.0) | im_negligible
    )
    return np.nonzero(crossing)[0]
