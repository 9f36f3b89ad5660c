"""Exact text of float columns, formatted in numpy: the bytes of ``'%.17g' % v``
and of ``repr(v)`` for whole columns, without a dtoa call per float.

Digits.  Each |x| in [1e-280, 1e280) is scaled to p = |x| * 10**s,
s = 16 - X with X = floor(log10 |x|), as a double-double: Dekker's exact
two-product of |x| with the double nearest 10**s, plus |x| times the
rounding error of that double (Dekker, Numer. Math. 18 (1971)).  p lies in
[1e16, 1e17) within 1e-14 of its exact value, so the nearest integer to p
gives the 17 correctly rounded digits, unless p lies within ``_TOL`` of a
half-integer.

Shortest digits (``repr``).  The reals that read back as x fill the
interval x +- ulp/2, which scales to p +- u with u < 12.  Let (A, B] be the
integers inside it.  The shortest digits are those of the multiple of the
largest power of ten that (A, B] contains, the one nearest p when there are
several (Steele & White, PLDI 1990; Loitsch, PLDI 2010).  A multiple of 100
there is unique; otherwise the nearest multiple of 10 inside, or failing
that the nearest integer inside, is taken.  For a power of two the interval
reaches only half as far down.  An interval end within ``_TOL`` of an
integer (there the parity of x's mantissa decides) is left uncertain.

Exactness.  A cell the bounds do not certify (a tie or an interval end
within ``_TOL``, a subnormal or non-finite value, |x| outside [1e-280,
1e280)) is formatted by CPython and written over its slots, so every cell
is the CPython text.

Layout.  A cell is a row of 8-byte words of fixed character slots: the
sign, the "0.000" of a small fixed-point number, 17 digits with room for
one "." moved in, the exponent, and the constant text that follows the
cell; unused slots hold NUL.  Each word is filled for all the cells of a
chunk at once from small tables, and the NULs are dropped by one
``bytes.translate`` per chunk.
"""

from __future__ import annotations

import functools

import numpy as np

# Scaled values whose fraction, or distance to an interval end, lies within
# _TOL of the deciding value go to CPython; the double-double error is
# below 1e-14.
_TOL = 2.0**-30
_LOW, _HIGH = 1e-280, 1e280  # |x| formatted here
_S_MIN, _S_MAX = 16 - 281, 16 + 281  # the table's powers 10**s
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_P16, _P17 = 10**16, 10**17
# Byte of the first digit in a cell: the sign and "0.000" come before it.
_D0 = 6
# Bytes of a cell before the text that follows it: 24 of sign, prefix and
# digits with a ".", then 5 of exponent.
_TEXT = 29
# Values formatted per numpy pass, within one row: bounds the work space (a
# few hundred bytes per value) whatever the number of rows.
_CHUNK = 1 << 13


def _split(a):
    """Dekker's split: a = hi + lo, each with at most 26 significant bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _words(cells):
    """The little-endian uint64 words of the rows of a uint8 array whose
    rows are a multiple of 8 bytes long: byte j of a row is bits 8j..8j+7."""
    return np.ascontiguousarray(cells, dtype=np.uint8).view("<u8")


def _table(texts, at=0):
    """One word per text, its bytes at byte ``at`` and NUL elsewhere."""
    cells = np.zeros((len(texts), 8), dtype=np.uint8)
    for i, t in enumerate(texts):
        cells[i, at : at + len(t)] = np.frombuffer(t.encode(), dtype=np.uint8)
    return _words(cells).ravel()


@functools.cache
def _tables():
    """The tables, built on first use rather than at import.

    ``powers``: 10**s by s - _S_MIN, as (hi, lo, hi split in two).
    ``digits``: words holding the ASCII digits of 0..99 at bytes 6-7, of
    0..9999 at bytes 0-3 and at 4-7, and of 0..999 at bytes 4-6.
    ``zeros``: the trailing zeros of 0..9999 (4 for 0).  ``keep``: by mask,
    word and 17 * code + last (code 0: no ".", else the "." is byte
    _D0 + code; ``last``: the last digit shown), the digit bytes kept in
    place, the ones kept after moving up a byte, and the ".".  ``head``: the
    sign and "0.000" prefix by 5 * sign + the zeros after the point + 1 (0:
    no prefix).  ``exponent``: "e+XX" by X + 301 (0: none).
    """
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        # 10**s = num / den exactly; hi is the nearest double and lo the
        # double nearest the rest (int / int rounds correctly).
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi.append(num / den)
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    powers = (hi, np.array(lo), *_split(hi))

    g = np.arange(10000)

    def digit_table(width, at):
        cells = np.zeros((10**width, 8), dtype=np.uint8)
        for j in range(width):
            cells[:, at + j] = 48 + g[: 10**width] // 10 ** (width - 1 - j) % 10
        return _words(cells).ravel()

    digits = (digit_table(2, _D0), digit_table(4, 0), digit_table(4, 4), digit_table(3, 4))
    zeros = (g % 10 == 0) + (g % 100 == 0).astype(int) + (g % 1000 == 0) + (g == 0)

    code, last = np.divmod(np.arange(17 * 17), 17)
    at = np.where(code > 0, _D0 + code, 24)[:, None]
    shown = (_D0 + last + 1)[:, None]  # one past the last digit, before the move
    byte = np.arange(24)
    masks = np.stack(
        [
            0xFF * ((byte >= _D0) & (byte < np.minimum(at, shown))),
            0xFF * ((byte > at) & (byte <= shown)),
            ord(".") * (byte == at),
        ]
    )
    keep = np.ascontiguousarray(_words(masks).transpose(0, 2, 1))

    head = _table([sign + point for sign in ("\0", "-") for point in ("", "0.", "0.0", "0.00", "0.000")])
    exponent = _table([""] + [f"e{x:+03d}" for x in range(-300, 301)])
    return powers, digits, zeros, keep, head, exponent


def _decimal(v, shortest):
    """(N, X, sure) per value of ``v``: |v| is N * 10**(X - 16) rounded to the
    digits of ``'%.17g'``, or of ``repr`` where ``shortest``, N in
    [1e16, 1e17) (0 for a zero); ``sure`` is False where that is not
    certified."""
    t_hi, t_lo, t_hh, t_hl = _tables()[0]
    ax = np.abs(v)
    sure = (ax >= _LOW) & (ax < _HIGH)
    ax[np.flatnonzero(~sure)] = 1.0
    lg = np.log10(ax)
    x = lg.astype(np.int64)
    x -= x > lg
    a_hi, a_lo = _split(ax)

    def scaled(i):
        """floor(|x| * 10**(16 - X)) and the fraction, at the values ``i``."""
        s = 16 - _S_MIN - x[i]
        a, b, c = ax[i], a_hi[i], a_lo[i]
        th, tl = t_hh.take(s), t_hl.take(s)
        hi = a * t_hi.take(s)
        lo = ((b * th - hi) + b * tl + c * th) + c * tl
        lo += a * t_lo.take(s)
        whole = np.floor(lo)
        return hi.astype(np.int64) + whole.astype(np.int64), lo - whole

    p, f = scaled(slice(None))
    # log10 may be off by one next to a power of ten.
    off = np.flatnonzero((p < _P16) | (p >= _P17))
    if off.size:
        x[off] += np.where(p[off] < _P16, -1, 1)
        p[off], f[off] = scaled(off)
        sure[off] &= (p[off] >= _P16) & (p[off] < _P17)
    n = p + (f > 0.5)
    unsure = np.abs(f - 0.5) < _TOL
    if shortest.any():
        mant, e = np.frexp(ax)
        u = np.ldexp(t_hi.take(16 - _S_MIN - x), e - 54)  # ulp/2, scaled
        # Below a power of two the next double is half as far.
        a, b = f - u * (1.0 - 0.5 * (mant == 0.5)), f + u
        unsure_r = (np.abs(a - np.rint(a)) < _TOL) | (np.abs(b - np.rint(b)) < _TOL)
        a = p + np.floor(a).astype(np.int64)  # the integers inside are (a, b]
        b = p + np.floor(b).astype(np.int64)
        width = b - a
        r100 = b - b // 100 * 100
        by100 = r100 < width
        by10 = b - b // 10 * 10 < width
        r10 = p - p // 10 * 10
        d = r10 + f
        # The multiple of 100 inside, else the multiple of 10 nearest p (the
        # next one up where that lies below the interval), else the integer
        # nearest p, which is inside: the interval reaches past p +- 0.5.
        n10 = p - r10 + 10 * (d > 5.0)
        n10 += 10 * (n10 <= a)
        n_r = by100 * (b - r100 - n) + (by10 & ~by100) * (n10 - n) + n
        unsure_r |= ~by100 & ((by10 & (np.abs(d - 5.0) < _TOL)) | (~by10 & unsure))
        if shortest.all():
            n, unsure = n_r, unsure_r
        else:
            n = np.where(shortest, n_r, n)
            unsure = np.where(shortest, unsure_r, unsure)
    carry = np.flatnonzero(n == _P17)
    n[carry] = _P16
    x[carry] += 1
    zero = np.flatnonzero(v == 0.0)
    n[zero] = 0
    x[zero] = 0
    sure &= ~unsure
    sure[zero] = True
    return n, x, sure


def _cells(words, v, shortest):
    """Write the text of each value of ``v`` into the first ``_TEXT`` bytes of
    the rows of ``words`` (one row of uint64 per value, the bytes after them
    left alone): ``repr`` where ``shortest``, else ``'%.17g'``."""
    _, (d2, d4, d4_high, d3_high), zeros, keep, head, exponent = _tables()
    n, x, sure = _decimal(v, shortest)
    # Digit groups: d0 d1 | d2..d5 d6..d9 | d10..d13 d14..d16.
    top = n // 10**7
    bottom = n - top * 10**7
    g0 = top // 10**8
    mid = top - g0 * 10**8
    g1 = mid // 10**4
    g2 = mid - g1 * 10**4
    g3 = bottom // 1000
    g4 = bottom - g3 * 1000
    # k significant digits: 1 + the place of the last nonzero digit (10 * g4
    # has one trailing zero more than the three digits of g4).
    k = 2 - (g0 - g0 // 10 * 10 == 0)
    for place, g in ((6, g1), (10, g2), (14, g3), (18, 10 * g4)):
        k = np.where(g != 0, place - zeros.take(g), k)

    s = shortest.astype(np.int64)
    fixed = (x >= -4) & (x < 17 - s)
    integral = fixed & (x >= 0)
    last = k - 1 + integral * np.maximum(x + s - k + 1, 0)  # last digit shown
    after = integral * x + (fixed & ~integral) * 16  # the digit the "." follows
    code = 17 * (last > after) * (after + 1) + last
    lead = (fixed & ~integral) * -x  # "0." and lead - 1 zeros

    raw = (d2.take(g0), d4.take(g1) | d4_high.take(g2), d4.take(g3) | d3_high.take(g4))
    moved = (raw[0] << 8, (raw[1] << 8) | (raw[0] >> 56), (raw[2] << 8) | (raw[1] >> 56))
    for w in range(3):
        low, high, dot = (table.take(code) for table in keep[:, w])
        cell = (raw[w] & low) | (moved[w] & high) | dot
        if w == 0:
            cell |= head.take(5 * np.signbit(v) + lead)
        words[:, w] = cell
    words[:, 3] &= np.uint64(0xFFFFFF << 40)
    words[:, 3] |= exponent.take(~fixed * (x + 301))

    for i in np.flatnonzero(~sure):
        cpython = ("%r" if shortest[i] else "%.17g") % float(v[i])
        _text(words[i], cpython.encode())


def _text(row, text: bytes) -> None:
    """Write ``text`` (at most ``_TEXT`` bytes) into a row of cell words."""
    cell = row.view(np.uint8)
    cell[:_TEXT] = 0
    cell[: len(text)] = np.frombuffer(text, dtype=np.uint8)


def rows(columns, pieces, sep, shortest=False):
    """The text of the rows of ``columns`` joined by ``sep``, in chunks of
    bytes (a generator, so that one chunk is held at a time): row r is
    ``pieces[0] + cell(c0[r]) + pieces[1] + ... + cell(c_last[r]) + pieces[-1]``.

    A float cell reads as ``repr`` when ``shortest``, else as ``'%.17g'``; an
    integer cell as ``'%d'`` (exact below 2**53); a boolean one as true or
    false.  ``pieces`` and ``sep`` are ASCII strings.
    """
    c = len(columns)
    n_rows = columns[0].size
    if not n_rows:
        return
    # The text after each cell, in the bytes after its _TEXT: the last
    # cell's runs into the next row, and is cut off at the end.
    after = [p.encode() for p in pieces[1:-1]] + [(pieces[-1] + sep + pieces[0]).encode()]
    n_words = -(-(_TEXT + max(map(len, after))) // 8)
    fill = np.zeros((c, n_words), dtype="<u8")
    for j, t in enumerate(after):
        fill[j].view(np.uint8)[_TEXT : _TEXT + len(t)] = np.frombuffer(t, dtype=np.uint8)
    styles = np.array([col.dtype.kind == "f" and shortest for col in columns])
    flags = {}  # boolean column -> the words of a true cell, of a false one
    for j, col in enumerate(columns):
        if col.dtype == bool:
            flags[j] = fill[j].copy(), fill[j].copy()
            _text(flags[j][0], b"true")
            _text(flags[j][1], b"false")
    # Equal passes of about _CHUNK values: a short last pass would pay the
    # fixed cost of each numpy call for a few rows.
    passes = -(-n_rows * c // _CHUNK)
    step = -(-n_rows // passes)
    cut = len(sep + pieces[0])
    yield pieces[0].encode()
    for start in range(0, n_rows, step):
        block = [col[start : start + step] for col in columns]
        n = block[0].size
        words = np.empty((n, c, n_words), dtype="<u8")
        words[:, :, 3:] = fill[:, 3:]
        flat = words.reshape(n * c, n_words)
        _cells(flat, np.stack(block, axis=1).astype(float, copy=False).ravel(), np.tile(styles, n))
        for j in flags:
            words[:, j] = np.where(block[j][:, None], *flags[j])
        chunk = words.tobytes().translate(None, b"\0")
        yield chunk if start + step < n_rows else chunk[:-cut]
