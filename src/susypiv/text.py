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
cell; unused slots hold NUL.  Which digits show, where the "." goes and
whether there is a prefix or an exponent depend only on the style, on X
clipped to [-5, 17] and on the number k of significant digits.  So one
table per style, keyed by (X, k), gives each word's masks and constant
bytes; k itself is looked up by the last three digits, unless all three
are 0.  A pass formats cells of one style, each word for all of them at
once from these tables, and the NULs are dropped by one
``bytes.translate`` per chunk of rows.  A column after the first whose
values in a block share one bit pattern (Im V = 0 of a real seed, a flag
that never changes) is folded into the constant text around its cell:
``rows`` formats that cell once, on one row, and the column leaves the passes.
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
# A layout key is 17 * (X + 5) + k - 1 = 17 * X + k + _K0 for the decimal
# exponent X, clipped to [-5, 17], and the digit count k.
_K0 = 84
# Bytes of a cell before the text that follows it: 24 of sign, prefix and
# digits with a ".", then 5 of exponent.
_TEXT = 29
# Turns the padding of CPython's left-justified cells into NULs.
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
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


def _table(texts):
    """One word per text, its bytes first and NUL after them."""
    cells = np.zeros((len(texts), 8), dtype=np.uint8)
    for i, t in enumerate(texts):
        cells[i, : len(t)] = np.frombuffer(t.encode(), dtype=np.uint8)
    return _words(cells).ravel()


@functools.cache
def _tables():
    """The tables shared by both styles, built on first use rather than at
    import.

    ``powers``: 10**s by s - _S_MIN, as (hi, lo, hi split in two).
    ``digits``: words holding the ASCII digits of 0..99 at bytes 6-7, of
    0..9999 at bytes 0-3 and at 4-7, and of 0..999 at bytes 4-6.
    ``zeros``: the trailing zeros of 0..9999 (4 for 0).  ``ends``: by the
    last three of 17 digits, _K0 + k for the k digits up to the last
    nonzero one (_K0 + 14 where all three are 0: k is then found from the
    other digits).
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
    ends = _K0 + 18 - zeros[::10]  # 10 * g has one trailing zero more than g
    return powers, digits, zeros, ends


@functools.cache
def _cell_layout(shortest):
    """The layout of a cell by its key, for one style (``repr`` where
    ``shortest``, else ``'%.17g'``), built on first use.

    The key is 17 * (X + 5) + k - 1 for the decimal exponent X clipped to
    [-5, 17] and k significant digits: the layout does not depend on X
    outside that range.  ``keep``: by word and key, the digit bytes kept in
    place, the ones kept after moving up a byte to make room for the ".",
    and the "." with, in word 0, the "0.000" prefix of a small fixed-point
    number.  ``exponent``: "e+XX" by X + 300, NUL where X is shown in
    fixed point.
    """
    s = int(shortest)
    x, k = np.divmod(np.arange(23 * 17), 17)
    x -= 5
    k += 1
    fixed = (x >= -4) & (x < 17 - s)
    integral = fixed & (x >= 0)
    last = k - 1 + integral * np.maximum(x + s - k + 1, 0)  # the last digit shown
    after = np.where(integral, x, 16 * fixed)  # the digit the "." follows
    at = np.where(last > after, _D0 + after + 1, 24)[:, None]  # the "." byte
    shown = (_D0 + last + 1)[:, None]  # one past the last digit, before the move
    # The "0.000" prefix of a small fixed-point number runs to byte 1 - X.
    lead = np.where(fixed & ~integral, 1 - x, 0)[:, None]
    byte = np.arange(24)
    prefix = np.where(byte == 2, ord("."), ord("0"))
    masks = np.stack(
        [
            0xFF * ((byte >= _D0) & (byte < np.minimum(at, shown))),
            0xFF * ((byte > at) & (byte <= shown)),
            ord(".") * (byte == at) + prefix * ((byte >= 1) & (byte <= lead)),
        ]
    )
    keep = np.ascontiguousarray(_words(masks).transpose(2, 0, 1))
    exponent = _table(["" if -4 <= e < 17 - s else f"e{e:+03d}" for e in range(-300, 301)])
    return keep, exponent


def _decimal(v, shortest):
    """(N, X, sure) per value of ``v``: |v| is N * 10**(X - 16) rounded to the
    digits of ``repr`` where ``shortest``, else of ``'%.17g'``, N in
    [1e16, 1e17) (0 for a zero); ``sure`` is False where that is not
    certified."""
    t_hi, t_lo, t_hh, t_hl = _tables()[0]
    ax = np.abs(v)
    sure = (ax >= _LOW) & (ax < _HIGH)
    if not sure.all():
        ax[~sure] = 1.0
    x = np.floor(np.log10(ax)).astype(np.int64)
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
    if shortest:
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
        n += by100 * (b - r100 - n) + (by10 & ~by100) * (n10 - n)
        unsure = unsure_r | (~by100 & ((by10 & (np.abs(d - 5.0) < _TOL)) | (~by10 & unsure)))
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
    the rows of ``words`` (one row of uint64 per value, its bytes 24 to
    ``_TEXT`` - 1 NUL on entry and the bytes after them left alone):
    ``repr`` where ``shortest``, else ``'%.17g'``."""
    _, (d2, d4, d4_high, d3_high), zeros, ends = _tables()
    keep, exponent = _cell_layout(shortest)
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

    # The layout key, 17 * (X + 5) + k - 1 for k significant digits: 1 + the
    # place of the last nonzero digit, looked up by the last three digits
    # unless all three are 0.
    key = ends.take(g4)
    bare = np.flatnonzero(g4 == 0)
    if bare.size:
        first = g0[bare]
        k = 2 - (first - first // 10 * 10 == 0)
        for place, group in ((6, g1), (10, g2), (14, g3)):
            g = group[bare]
            k = np.where(g != 0, place - zeros.take(g), k)
        key[bare] = k + _K0
    key += 17 * np.minimum(np.maximum(x, -5), 17)

    raw = (d2.take(g0), d4.take(g1) | d4_high.take(g2), d4.take(g3) | d3_high.take(g4))
    # No digit moves into word 0: the "." follows digit 0 or a later one.
    # Each word's last operation writes it in place.
    low = keep[0, 0].take(key)
    low &= raw[0]
    low |= keep[0, 2].take(key)
    np.bitwise_or(low, np.signbit(v) * np.uint64(ord("-")), out=words[:, 0])
    for w in (1, 2):
        low, high, dot = (table.take(key) for table in keep[w])
        low &= raw[w]
        high &= (raw[w] << 8) | (raw[w - 1] >> 56)
        low |= high
        np.bitwise_or(low, dot, out=words[:, w])
    words[:, 3] |= exponent.take(x + 300)

    bad = np.flatnonzero(~sure)
    if bad.size:
        # One format for all of them, each left-justified to _TEXT bytes; a
        # float's text has no space, so the padding turns into the NULs.
        style = f"%-{_TEXT}r" if shortest else f"%-{_TEXT}.17g"
        texts = ((style * bad.size) % tuple(v[bad].tolist())).encode().translate(_SPACE_TO_NUL)
        cells = words.view(np.uint8)
        cells[bad, :_TEXT] = np.frombuffer(texts, dtype=np.uint8).reshape(bad.size, _TEXT)


def _text(row, text: bytes) -> None:
    """Write ``text`` (at most ``_TEXT`` bytes) into a row of cell words."""
    cell = row.view(np.uint8)
    cell[:_TEXT] = 0
    cell[: len(text)] = np.frombuffer(text, dtype=np.uint8)


def _fold(columns, pieces, shortest):
    """``columns`` and ``pieces`` with each column after the first whose
    values all have its first value's bits joined, as the text of its first
    cell (from ``rows`` on that one row), to the pieces before and after it."""
    kept, merged = [columns[0]], [pieces[0], pieces[1]]
    for col, piece in zip(columns[1:], pieces[2:]):
        bits = col.view(f"u{col.itemsize}") if col.dtype.kind == "f" else col
        if (bits == bits[0]).all():
            merged[-1] += b"".join(rows([col[:1]], ["", ""], "", shortest)).decode() + piece
        else:
            kept.append(col)
            merged.append(piece)
    return kept, merged


def rows(columns, pieces, sep, shortest=False):
    """The text of the rows of ``columns`` joined by ``sep``, in chunks of
    bytes (a generator, so that one chunk is held at a time): row r is
    ``pieces[0] + cell(c0[r]) + pieces[1] + ... + cell(c_last[r]) + pieces[-1]``.

    A float cell reads as ``repr`` when ``shortest``, else as ``'%.17g'``; an
    integer cell as ``'%d'`` (exact below 2**53); a boolean one as true or
    false.  ``pieces`` and ``sep`` are ASCII strings.  Where there are several
    rows, a column after the first holding one value (one bit pattern for
    floats: 0.0 and -0.0 differ) is written once, between its neighbours' cells.
    """
    n_rows = columns[0].size
    if not n_rows:
        return
    if n_rows > 1:
        columns, pieces = _fold(columns, pieces, shortest)
    c = len(columns)
    # The text after each cell, in the bytes after its _TEXT: the last
    # cell's runs into the next row, and is cut off at the end.
    after = [p.encode() for p in pieces[1:-1]] + [(pieces[-1] + sep + pieces[0]).encode()]
    n_words = -(-(_TEXT + max(map(len, after))) // 8)
    fill = np.zeros((c, n_words), dtype="<u8")
    for j, t in enumerate(after):
        fill[j].view(np.uint8)[_TEXT : _TEXT + len(t)] = np.frombuffer(t, dtype=np.uint8)
    styles = {}  # style -> the columns formatted in it, in one pass each
    flags = {}  # boolean column -> the words of a true cell, of a false one
    for j, col in enumerate(columns):
        if col.dtype == bool:
            flags[j] = fill[j].copy(), fill[j].copy()
            _text(flags[j][0], b"true")
            _text(flags[j][1], b"false")
        else:
            styles.setdefault(shortest and col.dtype.kind == "f", []).append(j)
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
        for style, js in styles.items():
            values = np.stack([block[j] for j in js], axis=1).astype(float, copy=False).ravel()
            if len(js) == c:
                _cells(words.reshape(n * c, n_words), values, style)
            else:  # a block of mixed styles: this style's columns in a copy
                part = np.ascontiguousarray(words[:, js])
                _cells(part.reshape(-1, n_words), values, style)
                words[:, js] = part
        for j in flags:
            words[:, j] = np.where(block[j][:, None], *flags[j])
        chunk = words.tobytes().translate(None, b"\0")
        yield chunk if start + step < n_rows else chunk[: len(chunk) - cut]
