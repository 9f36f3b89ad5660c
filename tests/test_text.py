"""The numpy float formatter against CPython: every cell must be the bytes of
``'%.17g' % v`` or ``repr(v)``."""

import json
import subprocess
import sys

import numpy as np
import pytest

from susypiv import text

STYLES = {"%.17g": False, "repr": True}


def _reference(values, shortest):
    fmt = repr if shortest else (lambda v: "%.17g" % v)
    return "\n".join(fmt(float(v)) for v in values).encode()


def _formatted(values, shortest):
    return b"".join(text.rows([np.asarray(values, dtype=float)], ["", ""], "\n", shortest))


def _assert_matches(values, shortest):
    got = _formatted(values, shortest).split(b"\n")
    want = _reference(values, shortest).split(b"\n")
    bad = [(float(v), w, g) for v, w, g in zip(values, want, got) if w != g]
    assert not bad and len(got) == len(want), bad[:5]


def _random_doubles(rng, n):
    # Random 64-bit patterns: every exponent, subnormals included, both signs.
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


@pytest.mark.parametrize("style", STYLES)
def test_random_bit_patterns(style):
    _assert_matches(_random_doubles(np.random.default_rng(1), 30000), STYLES[style])


@pytest.mark.parametrize("style", STYLES)
def test_grid_like_and_rounded_values(style):
    rng = np.random.default_rng(2)
    k = np.arange(0, 100001, 10)  # every tenth point of the benchmark grid
    decades = 10.0 ** rng.integers(-20, 21, 10000)
    values = np.concatenate(
        [
            -5.0 + 1e-4 * k,
            (-5.0 + 1e-4 * k) ** 2,
            -12.0 + 0.01 * np.arange(2401),
            rng.standard_normal(10000) * decades,
            np.round(rng.standard_normal(10000) * 1e4) / 10.0 ** rng.integers(0, 8, 10000),
            rng.integers(-(10**6), 10**6, 5000).astype(float),
        ]
    )
    _assert_matches(values, STYLES[style])


EDGES = {
    "zeros": [0.0, -0.0],
    "fixed/exponent switch near 1e-4": [1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000001e-05],
    "near 1e15, 1e16, 1e17": [
        1e15, 999999999999999.9, 1e15 + 0.125, 1e16, 9999999999999998.0, 1e16 + 2.0,
        1e17, 99999999999999984.0, 1.0000000000000002e17,
    ],
    "double range": [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
    "17th digit an exact tie": [1e15 + 0.25, 1e15 + 0.75, 123456789012345.625, 2.0**53 + 2.0],
    "interval end on a short decimal": [2.0**54 + 4.0, 2.0**54 + 8.0, 1e23, 2.0**60 + 256.0],
    "powers of two": list(2.0 ** np.arange(-1074, 1024, 7)) + [0.5, 1.0, 2.0, 1024.0],
    "powers of ten": list(10.0 ** np.arange(-300, 301)),
    "short decimals": [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1e22, 1e23, 5e-5, 123.456, 1.5e300, 1e-280],
}


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("case", EDGES)
def test_named_edge_cases(case, style):
    values = np.array(EDGES[case])
    _assert_matches(np.concatenate([values, -values]), STYLES[style])


@pytest.mark.parametrize(
    "value, style",
    [
        (1e15 + 0.75, "%.17g"),
        (2.0**54 + 4.0, "repr"),
        (1e23, "repr"),
        (5e-324, "%.17g"),
        (1e300, "repr"),
    ],
    ids=["tie", "end excluded", "end included", "subnormal", "outside 1e+-280"],
)
def test_uncertified_cells_take_the_cpython_text(value, style):
    # The numpy digits are not certified here: an exact tie at the 17th
    # digit, a rounding interval ending on a shorter decimal (1.801439850948199e16
    # is its end, and reads back as 2**54 + 4 only if the mantissa is even; it
    # is odd there, and even for 1e23), a value outside the table.  The
    # cell is CPython's.
    v = np.array([value])
    assert not text._decimal(v, STYLES[style])[2][0]
    want = repr(value) if STYLES[style] else "%.17g" % value
    assert _formatted(v, STYLES[style]) == want.encode()


@pytest.mark.parametrize("style", STYLES)
def test_many_uncertified_cells_in_one_pass(style):
    # Whole passes of cells outside the table: 8192 values near 1e300 and
    # 8192 subnormals of both signs, in one column and across three, with
    # certified values between them.  Every cell is CPython's text.
    rng = np.random.default_rng(9)
    big = rng.uniform(1.0, 10.0, 8192) * 1e300 * rng.choice([-1.0, 1.0], 8192)
    tiny = rng.integers(1, 2**52, 8192).view(np.float64) * rng.choice([-1.0, 1.0], 8192)
    mixed = np.where(np.arange(8192) % 3 == 0, rng.standard_normal(8192), tiny)
    for values in (big, tiny):
        assert not text._decimal(values, STYLES[style])[2].any()
    for values in (big, tiny, mixed):
        _assert_matches(values, STYLES[style])
    columns = [big[:3000], tiny[:3000], mixed[:3000]]
    got = b"".join(text.rows(columns, ["", ",", ",", ""], "\n", STYLES[style]))
    fmt = repr if STYLES[style] else (lambda v: "%.17g" % v)
    want = "\n".join(",".join(fmt(float(c[r])) for c in columns) for r in range(3000))
    assert got == want.encode()


def _layout_of(cell):
    """(X, k) of a CPython float text: the decimal exponent of its first
    significant digit and the number of significant digits shown."""
    mantissa, _, exponent = cell.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    if exponent:
        x = int(exponent)
    elif whole != "0":
        x = len(whole) - 1
    else:
        x = len(digits) - len(fraction) - 1
    return x, len(digits.rstrip("0")) or 1


def _sweep(style):
    # For every decimal exponent X in [-300, 300] and digit count k in
    # 1..17, a k-digit decimal times 10**(X - k + 1); of up to 40 random
    # ones, the first whose CPython text shows X and k.  ('%.17g' shows
    # fewer than 17 digits only where the double lies that close to a
    # shorter decimal.)
    fmt = repr if STYLES[style] else (lambda v: "%.17g" % v)
    rng = np.random.default_rng(5)
    values = []
    for x in range(-300, 301):
        for k in range(1, 18):
            for _ in range(40):
                digits = int(rng.integers(10 ** (k - 1), 10**k)) // 10 * 10 + int(rng.integers(1, 10))
                value = float(f"{digits}e{x - k + 1}")
                if _layout_of(fmt(value)) == (x, k):
                    break
            values.append(value)
    return np.array(values), fmt


@pytest.mark.parametrize("style", STYLES)
def test_every_exponent_and_digit_count(style):
    # Both signs of the sweep match CPython, over several passes, and the
    # sweep reaches every layout: each X in [-5, 17] (the layout table's
    # range; past it only the exponent text changes) with each k.
    values, fmt = _sweep(style)
    _assert_matches(np.concatenate([values, -values]), STYLES[style])
    reached = {(min(max(x, -5), 17), k) for x, k in (_layout_of(fmt(v)) for v in values.tolist())}
    assert reached == {(x, k) for x in range(-5, 18) for k in range(1, 18)}


def test_mixed_styles_across_passes(monkeypatch):
    # A JSON block with an integer column between float ones and a boolean
    # column: the integers read as '%d' and the floats as repr, in passes
    # of a few rows.
    monkeypatch.setattr(text, "_CHUNK", 16)
    rng = np.random.default_rng(6)
    n = 50
    ints = rng.integers(-(2**53), 2**53, n)
    ints[:3] = (0, 2**53, -7)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 20, n)
    floats[:4] = (0.0, -0.0, 0.1, 1e300)
    flags = rng.standard_normal(n) > 0
    others = np.round(rng.standard_normal(n), 3)
    pieces = ['{"i": ', ', "x": ', ', "ok": ', ', "y": ', "}"]
    got = b"".join(text.rows([ints, floats, flags, others], pieces, ", ", shortest=True))
    rows = [
        {"i": int(i), "x": float(x), "ok": bool(b), "y": float(y)}
        for i, x, b, y in zip(ints, floats, flags, others)
    ]
    assert b"[" + got + b"]" == json.dumps(rows).encode()


def test_rows_with_no_text_around_the_cells():
    # No text before a row nor between rows: the last pass is kept whole.
    assert b"".join(text.rows([np.array([1.0, 2.5])], ["", ""], "")) == b"12.5"
    assert b"".join(text.rows([np.array([1.0]), np.array([2.5])], ["", "", ""], "")) == b"12.5"


def test_rows_between_constant_text_across_chunks(monkeypatch):
    # Small chunks end rows mid-table; the text between cells and rows and a
    # boolean and an integer column come out as the per-row join would.
    monkeypatch.setattr(text, "_CHUNK", 7)
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(10)
    ints = np.arange(10) * 37
    flags = floats > 0
    pieces = ["  {x: ", ", n: ", ", f: ", "}"]
    got = b"".join(text.rows([floats, ints, flags], pieces, ";\n", shortest=True))
    want = ";\n".join(
        f"  {{x: {float(f)!r}, n: {i}, f: {'true' if b else 'false'}}}" for f, i, b in zip(floats, ints, flags)
    )
    assert got == want.encode()


@pytest.mark.parametrize("n_columns,passes", [(5, 5), (3, 3)])
def test_rows_of_a_block_take_equal_passes(monkeypatch, n_columns, passes):
    # 8192 rows of c columns are c passes of about _CHUNK = 8192 values,
    # with no short pass of the rows left over.
    calls = []
    cells = text._cells
    monkeypatch.setattr(text, "_cells", lambda *args: calls.append(args[1].size) or cells(*args))
    columns = [np.linspace(-5.0, 5.0, 8192) + j for j in range(n_columns)]
    got = b"".join(text.rows(columns, [""] + [","] * (n_columns - 1) + [""], "\n"))
    assert len(calls) == passes and sum(calls) == 8192 * n_columns
    want = "\n".join(",".join("%.17g" % v for v in row) for row in zip(*columns))
    assert got == want.encode()


def _cell(value, shortest):
    """The per-row text of one cell, by CPython."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return repr(float(value)) if shortest else "%.17g" % value


def _joined(blocks, pieces, sep, shortest):
    """``text.rows`` over consecutive blocks of columns, joined as the CLI
    joins them, and the per-row CPython text of all their rows."""
    got = sep.encode().join(b"".join(text.rows(b, pieces, sep, shortest)) for b in blocks)
    columns = [np.concatenate(c) for c in zip(*blocks)]
    want = sep.join(
        pieces[0] + "".join(_cell(c[r], shortest) + p for c, p in zip(columns, pieces[1:]))
        for r in range(columns[0].size)
    )
    return got, want.encode()


def _counted_cells(monkeypatch):
    """The sizes of the value arrays that ``text._cells`` formats, as they
    come."""
    sizes = []
    cells = text._cells
    monkeypatch.setattr(text, "_cells", lambda *args: sizes.append(args[1].size) or cells(*args))
    return sizes


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_constant_column_is_formatted_once(monkeypatch, at, style):
    # A column of 0.1 (0.10000000000000001 at .17g) among two varying ones,
    # in passes of a few rows: after the first column, its cell is formatted
    # on one row, the others on all 40; as the first column it goes through
    # the passes too.  Every row is the CPython text.  In JSON a folded
    # column's key moves into the text around it.
    monkeypatch.setattr(text, "_CHUNK", 16)
    sizes = _counted_cells(monkeypatch)
    rng = np.random.default_rng(10)
    columns = [rng.standard_normal(40), rng.standard_normal(40) * 1e-7]
    columns.insert(at, np.full(40, 0.1))
    shortest = STYLES[style]
    got, want = _joined([columns], ["", ",", ",", ""], "\n", shortest)
    assert got == want
    folded = at != 0
    assert sizes.count(1) == folded and sum(sizes) == folded + (3 - folded) * 40
    if shortest:
        got = b"".join(text.rows(columns, ['{"a": ', ', "b": ', ', "c": ', "}"], ", ", shortest))
        rows = [dict(zip("abc", map(float, row))) for row in zip(*columns)]
        assert b"[" + got + b"]" == json.dumps(rows).encode()


@pytest.mark.parametrize("style", STYLES)
def test_zeros_of_both_signs_do_not_fold(monkeypatch, style):
    # 0.0 and -0.0 compare equal but read "0" and "-0": a column mixing them
    # is formatted on every row, and one of -0.0 alone folds to "-0".
    sizes = _counted_cells(monkeypatch)
    mixed = np.zeros(20)
    mixed[::3] = -0.0
    columns = [np.arange(20.0), mixed, np.full(20, -0.0)]
    got, want = _joined([columns], ["", ",", ",", ""], "\n", STYLES[style])
    assert got == want and want.count(b"-0") == 7 + 20
    assert sorted(sizes) == [1, 40]


def test_constant_flag_and_integer_columns_fold(monkeypatch):
    # Boolean and integer columns fold by equality: only the varying float
    # column goes through the passes; the integer keeps its '%d' text.
    sizes = _counted_cells(monkeypatch)
    n = 30
    columns = [np.zeros(n, dtype=bool), np.linspace(-1.0, 1.0, n), np.full(n, 2**53), np.ones(n, dtype=bool)]
    pieces = ['{"a": ', ', "x": ', ', "i": ', ', "b": ', "}"]
    got = b"".join(text.rows(columns, pieces, ", ", shortest=True))
    rows = [{"a": False, "x": float(x), "i": 2**53, "b": True} for x in columns[1]]
    assert b"[" + got + b"]" == json.dumps(rows).encode()
    assert sorted(sizes) == [1, n]


@pytest.mark.parametrize("style", STYLES)
def test_a_column_constant_in_one_block_only(monkeypatch, style):
    # Blocks of 25 rows: the middle column is 0.0 in the first block and
    # varies in the second, so it folds in the first alone.
    monkeypatch.setattr(text, "_CHUNK", 8)
    sizes = _counted_cells(monkeypatch)
    x = np.linspace(-5.0, 5.0, 50)
    middle = np.where(x < 0.0, 0.0, x * x)
    blocks = [[x[:25], middle[:25], -x[:25]], [x[25:], middle[25:], -x[25:]]]
    got, want = _joined(blocks, ["(", ", ", ", ", ")"], ";\n", STYLES[style])
    assert got == want
    assert sum(sizes) == 1 + 2 * 25 + 3 * 25


@pytest.mark.parametrize("style", STYLES)
def test_one_row_and_all_constant_blocks(monkeypatch, style):
    # A one-row block formats its cells as they are, both floats in one
    # pass; in a block whose every column is constant the first column goes
    # through the passes of _CHUNK rows, and the others are formatted once.
    monkeypatch.setattr(text, "_CHUNK", 4)
    sizes = _counted_cells(monkeypatch)
    shortest = STYLES[style]
    one = [np.array([1e-7]), np.array([True]), np.array([-0.0])]
    same = [np.full(11, 1e-7), np.ones(11, dtype=bool), np.full(11, -0.0)]
    for blocks in ([one], [same], [one, same, one]):
        got, want = _joined(blocks, ["[", " ", " ", "]"], "\n", shortest)
        assert got == want
    assert sizes == [2] + [1, 4, 4, 3] + [2, 1, 4, 4, 3, 2]
    assert b"".join(text.rows(same, ["", ",", ",", ""], "")) == b"%.17g,true,-0" % 1e-7 * 11


@pytest.mark.parametrize("shortest", [False, True], ids=["csv", "json"])
def test_real_seed_potential_formats_only_its_varying_columns(monkeypatch, shortest):
    # For a real seed (real eps, kappa = 0) Im V is +0.0 at every point: of
    # the five potential columns, only x, Re V and x^2 go through the passes
    # at every row, and Im V and im_v are formatted once each.  Without the
    # fold this block would send 5 * 8192 values.
    from susypiv import cli, grid

    config = cli.RunConfig(command="potential", epsilon_re=3.0, lam=1.0, xmin=-5.0, xmax=5.0, step=1e-3)
    header, columns = cli._COMMANDS["potential"]
    (block,) = list(cli._blocks(config, columns))[:1]
    n = block[0].size
    assert n == grid.BLOCK
    sizes = _counted_cells(monkeypatch)
    _, pieces, sep, _ = cli._layout(config, header)
    got, want = _joined([block], pieces, sep, shortest)
    assert got == want
    assert sizes.count(1) == 2 and sum(sizes) == 2 + 3 * n


def test_importing_the_cli_leaves_the_tables_unbuilt():
    # The module is loaded by the first data command and its tables (a few
    # ms) are built on the first formatted chunk, not when the CLI starts.
    code = (
        "import sys, susypiv.cli; assert 'susypiv.text' not in sys.modules; "
        "from susypiv import text; assert text._tables.cache_info().currsize == 0; "
        "assert text._cell_layout.cache_info().currsize == 0"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
