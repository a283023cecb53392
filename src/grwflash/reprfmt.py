"""CSV lines of ``repr`` cells for whole numpy columns, without ``repr``.

``csv_lines(columns)`` returns the bytes of ``"%r,...,%r\\n" % row`` for
every row of equal-length columns of nonnegative ints or float64s.  A
float's digits are its shortest round-trip decimal, found for all cells at
once on uint64 arrays by Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; cf. U. Adams, "Ryu", PLDI 2018).  Of two shortest
decimals it takes the nearer, and of two equally near the even one, as
CPython's ``repr`` does.  Integers below 2^53 take their own digits (the
method's fast path), and subnormals take theirs from ``repr``: Schubfach
keeps two digits where ``repr`` may keep one (``4.9e-323`` against
``5e-323``).

A float cell is four 8-byte words, looked up in small tables, and a mask
of its valid bytes, looked up by the cell's layout (form, decimal point,
digit count, sign).  Bytes 7-24 hold the 17-digit decimal significand
with a '.' shifted in at its place, bytes 0-6 the sign and any '0.00'
right-aligned before it, and bytes 26-31 'e', the exponent and the
separator, right-aligned.  So a cell's text is at most two runs of valid
bytes, and one boolean index pulls a block's lines out of its words.
CPython writes a float in fixed point when its decimal point position
decpt (|x| = 0.d1d2... 10^decpt) is in -3..16, otherwise in exponent
form.  The tables are built on first use.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_C_MIN = 1 << 52  # the significand of a power of two
_Q_MIN = -1074  # the binary exponent of the smallest normal's ulp
_K_MIN, _K_MAX = -324, 292  # decimal exponents Schubfach scales by
_E_MAX = 308  # the largest decimal exponent of a float64
_DIGITS = 17  # the most significant digits a float64 needs
_FIXED_MIN, _FIXED_MAX = -3, 16  # decpt range of fixed-point text
_CODES = _FIXED_MAX - _FIXED_MIN + 3  # fixed decpts, then two exponent forms
_SPECIAL = _CODES * _DIGITS * 2  # layouts of nan, inf, -inf: after the finite
_WORDS = 4  # 8-byte words in a float cell
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_E4, _E8, _E16 = (np.uint64(10**n) for n in (4, 8, 16))


def _flog2pow10(e):
    """floor(e log2 10)."""
    return (e * 913124641741) >> 38


def _cell_mask(code, n, neg):
    """The valid bytes of a finite float cell of ``n`` significant digits.

    ``code`` is decpt + 3 in fixed point, then 20 and 21 for exponent form
    with two and with three exponent digits.
    """
    m = np.zeros(8 * _WORDS, dtype=bool)
    decpt = code + _FIXED_MIN
    if code >= _CODES - 2:  # d.ddde+XX
        head, length = neg, n + (n > 1)
        m[26 + (code == _CODES - 2):31] = True
    elif decpt <= 0:  # 0.00ddd
        head, length = neg + 2 - decpt, n
    else:  # ddd.ddd, dd000.0
        head, length = neg, max(n, decpt + 1) + 1
    m[7 - head:7 + length] = True
    m[31] = True  # separator
    return m


@functools.cache
def _tables():
    """Schubfach's powers of ten, and the words and masks of float cells.

    ``g1``, ``g0``: for k = -324..292, 10^-k = beta 2^r with 2^125 <= beta
    < 2^126, and g = floor(beta) + 1 = g1 2^63 + g0.  ``head``: word 0 by
    50 sign + 10 prefix ('', '0.', '0.0', '0.00', '0.000') + first digit,
    then nan, inf, -inf.  ``quads``: 0..9999 as four digit bytes;
    ``zeros``: their trailing zeros (4 for 0).  By e = decpt + 323, for
    decpt = -323..309: ``expo``, the exponent bytes of word 3; ``layout``,
    34 code; ``prefix``, 10 prefix; and ``keep``, ``move``, ``dot``, per
    word 1-3, the bytes kept, moved up one for the '.' and the '.' itself.
    ``mask``: the mask words of layout (17 code + n - 1) 2 + neg, then of
    nan, inf and -inf.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        if r < 0:
            num <<= -r
        else:
            den <<= r
        g.append(num // den + 1)

    def words(texts):
        return np.frombuffer(b"".join(texts), dtype=np.uint64).copy()

    def by_word(flags):
        """Per word 1-3 and cell, the byte mask of ``flags(byte, dot at)``."""
        return np.array([[sum(0xFF << 8 * i for i in range(8)
                              if flags(i, at - 8 * w)) for at in dot_at]
                         for w in (1, 2, 3)], dtype=np.uint64)

    prefixes = [sign + point for sign in (b"", b"-")
                for point in (b"", b"0.", b"0.0", b"0.00", b"0.000")]
    decpts = range(_K_MIN + 1, _E_MAX + 2)
    fixed = range(_FIXED_MIN, _FIXED_MAX + 1)
    # cell byte of the '.': after decpt digits, none shown (byte 24, past
    # the digits) for 0.00ddd, after the first digit in exponent form
    dot_at = [7 + (d if d in fixed and d > 0 else _DIGITS if d in fixed
                   else 1) for d in decpts]
    layouts = [_cell_mask(code, n, neg) for code in range(_CODES)
               for n in range(1, _DIGITS + 1) for neg in (False, True)]
    for text in (b"nan", b"inf", b"-inf"):
        m = np.zeros(8 * _WORDS, dtype=bool)
        m[8 - len(text):8] = m[31] = True
        layouts.append(m)
    tables = SimpleNamespace(
        g1=np.array([x >> 63 for x in g], dtype=np.uint64),
        g0=np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64),
        head=words([p.rjust(7) + b"%d" % d for p in prefixes for d in range(10)]
                   + [b"nan".rjust(8), b"inf".rjust(8), b"-inf".rjust(8)]),
        quads=words([b"%04d\0\0\0\0" % v for v in range(10000)]),
        zeros=np.array([4] + [len(s) - len(s.rstrip("0"))
                              for s in map(str, range(1, 10000))]),
        expo=words([b"\0\0" + (b"e%+03d" % (d - 1)).rjust(5) + b"\0"
                    for d in decpts]),
        layout=np.array([34 * (d - _FIXED_MIN if d in fixed
                               else _CODES - 2 + (abs(d - 1) >= 100))
                         for d in decpts]),
        prefix=np.array([10 * (1 - d) if d in fixed and d <= 0 else 0
                         for d in decpts]),
        keep=by_word(lambda i, x: i < x),
        move=by_word(lambda i, x: i > x),
        dot=by_word(lambda i, x: i == x) & np.uint64(0x2E2E2E2E2E2E2E2E),
        mask=np.array(layouts, dtype=np.uint8).view(np.uint64),
    )
    for table in vars(tables).values():  # shared by every caller
        table.setflags(write=False)
    return tables


def _mulhi(a0, a1, b0, b1):
    """floor(a b / 2^64) of uint64s a = a1 2^32 + a0 and b = b1 2^32 + b0."""
    cross1 = a0 * b1
    cross2 = a1 * b0
    carry = ((a0 * b0) >> 32) + (cross1 & _M32) + (cross2 & _M32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (carry >> 32)


def _schubfach(c, q):
    """``(f, k)``: f 10^k is the shortest decimal that rounds to c 2^q.

    For normal doubles: 2^52 <= c < 2^53, -1074 <= q <= 971.  Of two
    shortest candidates it takes the nearer, and of two equally near the
    even one.  f has 16 or 17 digits, trailing zeros included.
    """
    tables = _tables()
    regular = (c != _C_MIN) | (q == _Q_MIN)
    # floor(q log10 2), or floor(q log10 2 + log10 3/4) at a power of two,
    # whose rounding interval is 3/4 as wide
    k = (q * 661971961083 - ~regular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = tables.g1[k - _K_MIN], tables.g0[k - _K_MIN]
    # M = floor(g1 cp / 2) + floor(g0 cp / 2^64) = hi 2^63 + lo, for
    # cp = 4 c 2^h; rounded to odd, M / 2^63 is vb, 4 c 10^-k
    cp = c << (h + 2)
    cp_lo, cp_hi = cp & _M32, cp >> 32
    z = ((g1 * cp) >> 1) + _mulhi(g0 & _M32, g0 >> 32, cp_lo, cp_hi)
    hi = _mulhi(g1 & _M32, g1 >> 32, cp_lo, cp_hi) + (z >> 63)
    lo = z & _M63
    vb = hi | (lo + _M63) >> 63
    g0_cp = g0 * cp  # the low 64 bits

    def bound(t, up):
        """Like vb, at cp +- 2^(t+1), from M and no further 128-bit product.

        M moves by g1 2^t + floor(g0 2^(t+1) / 2^64), plus the carry out of
        (or minus the borrow from) the low 64 bits of g0 cp.
        """
        g0_d = g0 << (t + 1)  # g0 2^(t+1) mod 2^64
        crossed = (g0_cp + g0_d < g0_cp) if up else g0_cp < g0_d
        e_lo = ((g1 << t) & _M63) + (g0 >> (63 - t)) + crossed  # <= 2^63
        if up:
            m = lo + e_lo
            m_hi = hi + (g1 >> (63 - t)) + (m >> 63)
        else:
            m = (lo | np.uint64(1 << 63)) - e_lo
            m_hi = hi - (g1 >> (63 - t)) - 1 + (m >> 63)
        return m_hi | ((m & _M63) + _M63) >> 63

    odd = c & 1
    vbl = bound(h - (~regular).astype(np.uint64), up=False) + odd
    vbr = bound(h, up=True) - odd
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    mid = (s << 2) + 2
    # s or s + 1: the one inside the interval, else the nearer, else even;
    # a multiple of 10 inside it, if there is just one, beats both.  The
    # choices are spelled in arithmetic: np.where is slow on mixed masks.
    nearer_t = (vb > mid) | ((vb == mid) & ((s & 1) == 1))
    f = s + ((win & ~uin) | ((uin == win) & nearer_t))
    ten = upin != wpin
    f += ten * (sp10 + wpin * np.uint64(10) - f)
    return f, k


def _decimals(x):
    """``(F, decpt, special)`` of 1-D float64 ``x``: |x| = 0.F 10^decpt.

    F holds the shortest digits, zero-padded to 17 (uint64).  ``special``
    is 0, or the layout of nan, inf or -inf; zero has F = 0, decpt = 1.
    """
    bits = x.view(np.uint64)
    biased = (bits >> 52 & 0x7FF).astype(np.int64)
    normal = (biased != 0) & (biased != 0x7FF)
    c = bits & (_C_MIN - 1) | _C_MIN
    q = biased - 1075
    others = np.flatnonzero(~normal)
    c[others] = _C_MIN  # work these out as 1.0, and patch them below
    q[others] = -52
    f, k = _schubfach(c, q)
    short = f < _E16
    digits = f + f * (short * np.uint64(9))
    decpt = k + _DIGITS - short
    with np.errstate(invalid="ignore"):  # trunc of a signalling nan
        whole = np.flatnonzero(normal & (x == np.trunc(x))
                               & (np.abs(x) < 2.0**53))
    if whole.size:  # integers: their own digits
        n = np.abs(x[whole]).astype(np.int64)
        length = np.searchsorted(_POW10, n, side="right")
        digits[whole] = n * _POW10[_DIGITS - length]
        decpt[whole] = length
    special = np.zeros(x.shape, dtype=np.intp)
    for at in others.tolist():
        value = float(x[at])
        digits[at], decpt[at] = 0, 1
        if value != value:
            special[at] = _SPECIAL
        elif value in (np.inf, -np.inf):
            special[at] = _SPECIAL + 1 + (value < 0)
        elif value != 0:  # subnormal
            mantissa, exponent = repr(abs(value)).split("e")
            digits[at] = int(mantissa.replace(".", "").ljust(_DIGITS, "0"))
            decpt[at] = int(exponent) + 1
    return digits, decpt, special


def _float_cells(x, last):
    """Words and mask words, shape x.shape + (4,), of float64 cells ``x``.

    ``x`` is (rows, columns); ``last`` flags the columns whose cells end a
    line (newline, not comma).
    """
    tables = _tables()
    flat = x.reshape(-1)
    digits, decpt, special = _decimals(flat)
    e = decpt - _K_MIN - 1
    first = digits // _E16
    digits -= first * _E16
    high = digits // _E8
    low = digits - high * _E8
    q0, q2 = high // _E4, low // _E4
    quad = [q0, high - q0 * _E4, q2, low - q2 * _E4]
    first, *quad = (part.view(np.int64) for part in (first, *quad))
    trailing = np.take(tables.zeros, quad[3])
    few = np.flatnonzero(quad[3] == 0)
    if few.size:
        q0, q1, q2 = (part[few] for part in quad[:3])
        zeros = tables.zeros
        trailing[few] = np.where(q2 != 0, 4 + zeros[q2],
                                 np.where(q1 != 0, 8 + zeros[q1],
                                          12 + zeros[q0]))
    neg = (flat.view(np.int64) < 0) * 1
    layout = np.take(tables.layout, e) + neg + 2 * (_DIGITS - 1 - trailing)
    head = np.take(tables.prefix, e) + 50 * neg + first
    if special.any():
        layout = np.where(special == 0, layout, special)
        head = np.where(special == 0, head, special - _SPECIAL + 100)
    words = np.empty((flat.size, _WORDS), dtype=np.uint64)
    quads = tables.quads
    words[:, 0] = np.take(tables.head, head)
    words[:, 1] = np.take(quads, quad[0]) | np.take(quads, quad[1]) << 32
    words[:, 2] = np.take(quads, quad[2]) | np.take(quads, quad[3]) << 32
    words[:, 3] = 0
    for w in (3, 2, 1):  # shift the '.' in
        moved = words[:, w] << 8 | words[:, w - 1] >> 56
        words[:, w] = (words[:, w] & np.take(tables.keep[w - 1], e)
                       | moved & np.take(tables.move[w - 1], e)
                       | np.take(tables.dot[w - 1], e))
    words[:, 3] |= np.take(tables.expo, e)
    words = words.reshape(x.shape + (_WORDS,))
    words[..., 3] |= np.where(last, np.uint64(ord("\n") << 56),
                              np.uint64(ord(",") << 56))
    return words, np.take(tables.mask, layout, axis=0).reshape(words.shape)


def _int_cells(values, last):
    """Words and mask words, shape (n, w), of nonnegative int cells.

    The first 8 w - 1 bytes hold the digits, zero-padded and right-aligned,
    and the last byte holds the separator.
    """
    quads = _tables().quads
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("csv_lines formats nonnegative ints only")
    length = np.maximum(np.searchsorted(_POW10, values, side="right"), 1)
    n_words = int(length.max(initial=1)) // 8 + 1
    quad = []  # 8 w digits, four at a time, most significant first
    for _ in range(2 * n_words):
        rest = values
        values = values // 10**4
        quad.insert(0, np.take(quads, rest - values * 10**4))
    quad.append(np.uint64(ord("\n") if last else ord(",")))
    words = np.empty((len(length), n_words), dtype=np.uint64)
    for w in range(n_words):  # drop the first digit
        words[:, w] = (quad[2 * w] >> 8 | quad[2 * w + 1] << 24
                       | quad[2 * w + 2] << 56)
    valid = np.arange(8 * n_words) >= 8 * n_words - 1 - length[:, None]
    return words, valid.view(np.uint64)


def csv_lines(columns):
    """The bytes of ``"%r,...,%r\\n" % row`` for each row of ``columns``.

    ``columns`` are equal-length 1-D arrays of nonnegative ints or of
    float64s; the result is a uint8 array.  It takes a few hundred bytes
    of memory per row, so callers pass blocks of rows.
    """
    columns = [np.asarray(col) for col in columns]
    if any(col.dtype.kind not in "iuf" for col in columns):
        raise TypeError("csv_lines formats int and float columns only")
    rows = len(columns[0])
    floats = [n for n, col in enumerate(columns) if col.dtype.kind == "f"]
    if floats:
        x = np.stack([columns[n].astype(np.float64, copy=False)
                      for n in floats], axis=1)
        words, masks = _float_cells(x, np.array(floats) == len(columns) - 1)
    cells = []
    for n, col in enumerate(columns):
        if col.dtype.kind == "f":
            at = floats.index(n)
            cells.append((words[:, at], masks[:, at]))
        else:
            cells.append(_int_cells(col, n == len(columns) - 1))
    width = sum(text.shape[1] for text, _ in cells)
    text = np.empty((rows, width), dtype=np.uint64)
    valid = np.empty((rows, width), dtype=np.uint64)
    start = 0
    for cell_text, cell_valid in cells:
        stop = start + cell_text.shape[1]
        text[:, start:stop] = cell_text
        valid[:, start:stop] = cell_valid
        start = stop
    return text.view(np.uint8).reshape(-1)[valid.view(bool).reshape(-1)]
