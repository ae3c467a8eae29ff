"""CSV lines of float64 values exactly as Python's '%.17g' writes them.

'%.17g' rounds the exact binary value of x to 17 significant digits, ties
to even (D. M. Gay, AT&T NAM 90-10, 1990).  Here each value gets its
digits D = round(|x| * 10**(16 - E)) from Dekker's exact two-product of x
with a double-double table of powers of ten (T. J. Dekker, Numer. Math.
18, 224 (1971)), a whole block at a time.  The product is known to about
2**-40 of a unit, so the rounding is certain unless the fraction lies
within 2**-20 of one half; such values, and |x| outside 1e-270..1e300,
where the table or the split would leave the double range, go through
'%.17g' itself.  The text of each value is laid out in four 64-bit words,
with NUL where a character is absent, and the NULs are dropped at the end.
"""

import math

import numpy as np

_FORMAT = "%.17g"           # what the module reproduces; the uncertified route

_U = np.uint64
_SPLIT = 134217729.0        # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_TINY, _HUGE = 1e-270, 1e300
# 10**k for k = 16 - E: log10 puts E of a value in range in -270..299, and
# the correction moves it by one at most
_K_MIN, _K_MAX = 16 - 300, 16 + 271


def _split(a):
    """a as the sum of two halves of at most 26 significant bits each."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _powers():
    """Rows hi, hi's two halves and lo, with 10**k = hi + lo to about
    2**-106 for k from _K_MIN to _K_MAX, from exact integer arithmetic."""
    hi, lo = [], []
    power = 10 ** -_K_MIN
    for k in range(_K_MIN, 0):          # 10**k = 1 / power
        h = float(f"1e{k}")             # correctly rounded; so is int / int
        num, den = h.as_integer_ratio()
        hi.append(h)
        # 10**k - h = (den - num * power) / power / den, den a power of 2
        lo.append(math.ldexp((den - num * power) / power,
                             1 - den.bit_length()))
        power //= 10
    for k in range(_K_MAX + 1):         # power = 10**k
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    hi = np.array(hi)
    return np.array([hi, *_split(hi), lo])


def _text(chars: bytes) -> int:
    return int.from_bytes(chars, "little")


_POWERS = _powers()
_n = np.arange(10000)
# the four ASCII digits of 0..9999, the first in the lowest byte
_DIGITS4 = sum((_n // 10 ** (3 - i) % 10 + 48) << 8 * i
               for i in range(4)).astype(_U)
# at g + 10000 * z: the trailing zeros of a digit group g that z all-zero
# groups follow
_TRAILING = np.zeros(10000, np.int8)
for _j in range(1, 5):
    _TRAILING[::10 ** _j] = _j
_TRAILING = (_TRAILING + np.arange(0, 16, 4, dtype=np.int8)[:, None]).ravel()
del _n, _j


def _per_byte(text):
    """Column q: the first 24 bytes of text(q), as three words."""
    table = b"".join(text(q)[:24].ljust(24, b"\0") for q in range(25))
    return np.frombuffer(table, "<u8").reshape(25, 3).T.copy()


# at byte q of the first three words: the bytes below q, and '.' at q
_BELOW = _per_byte(lambda q: b"\xff" * q)
_POINT = _per_byte(lambda q: b"\0" * q + b".")
# bytes 1..5 before the digits of a value of exponent -lead: '0.' and zeros
_LEADING = np.array([_text(b"\0" + b"0." + b"0" * (lead - 1)) if lead else 0
                     for lead in range(5)], _U)
_COMMA, _NEWLINE = _U(_text(b"\0" * 7 + b",")), _U(_text(b"\0" * 7 + b"\n"))


def _scaled(ax, e):
    """The integer part and fraction of ax * 10**(16 - e), exact to about
    2**-40 wherever that product is at least 2**53."""
    hi, hi_high, hi_low, lo = np.take(_POWERS, 16 - _K_MIN - e, axis=1)
    p = ax * hi
    high, low = _split(ax)
    # ax * hi - p exactly (Dekker), plus ax * lo
    err = (((high * hi_high - p) + high * hi_low) + low * hi_high
           + low * hi_low) + ax * lo
    floor = np.floor(err)
    return p.astype(np.int64) + floor.astype(np.int64), err - floor


def _decimal(x):
    """Per value: the exponent E and the digits D, 17 of them, of
    '%.17g' (0 for a zero), and whether the rounding of D is certain."""
    ax = np.abs(x)
    certified = (ax >= _TINY) & (ax < _HUGE)
    ax[~certified] = 5.0            # any value in range: its text is replaced
    e = np.floor(np.log10(ax)).astype(np.int64)
    d, frac = _scaled(ax, e)
    # log10 only estimates the exponent: a product off the 17-digit range
    # takes the next one
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if off.size:
        e[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off], frac[off] = _scaled(ax[off], e[off])
        certified[off] &= (d[off] >= 10 ** 16) & (d[off] < 10 ** 17)
    certified &= np.abs(frac - 0.5) >= 2.0 ** -20
    d += frac > 0.5
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    d[x == 0] = 0
    return e, d, certified


def _digit_words(d):
    """The 17 ASCII digits of each D at bytes 6..22 of three words, and
    the number of significant digits, 17 less the trailing zeros."""
    first, rest = np.divmod(d, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    g1, g2 = np.divmod(upper, 10000)
    g3, g4 = np.divmod(lower, 10000)
    upper = _DIGITS4.take(g1) | _DIGITS4.take(g2) << _U(32)
    lower = _DIGITS4.take(g3) | _DIGITS4.take(g4) << _U(32)
    words = np.empty((3, d.size), _U)
    words[0] = (first.astype(_U) | _U(ord("0"))) << _U(48) | upper << _U(56)
    words[1] = upper >> _U(8) | lower << _U(56)
    words[2] = lower >> _U(8)
    return words, 17 - _TRAILING.take(np.where(g4, g4, np.where(
        g3, g3 + 10000, np.where(g2, g2 + 20000, g1 + 30000))))


def format_rows(block: np.ndarray) -> str:
    """The CSV lines of a float64 (rows, columns) block: each value as
    '%.17g' writes it, commas between the values of a row, a newline after
    each row."""
    rows, columns = block.shape
    x = block.T.ravel()             # column by column
    e, d, certified = _decimal(x)
    # words 0..2 hold the sign at byte 0, the '0.000' of a small value at
    # bytes 1..5 and the digits from byte 6, with '.' inserted after the
    # integer digits; word 3 holds the exponent from byte 24 and the
    # separator at byte 31
    y = np.empty((4, x.size), _U)
    text = y[:3]
    text[...], digits = _digit_words(d)
    # '%g' writes -4 <= E <= 16 in fixed notation.  The first 'keep'
    # digits stay even when zero: E + 1 in fixed notation, 1 before an
    # exponent, none after the '0.' of E < 0, where the point goes to byte
    # 23 and is cut off with the trailing zeros
    fixed = (e >= -4) & (e <= 16)
    lead = np.where(fixed & (e < 0), -e, 0)
    keep = np.where(fixed & (e >= 0), e + 1, lead == 0)
    point = 6 + np.where(lead, 17, keep)
    below = text & np.take(_BELOW, point, axis=1)
    above = text ^ below
    text[...] = below | above << _U(8) | np.take(_POINT, point, axis=1)
    text[1:] |= above[:-1] >> _U(56)
    end = 6 + np.maximum(digits, keep) + (digits + 6 > point)
    text &= np.take(_BELOW, end, axis=1)
    text[0] |= _LEADING.take(lead) | np.signbit(x) * _U(ord("-"))
    y[3] = _COMMA
    y[3, -rows:] = _NEWLINE
    scientific = np.flatnonzero(~fixed)
    if scientific.size:
        exponent = e[scientific]
        size = np.abs(exponent)
        y[3, scientific] |= (
            _U(ord("e")) | np.where(exponent < 0, _U(ord("-")), _U(ord("+")))
            << _U(8) | _DIGITS4.take(size)
            >> np.where(size < 100, _U(16), _U(8)) << _U(16))

    other = ~certified & (x != 0)
    if other.any():
        y[3, other] &= _U(0xFF) << _U(56)         # the separator only
        for chars, where in ((b"nan", np.isnan(x)), (b"inf", x == np.inf),
                             (b"-inf", x == -np.inf)):
            text[:, where] = np.frombuffer(chars.ljust(24, b"\0"),
                                           _U)[:, None]
            other &= ~where
        for i in np.flatnonzero(other):
            text[:, i] = np.frombuffer(
                (_FORMAT % x[i]).encode().ljust(24, b"\0"), _U)
    return y.reshape(4, columns, rows).T.tobytes().replace(
        b"\0", b"").decode("ascii")
