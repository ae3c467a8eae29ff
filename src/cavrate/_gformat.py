"""The writers' text of float64 values: CSV lines exactly as Python's
'%.17g' writes each value, or JSON objects exactly as json.dump writes
them, each value as float.__repr__ does.

'%.17g' rounds the exact binary value of x to 17 significant digits, ties
to even (D. M. Gay, AT&T NAM 90-10, 1990).  Here each value gets its
digits D = round(|x| * 10**(16 - E)) from Dekker's exact two-product of x
with a double-double table of powers of ten (T. J. Dekker, Numer. Math.
18, 224 (1971)), a whole block at a time.  The product is known to about
2**-40 of a unit, so the rounding is certain unless the fraction lies
within 2**-20 of one half.

repr writes the fewest digits that read back as x, the nearest to x among
them.  The same product, with the half gaps to the neighbouring doubles
scaled alike, bounds the integers that read back as x; the multiple of the
largest power of ten among them is those digits, as in Ryu (U. Adams, PLDI
2018).  They are certain unless an end of that interval, or the midpoint
between two candidates, lies within 2**-20 of an integer.

Uncertain values, values next to a power of ten, whose exponent the
product leaves open, |x| outside 1e-270..1e300, where the table or the
split would leave the double range, and nan and the infinities go through
'%.17g' or json.dumps itself.  The text of each value is laid out in
64-bit words, with NUL where a character is absent, and the NULs are
dropped at the end.

Each block pays the kernel's numpy calls a fixed cost, about 0.2 ms
(2 vCPUs, Python 3.11, numpy 2.4) whatever its size, so the blocks are
large (_BLOCK values).  Every array of the kernel is one quantity
or one 64-bit word of each value of the block, in one dimension, and
stays below glibc's 128 KiB mmap threshold: a (3, n) or (4, n) stack
would cross it and be mapped, faulted in and unmapped again in every
block.  Besides each block's text, the laid-out (rows, columns, words)
array is the one allocation that crosses it: a write makes it once, and
every block reuses it.
"""

import functools
import json
import math

import numpy as np

_FORMAT = "%.17g"           # what the CSV style reproduces; its uncertain route

_U = np.uint64
_SPLIT = 134217729.0        # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_TINY, _HUGE = 1e-270, 1e300
_DOUBT = 2.0 ** -20         # closer than this to a rounding boundary: uncertain
_BLOCK = 8192               # values per block: 64 KiB per kernel array
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
# at n: the largest power of ten up to n + 1
_STEP = 10 ** np.floor(np.log10(np.arange(1, 100))).astype(np.int64)
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
# per style, shortest or not: the largest E in fixed notation, and the
# route of an uncertain or non-finite value
_STYLES = {False: (16, _FORMAT.__mod__), True: (15, json.dumps)}


def _scaled(ax, e):
    """The integer part and fraction of ax * 10**(16 - e), exact to about
    2**-40 wherever that product is at least 2**53."""
    hi, hi_high, hi_low, lo = (row.take(16 - _K_MIN - e) for row in _POWERS)
    p = ax * hi
    high, low = _split(ax)
    # ax * hi - p exactly (Dekker), plus ax * lo
    err = (((high * hi_high - p) + high * hi_low) + low * hi_high
           + low * hi_low) + ax * lo
    floor = np.floor(err)
    return p.astype(np.int64) + floor.astype(np.int64), err - floor


def _sure(t):
    """Whether t is not within _DOUBT of an integer."""
    return np.abs(t - np.rint(t)) >= _DOUBT


def _shortest(ax, e, d, frac):
    """The fewest digits that read back as ax, nearest to ax among them, as
    a 17-digit D = d + frac rounded to a multiple of a power of ten; and
    whether they are certain."""
    mantissa, exponent = np.frexp(ax)
    # half the gap to the next double up, scaled: a power of two times
    # 10**(16 - e), whose table entry is within 2**-53 of it, far inside
    # _DOUBT; the gap below a power of two is half as large
    up = np.ldexp(_POWERS[0].take(16 - _K_MIN - e), exponent - 54)
    top, bottom = frac + up, frac - np.where(mantissa == 0.5, 0.5 * up, up)
    sure = _sure(top) & _sure(bottom)
    upper = d + np.floor(top).astype(np.int64)
    lower = d + np.ceil(bottom).astype(np.int64)
    # the upper - lower + 1 integers of [lower, upper] hold a multiple of
    # step, the largest power of ten up to their count, and at most one of
    # 10 * step: that one has the fewest digits; failing it, the multiple
    # of step nearest to ax that lies inside
    step = _STEP.take(upper - lower)
    shorter = upper // (10 * step) * (10 * step)
    at_shorter = shorter >= lower
    floor = d - d % step
    rest = d - floor + frac
    nearest = floor + step * (rest > 0.5 * step)
    nearest += step * ((nearest < lower).astype(np.int64)
                       - (nearest > upper))
    sure &= at_shorter | (np.abs(rest - 0.5 * step) >= _DOUBT)
    return np.where(at_shorter, shorter, nearest), sure


def _decimal(x, shortest):
    """Per value: the exponent E and the digits D, 17 of them (0 for a
    zero), of '%.17g' or, when shortest, of repr with trailing zeros; and
    whether D is certain."""
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
    if shortest:
        d, sure = _shortest(ax, e, d, frac)
        certified &= sure
    else:
        certified &= np.abs(frac - 0.5) >= _DOUBT
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
    words = [(first.astype(_U) | _U(ord("0"))) << _U(48) | upper << _U(56),
             upper >> _U(8) | lower << _U(56), lower >> _U(8)]
    return words, 17 - _TRAILING.take(np.where(g4, g4, np.where(
        g3, g3 + 10000, np.where(g2, g2 + 20000, g1 + 30000))))


@functools.lru_cache(maxsize=4)
def _frame(names, columns):
    """Per column: the words of the text before each value, and a word
    that ends in the text after it, in the JSON style when names are given
    and in the CSV style otherwise."""
    if names is None:
        before = [b""] * columns
        after = [b","] * (columns - 1) + [b"\n"]
    else:
        members = [f"  {json.dumps(name)}: ".encode() for name in names]
        before = [b",\n {\n" + members[0]] + [b",\n" + member
                                             for member in members[1:]]
        after = [b""] * (columns - 1) + [b"\n }"]
    size = -(-max(map(len, before)) // 8)
    return (np.array([[_text(text[i:i + 8]) for i in range(0, 8 * size, 8)]
                      for text in before], _U).reshape(columns, size),
            np.array([_text(text.rjust(8, b"\0")) for text in after], _U))


def _words(x, shortest):
    """The text of each value in four words: the sign at byte 0, the
    '0.000' of a small value at bytes 1..5 and the digits from byte 6,
    with '.' inserted after the integer digits, in words 0..2; the
    exponent from byte 24 in word 3, which ends in _frame's text after
    the value."""
    last_fixed, uncertain = _STYLES[shortest]
    e, d, certified = _decimal(x, shortest)
    text, digits = _digit_words(d)
    # '%g' writes -4 <= E <= 16 in fixed notation, repr -4 <= E <= 15.
    # The first 'keep' digits stay even when zero: E + 1 in fixed
    # notation, 1 before an exponent, none after the '0.' of E < 0, where
    # the point goes to byte 23 and is cut off with the trailing zeros
    fixed = (e >= -4) & (e <= last_fixed)
    lead = np.where(fixed & (e < 0), -e, 0)
    keep = np.where(fixed & (e >= 0), e + 1, lead == 0)
    point = 6 + np.where(lead, 17, keep)
    # repr ends a fixed value of E >= 0 in '.0' where '%g' has no point
    shown = np.maximum(digits, keep + (shortest & fixed & (e >= 0)))
    end = 6 + shown + (shown + 6 > point)
    carry = _U(0)
    for word, below_at, point_at in zip(text, _BELOW, _POINT):
        below = word & below_at.take(point)
        word ^= below               # the bytes from the point on
        moved = word >> _U(56)      # the byte the shift moves out
        word <<= _U(8)
        word |= below | point_at.take(point) | carry
        word &= below_at.take(end)
        carry = moved
    text[0] |= _LEADING.take(lead) | np.signbit(x) * _U(ord("-"))
    exponent = np.zeros(x.size, _U)
    scientific = np.flatnonzero(~fixed)
    if scientific.size:
        e = e[scientific]
        size = np.abs(e)
        exponent[scientific] = (
            _U(ord("e")) | np.where(e < 0, _U(ord("-")), _U(ord("+")))
            << _U(8) | _DIGITS4.take(size)
            >> np.where(size < 100, _U(16), _U(8)) << _U(16))
    other = np.flatnonzero(~certified & (x != 0))
    if other.size:
        exponent[other] = 0
        texts = np.frombuffer(b"".join(
            uncertain(v).encode().ljust(24, b"\0")
            for v in x[other].tolist()), _U).reshape(-1, 3)
        for w, word in enumerate(text):
            word[other] = texts[:, w]
    return text + [exponent]


def format_rows(columns, names=None):
    """The text of a table given as its columns (float64 arrays or lists
    of floats), whole rows of at most _BLOCK values at a time.  Without
    names, its CSV lines: each value as '%.17g' writes it, commas between
    the values of a row, a newline after each row.  With the columns'
    names, its JSON objects as json.dump(..., indent=1) writes them in a
    list, each led by the ',\\n' that separates it from the one before."""
    shortest = names is not None
    before, after = _frame(names, len(columns))
    size = before.shape[1]
    rows, per_block = len(columns[0]), max(1, _BLOCK // len(columns))
    # made once per write, with the text before each value; blocks reuse it
    out = np.empty((min(rows, per_block), len(columns), size + 4), _U)
    out[..., :size] = before
    for start in range(0, rows, per_block):
        block = np.array([values[start:start + per_block]
                          for values in columns], float)     # column by column
        laid = out[:block.shape[1]]
        for w, word in enumerate(_words(block.ravel(), shortest)):
            laid[..., size + w] = word.reshape(block.shape).T
        laid[..., -1] |= after
        # bytes.translate drops the NULs at the speed of numpy's boolean
        # mask, without np.compress's index array of 8 bytes a character
        yield laid.tobytes().translate(None, b"\0").decode("ascii")
