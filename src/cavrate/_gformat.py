"""The writers' text of float64 values: CSV lines exactly as Python's
'%.17g' writes each value, or JSON objects exactly as json.dump writes
them, each value as float.__repr__ does.

'%.17g' rounds the exact binary value of x to 17 significant digits, ties
to even (D. M. Gay, AT&T NAM 90-10, 1990).  Here each value gets its
digits D = round(|x| * 10**(16 - E)) from Dekker's exact two-product of x
with a double-double table of powers of ten (T. J. Dekker, Numer. Math.
18, 224 (1971)), a whole block at a time.  The product is known to about
2**-40 of a unit, so the rounding is certain unless the fraction lies
within 2**-20 of one half.  Where 10**(16 - E) is itself a double, for E
from -6 to 16, the product is exact, and so is every rounding, ties
included.

repr writes the fewest digits that read back as x, the nearest to x among
them.  The same product, with the half gaps to the neighbouring doubles
scaled alike, bounds the integers that read back as x; the multiple of the
largest power of ten among them is those digits, as in Ryu (U. Adams, PLDI
2018).  They are certain unless an end of that interval, or the midpoint
between two candidates, lies within 2**-20 of an integer.

Uncertain values, values next to a power of ten, whose exponent the
product leaves open, |x| outside 1e-270..1e300, where the table or the
split would leave the double range, and nan and the infinities go through
'%.17g' or json.dumps itself.

The text of each value is laid out in 64-bit words, with NUL where a
character is absent, and the NULs are dropped at the end.  Word 0 holds
the separator before the value, its sign, the '0.' and zeros of a small
value, its first digit and the point after it; words 1 and 2 the other
16 digits, four at a time from a table, with the point among them where
fixed notation puts it there; word 3, which a block lays out only when
one of its values needs it, the exponent or the end of an uncertain
value's text.  Tables per exponent give word 0 and word 3.

Each block pays the kernel's numpy calls a fixed cost, whatever its size:
a 1-row write takes about 0.08 ms as CSV and 0.14 ms as JSON (2 vCPUs,
Python 3.11, numpy 2.4).  So the blocks are large (_BLOCK values); a full
one takes about 1.0 ms as CSV, a fifth of it in bytes.translate, and
1.9 ms as JSON.  Every array of the kernel is one quantity or one 64-bit
word of each value of the block, in one dimension, and stays below
glibc's 128 KiB mmap threshold: a (3, n) or (4, n) stack would cross it
and be mapped, faulted in and unmapped again in every block.  Besides
each block's text, the laid-out (rows, columns, words) array is the one
allocation that crosses it: a write makes it once, and every block
reuses it.
"""

import functools
import json

import numpy as np

_FORMAT = "%.17g"           # what the CSV style reproduces; its uncertain route

_U = np.uint64
_SPLIT = 134217729.0        # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_TINY, _HUGE = 1e-270, 1e300
_DOUBT = 2.0 ** -20         # closer than this to a rounding boundary: uncertain
_BLOCK = 8192               # values per block: 64 KiB per kernel array
# the tables of exponents E are indexed by E - _E_MIN: log10 puts E of a
# value in range in -270..299, and the correction moves it by one at most
_E_MIN, _E_MAX = -271, 300
_E0 = -_E_MIN               # the index of E = 0


def _split(a):
    """a as the sum of two halves of at most 26 significant bits each."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _powers():
    """Rows hi, hi's two halves and lo, with 10**(16 - E) = hi + lo to
    about 2**-106 at E - _E_MIN, each a correctly rounded int / int."""
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        n, d = (num / den).as_integer_ratio()
        hi.append(n / d)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    return np.array([hi, *_split(hi), lo])


def _text(chars: bytes) -> int:
    return int.from_bytes(chars, "little")


_POWERS = _powers()
_n = np.arange(10000)
# the four ASCII digits of 0..9999, the first in the lowest byte; from
# 10000 on, the same without their trailing zeros
_DIGITS4 = sum((_n // 10 ** (3 - i) % 10 + 48) << 8 * i
               for i in range(4)).astype(_U)
_DIGITS4 = np.concatenate([_DIGITS4, _DIGITS4])
for _j in range(1, 5):
    _DIGITS4[10000::10 ** _j] &= _U((1 << 32 - 8 * _j) - 1)
_TRIMMED = _DIGITS4[10000:]
del _n, _j


def _per_byte(text):
    """Column q: the first 16 bytes of text(q), as two words."""
    table = b"".join(text(q)[:16].ljust(16, b"\0") for q in range(17))
    return np.frombuffer(table, "<u8").reshape(17, 2).T.copy()


# at byte q of the 16 digits after the first: the bytes below q, and '.'
# or '0' at q
_BELOW = _per_byte(lambda q: b"\xff" * q)
_POINT = _per_byte(lambda q: b"\0" * q + b".")
_ZERO = _per_byte(lambda q: b"\0" * q + b"0")


def _style(last_fixed, uncertain):
    """The largest E in fixed notation; at 10 * (E - _E_MIN) + f, word 0 of
    a value of exponent E and first digit f without its separator and sign:
    f at byte 7 after '0.' and zeros for E < 0 in fixed notation, else at
    byte 6 before a point, where the point goes there; per E, word 3, the
    exponent; and the route of an uncertain or non-finite value."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e <= last_fixed)
    heads = np.where((e >= 1) & fixed, _U(0), _U(_text(b"\0" * 7 + b".")))
    for lead in range(1, 5):
        heads[_E0 - lead] = _text(b"\0" * (6 - lead) + b"0."
                                  + b"0" * (lead - 1))
    places = np.where(fixed & (e < 0), _U(56), _U(48))
    heads = heads[:, None] | (np.arange(10, dtype=_U) + _U(ord("0"))
                              << places[:, None])
    size = np.abs(e)
    exponent = (_U(ord("e")) | np.where(e < 0, _U(ord("-")), _U(ord("+")))
                << _U(8) | _DIGITS4.take(size)
                >> np.where(size < 100, _U(16), _U(8)) << _U(16))
    exponent[fixed] = 0
    return last_fixed, heads.ravel(), exponent, uncertain


# per style, shortest or not
_STYLES = {False: _style(16, _FORMAT.__mod__), True: _style(15, json.dumps)}


def _scaled(ax, i):
    """The integer part and fraction of ax * 10**(16 - E), exact to about
    2**-40 wherever that product is at least 2**53."""
    hi, hi_high, hi_low, lo = (row.take(i) for row in _POWERS)
    p = ax * hi
    high, low = _split(ax)
    # ax * hi - p exactly (Dekker), plus ax * lo, in place and in the order
    # (((high * hi_high - p) + high * hi_low) + low * hi_high
    #  + low * hi_low) + ax * lo
    err = high * hi_high
    err -= p
    for term, factor in ((high, hi_low), (hi_high, low), (hi_low, low),
                         (lo, ax)):
        term *= factor
        err += term
    floor = np.floor(err)
    err -= floor
    d = p.astype(np.int64)
    d += floor.astype(np.int64)
    return d, err


def _sure(t):
    """Whether t is not within _DOUBT of an integer."""
    return np.abs(t - np.rint(t)) >= _DOUBT


def _shortest(ax, i, d, frac):
    """The fewest digits that read back as ax, nearest to ax among them, as
    a 17-digit D = d + frac rounded to a multiple of a power of ten; and
    whether they are certain."""
    # half the gap to the next double up, scaled: ax's power of two times
    # 2**-53 times 10**(16 - E), whose table entry is within 2**-53 of it,
    # far inside _DOUBT; the gap below a power of two is half as large
    power = (ax.view(_U) & _U(0x7FF << 52)).view(float)
    up = _POWERS[0].take(i) * power * 2.0 ** -53
    top, bottom = frac + up, frac - np.where(ax == power, 0.5 * up, up)
    del power, up
    sure = _sure(top) & _sure(bottom)
    # the integers of [d + ceil(bottom), d + floor(top)], some 2 to 23 of
    # them, as l..u: offsets from d - r, a multiple of 100
    base = d // 100 * 100
    r = (d - base).astype(float)
    u, l = np.floor(top) + r, np.ceil(bottom) + r
    del top, bottom
    # they hold a multiple of step, the largest power of ten up to their
    # count, 1 or 10, and at most one of 10 * step: that one has the
    # fewest digits; failing it, the multiple of step nearest to ax that
    # lies inside
    step = np.where(u - l >= 9, 10.0, 1.0)
    shorter = np.floor(u / (10 * step)) * (10 * step)
    at_shorter = shorter >= l
    nearest = np.floor(r / step) * step
    rest = r - nearest + frac
    nearest += step * (rest > 0.5 * step)
    nearest -= step * (nearest > u)
    nearest += step * (nearest < l)
    sure &= at_shorter | (np.abs(rest - 0.5 * step) >= _DOUBT)
    return base + np.where(at_shorter, shorter, nearest).astype(np.int64), sure


def _decimal(x, shortest):
    """Per value: the index E - _E_MIN of its exponent E, and its digits D,
    17 of them (0 for a zero), of '%.17g' or, when shortest, of repr with
    trailing zeros; and whether D is certain."""
    ax = np.abs(x)
    certified = (ax >= _TINY) & (ax < _HUGE)
    if not certified.all():
        ax[~certified] = 5.0        # any value in range: its text is replaced
    i = np.log10(ax)
    i -= _E_MIN                     # not negative: truncating floors
    i = i.astype(np.intp)
    d, frac = _scaled(ax, i)
    # log10 only estimates the exponent: a product off the 17-digit range
    # takes the next one
    off = (d - 10 ** 16).view(_U) >= _U(9 * 10 ** 16)
    if off.any():
        off = np.flatnonzero(off)
        i[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off], frac[off] = _scaled(ax[off], i[off])
        certified[off] &= (d[off] >= 10 ** 16) & (d[off] < 10 ** 17)
    if shortest:
        d, sure = _shortest(ax, i, d, frac)
        certified &= sure
    else:
        near = np.abs(frac - 0.5) < _DOUBT
        d += frac > 0.5
        if near.any():
            # where 10**(16 - E) is a double (lo is 0: E in -6..16) the
            # product is exact, and a tie is a true one: to the even digit
            near = np.flatnonzero(near)
            exact = _POWERS[3].take(i[near]) == 0
            certified[near] &= exact
            d[near] += exact & (frac[near] == 0.5) & (d[near] % 2 == 1)
    carry = d == 10 ** 17
    if carry.any():
        d[carry] = 10 ** 16
        i += carry
    if not certified.all():
        d[x == 0] = 0
    return i, d, certified


@functools.lru_cache(maxsize=4)
def _frame(names, columns):
    """Per column: the words of the text before each value, and the byte
    that separates it from the value before, in the JSON style when names
    are given and in the CSV style otherwise.  Each row, or each object, is
    led by the end of the one before it."""
    if names is None:
        before = [b""] * columns
        separator = [b"\n"] + [b","] * (columns - 1)
    else:
        members = [f"  {json.dumps(name)}: ".encode() for name in names]
        before = [b"\n },\n {\n" + members[0]] + [b",\n" + member
                                                  for member in members[1:]]
        separator = [b"\0"] * columns
    size = -(-max(map(len, before)) // 8)
    return (np.array([[_text(text[i:i + 8]) for i in range(0, 8 * size, 8)]
                      for text in before], _U).reshape(columns, size),
            np.array([_text(text) for text in separator], _U))


def _wide(x, i, certified, shortest):
    """Whether a value of the block needs a fourth word: an exponent, or
    the text of the uncertain route."""
    last_fixed = _STYLES[shortest][0]
    return bool(i.min() < _E0 - 4 or i.max() > _E0 + last_fixed
                or not certified.all() and not (certified | (x == 0)).all())


def _words(x, i, d, certified, shortest, out):
    """Write words 1..2, and 3 if out has it, of the text of each value
    x[j] to out[j], and return word 0; d is used up.  Word 0 holds the
    sign at byte 1, and the first digit at byte 7 after the '0.000' of a
    small value or at byte 6 before a point; words 1..2 the other 16
    digits without trailing zeros, with the point among them in fixed
    notation for 1 <= E, which moves the digits before it a byte down;
    word 3 the exponent."""
    last_fixed, heads, exponents, uncertain = _STYLES[shortest]
    d = d.view(_U)
    first = d // _U(10 ** 16)
    d -= first * _U(10 ** 16)
    head = i * 10
    head += first.view(np.int64)
    del first
    word0 = heads.take(head)
    word0 |= (x.view(_U) >> _U(63)) * _U(ord("-") << 8)
    # the four groups of four digits after the first: g2 and g4 in place
    # of their upper and lower halves
    g2 = d // _U(10 ** 8)
    d -= g2 * _U(10 ** 8)
    g1, g3, g4 = g2 // _U(10000), d // _U(10000), d
    g2 -= g1 * _U(10000)
    g4 -= g3 * _U(10000)
    np.bitwise_or(_DIGITS4.take(g1), _DIGITS4.take(g2) << _U(32),
                  out=out[:, 1])
    np.bitwise_or(_DIGITS4.take(g3), _TRIMMED.take(g4) << _U(32),
                  out=out[:, 2])
    if out.shape[1] > 3:
        out[:, 3] = exponents.take(i)
    if not g4.all():
        # the groups before trailing all-zero ones lose their trailing zeros
        z = np.flatnonzero(g4 == 0)
        h1, h2, h3 = g1[z], g2[z], g3[z]
        zero3 = h3 == 0
        zero2 = zero3 & (h2 == 0)
        out[z, 2] = _TRIMMED.take(h3)
        out[z, 1] = (_DIGITS4.take(h1 + _U(10000) * zero2)
                     | _DIGITS4.take(h2 + _U(10000) * zero3) << _U(32))
        none = z[zero2 & (h1 == 0)]
        if none.size:
            # a single digit: no point after it, but repr writes d.0
            e = i[none] - _E0
            ones = shortest & (e == 0)
            word0[none] &= np.where((e < -4) | (e >= 0) & ~ones,
                                    _U(2 ** 56 - 1), ~_U(0))
            out[none, 1] = ones * _U(ord("0"))
    if i.max() > _E0:
        # fixed notation with 1 <= E: the first E of the 16 digits all
        # stay, and move a byte down, the lowest to byte 7 of word 0, for
        # the point after them
        mid = np.flatnonzero((i > _E0) & (i <= _E0 + last_fixed))
        k = i[mid] - _E0
        below = _BELOW[:, k]
        trimmed = out[mid, 1:3].T
        full = np.array([_DIGITS4.take(g1[mid]) | _DIGITS4.take(g2[mid])
                         << _U(32), _DIGITS4.take(g3[mid])
                         | _DIGITS4.take(g4[mid]) << _U(32)])
        empty = ~(trimmed & ~below).any(axis=0)
        digits = full & below | trimmed
        if shortest:
            digits |= _ZERO[:, k] * empty       # repr writes .0
        low = digits & below
        digits ^= low
        digits |= _POINT[:, k - 1] * (shortest | ~empty)
        digits[0] |= low[0] >> _U(8) | low[1] << _U(56)
        digits[1] |= low[1] >> _U(8)
        out[mid, 1:3] = digits.T
        word0[mid] |= low[0] << _U(56)
    if not certified.all():
        other = np.flatnonzero(~certified & (x != 0))
        if other.size:
            text = np.frombuffer(b"".join(
                b"\0" + uncertain(v).encode().ljust(31, b"\0")
                for v in x[other].tolist()), _U).reshape(-1, 4)
            word0[other] = text[:, 0]
            out[other, 1:] = text[:, 1:]
    return word0


def format_rows(columns, names=None):
    """The text of a table given as its columns (float64 arrays or lists
    of floats), whole rows of at most _BLOCK values at a time.  Without
    names, its CSV lines: each value as '%.17g' writes it, commas between
    the values of a row, a newline after each row.  With the columns'
    names, the list of its rows as JSON objects, as json.dump(...,
    indent=1) writes it, and a newline."""
    shortest = names is not None
    before, separators = _frame(names, len(columns))
    # the text of each row, or each object, is led by the end of the one
    # before it: the first row drops it, and the last one's follows
    lead, opening, end = ("\n },", "[", "\n }\n]\n") if shortest else \
        ("\n", "", "\n")
    size = before.shape[1]
    rows, per_block = len(columns[0]), max(1, _BLOCK // len(columns))
    if not rows:
        yield "[]\n" if shortest else ""
        return
    # made once per write; blocks lay out their text in its first part,
    # in three words a value or, where one needs it, four
    space = np.empty(min(rows, per_block) * len(columns) * (size + 4), _U)
    filled = None
    for start in range(0, rows, per_block):
        x = np.array([values[start:start + per_block]
                      for values in columns], float).T.ravel()   # row by row
        i, d, certified = _decimal(x, shortest)
        width = size + 3 + _wide(x, i, certified, shortest)
        laid = space[:x.size * width].reshape(-1, len(columns), width)
        if filled != width:
            laid[..., :size] = before
            filled = width
        word0 = _words(x, i, d, certified, shortest,
                       laid.reshape(-1, width)[:, size:])
        np.bitwise_or(word0.reshape(laid.shape[:2]), separators,
                      out=laid[..., size])
        # bytes.translate drops the NULs at the speed of numpy's boolean
        # mask, without np.compress's index array of 8 bytes a character
        text = laid.tobytes().translate(None, b"\0").decode("ascii")
        if not start:
            text = opening + text[len(lead):]
        yield text
        del text                    # not kept while the next block is laid
    yield end
