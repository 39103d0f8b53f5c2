"""Float text: every float the library writes, rendered in blocks with NumPy
array operations.

One renderer has two dialects. The CSV dialect writes a value as C's %g
does at precision 17: its 17 significant digits without trailing zeros,
fixed notation for decades -4 to 16. The JSON dialect writes it as repr
(and so json) does: the fewest digits that read back as the same double,
fixed notation for decades -4 to 15, '.0' after a whole number. Both take
a value's 17 digits from a double-double product with a table of powers of
ten (_significands), lay out each value's text in a slot by table, and
join the slots by deleting their zero bytes. A value whose text the
renderer cannot certify is written by its dialect's per-value form, and
only such values are.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

# a table row per decade k in [_K_MIN, -_K_MIN): every decade of a finite
# double, -324 to 308, and one more either way for an estimate that is one off
_K_MIN = -330
# a computed fraction this close to 1/2 may be a tie or on either side of
# one, and a distance this close to half an ulp may be either side of the
# round-trip boundary; the product's error is below 1e-14 (see _significands)
_TIE_MARGIN = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
# layout codes: a number's is (kind * 17 + trailing zeros) * 2 + sign, kind
# k + 4 for fixed notation (decade k in [-4, 16]) and 21 for exponent notation
_CODES = 22 * 17 * 2
_SLOT = 32  # bytes a value is laid out in before the join
_UNITS = np.array([[100.0], [10.0]])  # of the 15th and the 16th digit, in units of the 17th
_HALF_UNITS, _INT_UNITS = _UNITS / 2, _UNITS.astype(np.int64)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo with each half's product exact."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _words(v: int) -> list[int]:
    """A 24-byte little-endian integer as its three uint64 words."""
    return [(v >> (64 * j)) & (2**64 - 1) for j in range(3)]


def _ascii(text: str) -> int:
    return int.from_bytes(text.encode("ascii"), "little")


def _layout(shortest: bool) -> SimpleNamespace:
    """One dialect's slot layout (see _tables)."""
    words = np.zeros((8, _CODES), dtype=np.uint64)
    for kind in range(22):
        k = kind - 4 if kind < 21 else 0  # the mantissa of exponent notation is k = 0's
        prefix = "0." + "0" * (-k - 1) if k < 0 else ""
        for tz in range(17):
            after = 16 - tz  # bytes of text after the first digit
            point = k >= 0 and (after > k or (shortest and kind < 21))  # a fraction, or '.0'
            if point:
                after = after + 1 if after > k else k + 2
            elif k >= 0:
                after = k
            text = (1 << (8 * after)) - 1  # words 1-3's bytes of text
            keep, high = text, 0
            if point:
                keep &= (1 << (8 * k)) - 1
                high = text & ~((1 << (8 * k + 8)) - 1)
            for sign in range(2):
                c = (kind * 17 + tz) * 2 + sign
                dot = ord(".") << (8 * k) if point else 0
                words[:, c] = ([_ascii(("-" * sign + prefix).rjust(7, "\0") + "\0")]
                               + _words(keep)[:2] + _words(dot)[:2] + _words(high))
    decades = range(_K_MIN, -_K_MIN)
    fixed = [-4 <= k <= (15 if shortest else 16) for k in decades]
    # the exponent ends in byte 30 of the slot, byte 6 of word 3, past any
    # mantissa; the zero bytes between go in the join
    exponent = [0 if f else _ascii(f"e{k:+03d}".rjust(5, "\0")) << 16
                for k, f in zip(decades, fixed)]
    decade = [(k + 4 if f else 21) * 34 for k, f in zip(decades, fixed)]
    return SimpleNamespace(words=words, exponent=np.array(exponent, dtype=np.uint64),
                           decade=np.array(decade))


@functools.cache
def _tables() -> SimpleNamespace:
    """The renderer's tables, built from exact integers on first use.

    pow10     (4, rows) for decade k = _K_MIN + row: 10^(16 - k) =
              (hi + lo) 2^scale as hi, hi's two halves and lo,
    scale     and scale
    quad      the ASCII of each 4-digit group, as a uint64,
    quad_hi   and shifted to the high half
    zeros     the trailing zeros of each 4-digit group, 4 for 0000
    first     the first digit's ASCII in the top byte of word 0
    low10     n % 10 for n < 100
    csv, json each dialect's layout:
      words     (8, codes): word 0 but its first digit; words 1-2's bytes
                before the point, and the point; and words 1-3's bytes that
                move one past it (each only within the text)
      exponent  by row, word 3's exponent in exponent notation, else 0
      decade    by row, the code of a number but its zeros and sign
    """
    hi, lo, scale = [], [], []
    for k in range(_K_MIN, -_K_MIN):
        q = 16 - k
        # m / 2^low is 10^q to at least 128 bits
        if q >= 0:
            m, low = 10**q << 128, 128
        else:
            low = (10**-q).bit_length() + 128
            m = (1 << low) // 10**-q
        bits = m.bit_length()
        h = (m + (1 << (bits - 54))) >> (bits - 53)
        hi.append(h / 2**52)
        lo.append((m - (h << (bits - 53))) / (1 << (bits - 1)))
        scale.append(bits - 1 - low)
    hi_arr = np.array(hi)
    pow10 = np.stack([hi_arr, *_halves(hi_arr), np.array(lo)])

    g = np.arange(10000, dtype=np.uint64)
    quad = sum((np.uint64(ord("0")) + g // np.uint64(10**j) % np.uint64(10)) << np.uint64(8 * (3 - j))
               for j in range(4))
    zeros = sum((g % np.uint64(10**j) == 0).astype(np.uint8) for j in range(1, 5))
    first = (np.uint64(ord("0")) + np.arange(10, dtype=np.uint64)) << np.uint64(56)
    return SimpleNamespace(pow10=pow10, scale=np.array(scale, dtype=np.int32), quad=quad,
                           quad_hi=quad << np.uint64(32), zeros=zeros, first=first,
                           low10=np.arange(100) % 10, csv=_layout(False), json=_layout(True))


def _significands(a: np.ndarray, tables: SimpleNamespace,
                  shortest: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For positive finite a: D, the 17-digit integer a / 10^(k - 16)
    rounded to nearest; the table row of k, the decade of a; and whether D
    is certain.

    a 10^q, q = 16 - k, is formed as f (hi + lo) 2^(e + s) from a = f 2^e
    and the table's 10^q = (hi + lo) 2^s: f hi by Dekker's exact
    two-product, plus f lo. Its error is below 2^-105 of 2^(e + s) <= 2e17,
    under 1e-14. D is uncertain when the floor of the product is outside
    [1e16, 1e17 - 100) (the decade estimate from log10 was off, or the
    digits may round up to 1e17) or its fraction is within _TIE_MARGIN of 1/2.

    With shortest, D is instead repr's digits padded to 17 (_shortest).
    """
    row = np.log10(a)
    row -= _K_MIN
    row = row.astype(np.intp)  # the floor, as the row is positive
    f, e = np.frexp(a)
    e += tables.scale.take(row)
    hi, hi_hi, hi_lo, lo = tables.pow10.take(row, axis=1)
    # Dekker's f hi = p + r: ((f_hi h_hi - p) + f_hi h_lo + f_lo h_hi) + f_lo h_lo
    f_hi = f * _SPLIT
    t = f_hi - f
    f_hi -= t
    f_lo = f - f_hi
    p = f * hi
    r = f_hi * hi_hi
    r -= p
    for u, v in ((f_hi, hi_lo), (f_lo, hi_hi), (f_lo, hi_lo), (f, lo)):
        np.multiply(u, v, out=t)
        r += t
    del hi, hi_hi, hi_lo, lo, f_hi, f_lo, u, v
    np.ldexp(p, e, out=p)  # an integer once at least 2^53
    np.ldexp(r, e, out=r)
    del e
    below = p.astype(np.int64)
    del p
    np.floor(r, out=t)
    below += t.astype(np.int64)
    r -= t  # the fraction
    del t
    certain = (below - 10**16).view(np.uint64) < 9 * 10**16 - 100
    if shortest:
        return _shortest(a, f, below, r, certain, tables), row, certain
    certain &= np.abs(r - 0.5) > _TIE_MARGIN
    below += r > 0.5
    return below, row, certain


def _shortest(a: np.ndarray, f: np.ndarray, below: np.ndarray, frac: np.ndarray,
              certain: np.ndarray, tables: SimpleNamespace) -> np.ndarray:
    """repr's digits of a, padded with zeros to 17; clears certain where
    they are uncertain.

    below + frac is a in units of its 17th digit, and half an ulp of
    a = f 2^e is (below + frac) / (f 2^54) of them. A rounding of a reads
    back as a when it lies nearer than that. Above DBL_DIG digits at most
    one 15-digit decimal lies that near, and the nearest 16-digit one does
    whenever any does, so repr's digits are a's 15-digit rounding if it
    reads back, else its 16-digit rounding if that does, else its 17-digit
    one. Each rounding is of a itself, not of another rounding. They are
    uncertain at a tie of the rounding taken, at a distance within
    _TIE_MARGIN of half an ulp, at a power of two (whose ulp below is half
    the one above), and below the smallest normal (whose ulp is fixed).

    Row 0 of each (2, n) array is of the 15-digit rounding, row 1 of the
    16-digit one.
    """
    half = below / (f * 2.0**54)
    certain &= f != 0.5
    certain &= a >= _TINY
    rounded = np.empty((2, a.size), dtype=np.int64)
    low = below // 100
    low *= 100
    np.subtract(below, low, out=rounded[0])  # below % 100
    del low
    tables.low10.take(rounded[0], out=rounded[1])  # below % 10
    off = rounded + frac  # a above its 15- and its 16-digit floor
    np.subtract(below, rounded, out=rounded)
    rounded += (off > _HALF_UNITS) * _INT_UNITS
    other = _UNITS - off
    np.minimum(off, other, out=off)  # a's distance from each rounding
    # a tie of the 16-digit rounding is off[1] = 5, of the 17-digit one frac = 1/2
    np.subtract(off, half, out=other)
    margin = np.abs(other[0], out=other[0])
    np.minimum(margin, np.abs(other[1]), out=margin)
    np.minimum(margin, 5 - off[1], out=margin)
    np.minimum(margin, np.abs(frac - 0.5), out=margin)
    certain &= margin > _TIE_MARGIN
    del other, margin
    fits = off < half
    del off
    digits = below + (frac > 0.5)
    np.copyto(digits, rounded[1], where=fits[1])
    np.copyto(digits, rounded[0], where=fits[0])
    return digits


def _digit_words(digits: np.ndarray, tables: SimpleNamespace) -> tuple[np.ndarray, ...]:
    """The ASCII of D: its first digit; digits 1-8 and 9-16 as the rows of
    a (2, n) array of words; and its trailing zeros."""
    top = digits // 10**8
    first = top // 10**8
    groups = np.empty((2, digits.size), dtype=np.int64)
    np.subtract(top, first * 10**8, out=groups[0])
    np.subtract(digits, top * 10**8, out=groups[1])
    del top
    left = groups // 10**4  # groups 1 and 3
    groups -= left * 10**4  # groups 2 and 4
    words = tables.quad.take(left)
    words |= tables.quad_hi.take(groups)
    # the zeros of each 8 digits, then of all 16
    z = tables.zeros.take(groups)
    z += (z == 4) * tables.zeros.take(left)
    tz = z[1] + (z[1] == 8) * z[0]
    return first, words, tz


def _render(x: np.ndarray, blank: np.ndarray | None, shortest: bool) -> np.ndarray:
    """The text of each value of x (1-D float64) but the blank ones, laid
    out in 32-byte slots (_SLOT), as (n, 32) uint8: each value's text, zero
    bytes around it, and byte 31 left for its separator.

    Every finite value is laid out by table: word 0 holds its sign and any
    '0.000' prefix, right-aligned, and its first digit in byte 7; words
    1-3 its 16 other digits, with '.' moved in after digit k when it has a
    fraction, and the bytes past its text cleared; and bytes 26-30 its
    exponent when it is written in exponent notation. Zero is laid out as
    the digits 0...0 of decade 0. A value whose digits are uncertain (_significands)
    or that is not finite is written per value into the start of its slot;
    the JSON dialect refuses a value that is not finite, as json does
    under allow_nan=False.
    """
    tables = _tables()
    layout = tables.json if shortest else tables.csv
    a = np.abs(x)
    # nan compares false both ways
    plain = ((blank is None or not blank.any())
             and 0 < a.min(initial=np.inf) and a.max(initial=0) < np.inf)
    if not plain:
        other = ~((a > 0) & (a < np.inf))
        if blank is not None:
            other |= blank
        a[other] = 1.0
    digits, row, certain = _significands(a, tables, shortest)
    del a
    if not plain:
        digits[other] = 0
        certain |= other
        certain &= np.isfinite(x) if blank is None else np.isfinite(x) | blank
    first, w, tz = _digit_words(digits, tables)
    del digits

    code = layout.decade.take(row)
    code += tz * 2
    code += np.signbit(x)
    del tz
    slots = np.empty((x.size, 4), dtype=np.uint64)
    s = slots.T
    words = layout.words
    np.bitwise_or(words[0].take(code), tables.first.take(first, mode="clip"), out=s[0])
    del first
    lay = words[1:5].take(code, axis=1)  # the bytes before the point, and the point
    np.bitwise_and(w, lay[:2], out=s[1:3])
    s[1:3] |= lay[2:]
    del lay
    # the point moves in by shifting the bytes after it one up
    lay = words[5:].take(code, axis=1)
    moved = w << np.uint64(8)
    moved &= lay[:2]
    s[1:3] |= moved
    del moved
    w >>= np.uint64(56)
    w &= lay[1:]
    s[2] |= w[0]
    np.bitwise_or(w[1], layout.exponent.take(row), out=s[3])
    del lay, w
    if blank is not None and not plain:
        slots[blank] = 0
    text = slots.view(np.uint8)
    if not certain.all():
        for i in np.flatnonzero(~certain):
            if not shortest:
                value = "%.17g" % x[i]
            elif np.isfinite(x[i]):
                value = float.__repr__(x[i])
            else:
                raise ValueError("Out of range float values are not JSON compliant: "
                                 f"{float(x[i])!r}")
            value = value.encode()
            text[i] = 0
            text[i, : len(value)] = np.frombuffer(value, dtype=np.uint8)
    return text


def _joined(text: np.ndarray) -> bytes:
    """The slots' bytes but the zero ones, in order: each text and its separator."""
    return text.tobytes().translate(None, b"\0")


def _csv_block(grid: np.ndarray, blank: np.ndarray) -> bytes:
    """The CSV lines of a block of rows: each value as the per-value
    fallback writes it, an empty field where blank, joined by ',' and ended
    by '\\n'."""
    text = _render(grid.ravel(), blank.ravel(), False)
    seps = text[:, _SLOT - 1]
    seps[:] = ord(",")
    seps[grid.shape[1] - 1 :: grid.shape[1]] = ord("\n")
    return _joined(text)


def json_block(values: np.ndarray, seps: np.ndarray) -> bytes:
    """The JSON text of each of values (1-D float64) as repr writes it, each
    followed by its byte of seps (uint8, none of '0-9.+-e' and not 0). A
    value that is not finite raises the ValueError json raises under
    allow_nan=False."""
    text = _render(values, None, True)
    text[:, _SLOT - 1] = seps
    return _joined(text)
