"""repr(float) for whole float64 arrays at once.

Python writes a float as the shortest decimal that reads back to the same
double, the closest such decimal when there are several (ties to an even last
digit).  Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) finds those digits with fixed-width integer arithmetic, so numpy can
run it over an array in uint64 lanes; the 64x64-bit high products are built
from 32-bit halves.  The digits are then laid out by Python's 'r' rules
(positional when -4 < decpt <= 16, otherwise d.ddde+XX) into fixed uint8
columns whose NUL padding is squeezed out in one pass.

The tables are built on first use, so importing this module does no work.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericError

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(0x7FFFFFFFFFFFFFFF)
_K_MIN, _K_MAX = -324, 292  # decimal exponents Schubfach needs for doubles
_POW10 = np.array([10 ** i for i in range(18)], _U)
_DECPT_MIN, _DECPT_MAX = -323, 309  # 5e-324 is 0.5e-323, 1.8e308 is 0.18e309


def _flog10pow2(q: np.ndarray) -> np.ndarray:
    """floor(q log10 2), exact for |q| <= 1076."""
    return (q * np.int64(661971961083)) >> np.int64(41)


def _flog10_three_quarters_pow2(q: np.ndarray) -> np.ndarray:
    """floor(log10(3/4 2^q)), exact for |q| <= 1076."""
    return (q * np.int64(661971961083) - np.int64(274743187321)) >> np.int64(41)


def _flog2pow10(e: np.ndarray) -> np.ndarray:
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * np.int64(913124641741)) >> np.int64(38)


@functools.cache
def _get_tables() -> dict:
    """Built on first use: g = floor(10^-k 2^-r) + 1 with 2^125 <= 10^-k 2^-r
    < 2^126, split as g1 2^63 + g0, for k in [_K_MIN, _K_MAX]; the four ASCII
    digits of every integer below 10^4 as one uint32, and their count of
    trailing zeros; for every decpt the text before the digits ("0.00" when
    decpt = -2) and after them ("e+16" when decpt = 17), NUL-padded to five
    bytes each; and the body masks of every dot column and body length."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            p = 10 ** k
            g = (1 << (125 + p.bit_length())) // p + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    i = np.arange(10000, dtype=np.int16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    tz4 = np.where(i == 0, 4, (i % 10 == 0).astype(np.int8) + (i % 100 == 0) + (i % 1000 == 0))
    affixes = []
    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
        exp = decpt <= -4 or decpt > 16
        head = b"0." + b"0" * -decpt if decpt <= 0 and not exp else b""
        tail = b"e%+03d" % (decpt - 1) if exp else b""
        affixes.append(head.ljust(5, b"\0") + tail.ljust(5, b"\0"))
    # body masks for every (dot, keep): digit j, digit j - 1, the dot
    j = np.arange(18)
    dot, keep = np.divmod(np.arange(19 * 19), 19)
    dot, keep = dot[:, None], keep[:, None]
    body = np.concatenate([np.where((j < dot) & (j < keep), 0xFF, 0),
                           np.where((j > dot) & (j < keep), 0xFF, 0),
                           np.where((j == dot) & (j < keep), ord("."), 0)], axis=1)
    return dict(g1=np.array(g1, _U), g0=np.array(g0, _U), body=body.astype(np.uint8),
                d4=digits.astype(np.uint8).view(np.uint32)[:, 0], tz4=tz4,
                affix=np.frombuffer(b"".join(affixes), np.uint8).reshape(-1, 10))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a*b."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    lo, mid1, mid2 = a0 * b0, a1 * b0, a0 * b1
    cross = (lo >> _U(32)) + (mid1 & _M32) + mid2
    return a1 * b1 + (mid1 >> _U(32)) + (cross >> _U(32))


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Round to odd of cp g 2^-127 (Schubfach, figure 8)."""
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bq: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the shortest decimal that reads back to the finite
    double of biased exponent bq and fraction bits t, the closest one when
    there are several."""
    tables = _get_tables()
    c = np.where(bq > 0, t | _U(1 << 52), t)
    q = np.maximum(bq, 1) - np.int64(1075)
    irregular = (t == 0) & (bq > 1)  # c = 2^52 above the first binade: the gap below is halved
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + np.int64(2)).astype(_U)
    g1, g0 = tables["g1"][k - _K_MIN], tables["g0"][k - _K_MIN]
    odd = c & _U(1)
    cb = c << _U(2)
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - _U(2) + irregular.astype(_U)) << h)
    vbr = _rop(g1, g0, (cb + _U(2)) << h)

    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + odd <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + odd <= vbr
    # One digit fewer lies in the interval.  Java's Schubfach asks s >= 100 to
    # keep two digits; Python's shortest goes down to one.
    tens = (s >= _U(10)) & (upin != wpin)

    t1 = s + _U(1)
    uin = vbl + odd <= s << _U(2)
    win = (t1 << _U(2)) + odd <= vbr
    two = (s + t1) << _U(1)
    closer = (vb < two) | ((vb == two) & ((s & _U(1)) == 0))
    f = np.where(tens, np.where(upin, sp10, tp10), np.where(np.where(uin != win, uin, closer), s, t1))

    zero = c == 0
    return np.where(zero, _U(0), f), np.where(zero, 0, k)


def join_reprs(x: np.ndarray) -> list[str]:
    """",".join(repr(float(v)) for v in row) for each row of the 2-D array x,
    byte for byte.  A NaN or an infinity raises NumericError."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    per_row = x.shape[1]
    bits = x.reshape(-1).view(_U)
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    bad = np.flatnonzero(bq == 2047)
    if bad.size:
        raise NumericError(f"non-finite number in output: {float(x.flat[bad[0]])}")
    f, k = _shortest(bq, bits & _U((1 << 52) - 1))
    tables = _get_tables()
    d4, tz4 = tables["d4"], tables["tz4"]

    # 18 digits, the significant ones first, after two zeros: block[:, 2 + j]
    # is digit j, block[:, 1 + j] digit j - 1
    length = np.searchsorted(_POW10[1:], f, side="right") + 1
    f = f * _POW10[18 - length]
    hi = f // _POW10[16]
    lo = f - hi * _POW10[16]
    a = lo // _POW10[8]
    b = lo - a * _POW10[8]
    groups = [g.astype(np.intp) for g in (hi, a // _POW10[4], a % _POW10[4],
                                          b // _POW10[4], b % _POW10[4])]
    words = np.empty((bits.size, 5), np.uint32)
    for col, g in enumerate(groups):
        words[:, col] = d4[g]
    block = words.view(np.uint8)
    tz = tz4[groups[0]]
    for g in groups[1:]:
        tz = np.where(g > 0, tz4[g], tz + 4)
    n = np.maximum(18 - tz, 1)  # significant digits; 0.0 has one
    decpt = length + k
    exp = (decpt <= -4) | (decpt > 16)

    # One row per float: sign, head, 18 body columns, tail and comma; every
    # NUL is squeezed out.  The body is the digits with a dot at column dot
    # (18: none), cut to its first keep columns.
    dot = np.where(exp, 1, np.where(decpt >= 1, decpt, 18))
    keep = np.where(exp, n + (n > 1), np.where(decpt >= 1, np.maximum(n, decpt + 1) + 1, n))
    masks = tables["body"][dot * 19 + keep]
    affix = tables["affix"][decpt - _DECPT_MIN]
    neg = (bits >> _U(63)).astype(np.uint8)
    cols = np.empty((bits.size, 30), np.uint8)
    cols[:, 0] = neg * ord("-")
    cols[:, 1:6] = affix[:, :5]
    body = cols[:, 6:24]
    np.bitwise_and(block[:, 2:20], masks[:, :18], out=body)
    body |= block[:, 1:19] & masks[:, 18:36]
    body |= masks[:, 36:]
    cols[:, 24:29] = affix[:, 5:]
    cols[:, 29] = ord(",")
    cols[per_row - 1::per_row, 29] = ord("\n")  # a row's last float ends its line
    return cols[cols != 0].tobytes().decode("ascii").split("\n")[:-1]
