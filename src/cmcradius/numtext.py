"""Exact %.17g and %d text of numpy arrays, built as NUL-padded bytes with no
Python formatting per value: the mesh export writes its lines from them.
"""

from __future__ import annotations

import itertools

import numpy as np

#: Bytes of a coordinate token: the longest %.17g of a double, as in -2.2250738585072014e-308.
TOKEN = 24

#: The ASCII digits of 0000..9999 as uint32 words.
_DIGITS = ((np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
           .astype(np.uint8).view(np.uint32)[:, 0])


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10**(16 - e) rounded to an integer, ties to even, where 0 <= 16 - e <= 20 and it exceeds 2**53."""
    b = 10.0 ** (16 - e)  # exact: 5**20 < 2**53
    p = a * b
    # Dekker's TwoProduct (Numer. Math. 18, 1971) on Veltkamp's 2**27 + 1 split: a * b = p + err exactly.
    t = 134217729.0 * a
    ah = t - (t - a)
    al = a - ah
    t = 134217729.0 * b
    bh = t - (t - b)
    bl = b - bh
    err = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def float_tokens(x: np.ndarray) -> np.ndarray:
    """The %.17g text of each double of x, NUL-padded: an (x.size, TOKEN) uint8 array.

    For a decimal exponent e in [-4, 16], %.17g writes positionally the 17
    digits D = |x| 10^k rounded to an integer, ties to even, k = 16 - e.
    10^k is exact for 0 <= k <= 20, and TwoProduct splits |x| 10^k into
    hi + lo exactly; hi > 2^53 is an even integer, so D = hi + rint(lo),
    ties included (rint picks the even m, and hi + m has the parity of m).
    e starts as floor(log10|x|), which can miss by one, and is corrected
    from D: down one where D < 10^16, up one where D > 10^17, after which
    D lies in [10^16, 10^17).  The digits come four at a time from a table;
    each exponent's layout, "ddd.ddd" or "0.00ddd", is written by slices
    over the rows sorted by e and cut after the last nonzero digit.  Zeros
    print as 0 or -0.  %.17g itself formats the rest: the exponent form,
    as of cos(pi/2)-sized coordinates (about 1e-17), and a D left outside
    [10^16, 10^17), which only a power of ten can give (a carry).
    """
    out = np.zeros((x.size, TOKEN), dtype=np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    magnitude = np.abs(x)
    out[magnitude == 0.0, 1] = ord("0")
    with np.errstate(divide="ignore"):  # log10(0) = -inf
        e = np.floor(np.log10(magnitude))
    near = np.flatnonzero((e >= -5) & (e <= 17))  # below 1e18: no overflow, and D fits an int64
    a, e = magnitude[near], np.clip(e[near], -4, 16).astype(np.int64)
    d = _scaled(a, e)
    step = (d > 10**17).astype(np.int64) - (d < 10**16)
    e += step
    redo = np.flatnonzero(step & (e >= -4) & (e <= 16))
    d[redo] = _scaled(a[redo], e[redo])
    ok = (d >= 10**16) & (d < 10**17) & (e >= -4) & (e <= 16)
    near, d, e = near[ok], d[ok], e[ok]

    other = magnitude != 0.0
    other[near] = False
    if (slow := np.flatnonzero(other)).size:
        text = b"".join(("%.17g" % t).encode().ljust(TOKEN, b"\0") for t in x[slow].tolist())
        out[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, TOKEN)

    order = np.argsort(e.astype(np.int8), kind="stable")
    e, d = e[order], d[order]
    groups = np.empty((d.size, 5), dtype=np.int64)  # the lead digit, then four groups of four
    for i in range(4, 0, -1):
        d, groups[:, i] = np.divmod(d, 10000)
    groups[:, 0] = d
    digits = _DIGITS[groups].view(np.uint8)[:, 3:]
    places = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)  # up to the last nonzero digit
    length = np.where(e >= 0, np.where(places > e + 1, places + 1, e + 1), 1 - e + places)
    body = np.zeros((d.size, TOKEN - 1), dtype=np.uint8)
    for s, t in itertools.pairwise([*np.flatnonzero(np.diff(e, prepend=e[:1] - 1)).tolist(), e.size]):
        block, ex = body[s:t], int(e[s])
        if ex >= 0:  # "ddd.ddd"
            block[:, :ex + 1], block[:, ex + 2:18] = digits[s:t, :ex + 1], digits[s:t, ex + 1:]
        else:  # "0.00ddd"
            block[:, :1 - ex], block[:, 1 - ex:18 - ex] = ord("0"), digits[s:t]
        block[:, max(ex, 0) + 1] = ord(".")
    body *= np.arange(TOKEN - 1) < length[:, None]
    out[near[order], 1:] = body
    return out


def index_words(i: np.ndarray) -> np.ndarray:
    """The text " %d" of each integer of i >= 0, NUL-padded: an (i.size, w) array of 8-byte words."""
    most = len(str(i.max()))
    width = most // 8 * 8 + 8  # with room for the space
    words = np.empty((i.size, width // 4), dtype=np.uint32)
    rest = i.copy()
    for g in range(width // 4 - 1, -1, -1):
        words[:, g] = _DIGITS[rest % 10000]
        rest //= 10000
    del rest
    text = words.view(np.uint8)
    text[:, :width - most] = 0
    for p in range(width - most, width - 1):  # a leading zero, where i has fewer digits
        text[i < 10 ** (width - 1 - p), p] = 0
    text[:, 0] = ord(" ")
    return words.view(np.uint64)
