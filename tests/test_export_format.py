"""The mesh export's number text: every coordinate token is the %.17g text of its
double, and every face word the " %d" text of its index, byte for byte."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcradius import mesh as mm, numtext


def _texts(x) -> list[str]:
    """numtext.float_tokens of x without their NULs.  An overflow or invalid operation in the
    arithmetic is an error here, as it is suite-wide."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tokens = numtext.float_tokens(np.asarray(x, dtype=float))
    assert tokens.shape == (len(x), numtext.TOKEN) and tokens.dtype == np.uint8
    return [row.tobytes().replace(b"\0", b"").decode() for row in tokens]


def _check(values):
    values = [float(v) for v in values]
    assert _texts(values) == ["%.17g" % v for v in values]


# Any double by its bits, so subnormals, +-0 and huge values come up as often as
# their share of the bit patterns; and every decimal exponent of the positional
# window and just outside it, equally often.
any_bits = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), any_bits.filter(math.isfinite),
                   st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-7, 19)))


@settings(max_examples=1000, derandomize=True, database=None)
@given(st.lists(finite, min_size=1, max_size=40))
def test_tokens_are_the_percent_17g_text(values):
    _check(values)


@pytest.mark.parametrize("k", range(1, 21))
def test_ties_round_to_even(k):
    # x = t / 2**(k+1) with t odd puts x * 10**k halfway between two integers of 17 digits.
    lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
    t = np.random.default_rng(k).integers(lo // 2, hi // 2, 2000) * 2 + 1
    x = t / 2.0 ** (k + 1)
    assert np.all(x * 10.0**k >= 1e16)
    _check(np.concatenate([x, -x]))


def test_powers_of_ten_and_their_neighbours():
    powers = [10.0**e for e in range(-6, 19)] + [float("1e%d" % e) for e in range(-6, 19)]
    values = []
    for p in powers:
        below = above = p
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
        values.append(p)
    _check(values + [-v for v in values] + [0.0, -0.0, 0.09999999999999999, 5e-324, 1.7976931348623157e308])


def test_face_words_are_the_percent_d_text_up_to_the_level_nine_vertex_count():
    # A level-9 cap has the most vertices as its scaled radius s tends to 0: about 2 pi per ring index.
    n = 1 + int(mm._rings(0.0, 1.0, 1e-6, mm.MAX_LEVEL)[2].sum())
    assert n > 800_000
    words = numtext.index_words(np.arange(n + 1))
    assert words.shape == (n + 1, 1) and words.dtype == np.uint64
    text = words.view(np.uint8)
    assert text[text != 0].tobytes() == b"".join(b" %d" % i for i in range(n + 1))


def test_face_words_widen_past_seven_digits():
    i = np.array([0, 9, 10, 9_999_999, 10_000_000, 123_456_789, 10**15 - 1, 2**63 - 1])
    words = numtext.index_words(i)
    assert words.shape == (i.size, 3)
    assert [w.tobytes().replace(b"\0", b"") for w in words] == [b" %d" % v for v in i.tolist()]
