"""The bounded readers of `rings` agree with `int`, `Fraction` and `json` below the digit limit.

On every string below the bound, `read_int(s)` equals `int(s)` and
`read_fraction(s)` equals `Fraction(s)`, or both refuse it.  The strings are
the malformed numbers of the CLI fuzz grammar, random decimals, "p/q"
strings and e-notation with short exponents, and random text over the
characters of such literals.  Past the int-to-str digit limit each reader
raises a ResourceCapError at once, and its message gives no literal.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fuzz_cli import NUMBERS

from genuslab.errors import ResourceCapError
from genuslab.rings import read_fraction, read_int, read_json

PROPERTY = settings(derandomize=True, max_examples=500, deadline=None, database=None)

DIGITS = st.text("0123456789", min_size=1, max_size=8)
SIGN = st.sampled_from(["", "-", "+", " ", " -"])
DECIMALS = st.builds("{}{}.{}".format, SIGN, DIGITS, st.text("0123456789", max_size=6))
RATIOS = st.builds("{}{}/{}".format, SIGN, DIGITS, DIGITS)
E_NOTATION = st.builds("{}{}{}{}{}".format, SIGN, st.one_of(DIGITS, DECIMALS), st.sampled_from("eE"),
                       st.sampled_from(["", "-", "+"]), st.text("0123456789_", min_size=1, max_size=3))
TEXT = st.text("0123456789+-./_ ٣３xi", max_size=12)  # no e: Fraction itself would build 10^exponent
LITERALS = st.one_of(st.sampled_from(NUMBERS), DIGITS, DECIMALS, RATIOS, E_NOTATION, TEXT)


def outcome(convert, text):
    """The value of convert(text), or "refused" for the ValueError of a literal that is no number."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        return "refused"


@PROPERTY
@given(LITERALS)
def test_read_fraction_is_fraction_below_the_bound(text):
    assert outcome(read_fraction, text) == outcome(Fraction, text)


@PROPERTY
@given(LITERALS)
def test_read_int_is_int_below_the_bound(text):
    assert outcome(read_int, text) == outcome(int, text)


def test_the_readers_agree_on_every_number_of_the_cli_grammar():
    for text in NUMBERS:
        assert outcome(read_fraction, text) == outcome(Fraction, text), text
        assert outcome(read_int, text) == outcome(int, text), text


@pytest.mark.parametrize(
    "read, text",
    [
        (read_int, "7" * 4301),
        (read_int, "-" + "٣" * 4301),
        (read_fraction, "7" * 4301),
        (read_fraction, "1/" + "7" * 4300),
        (read_fraction, "1e4300"),
        (read_fraction, "1.5e-4299"),
        (read_fraction, "1e10000000"),
        (read_fraction, "1e-1_0000000"),
        (read_fraction, "1e" + "7" * 5000),
        (read_json, f"[1, {'7' * 4301}]"),
        (read_json, '{"x": [-' + "7" * 4301 + "]}"),
    ],
)
def test_a_literal_past_the_limit_is_refused_at_once(read, text):
    start = time.perf_counter()
    with pytest.raises(ResourceCapError) as err:
        read(text)
    assert time.perf_counter() - start < 0.1
    assert "7" * 20 not in str(err.value)


def test_the_bound_itself_is_read():
    assert read_int("7" * 4300) == int("7" * 4300)
    assert read_fraction("1e4299") == 10 ** 4299
    assert read_fraction("1/" + "7" * 4299) == Fraction(1, int("7" * 4299))
    assert read_json(f"[{'7' * 4300}]") == [int("7" * 4300)]
