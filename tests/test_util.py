import math

from hypothesis import given, settings, strategies as st

from nlsql.synth import generate_bench_table
from nlsql.util import parse_number


def _parse_number_by_float(s):
    """parse_number without the character pre-check: float() decides."""
    text = s.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        try:
            value = float(text.replace(",", ""))
        except ValueError:
            return None
    return value if math.isfinite(value) else None


NUMERIC_PIECES = st.sampled_from([
    "0", "7", "12", "+", "-", ".", "_", "e", "E", ",", " ", "\t", "x", "0x",
    "inf", "INF", "Infinity", "iNfInItY", "nan", "NaN", "ty", "a", "fin",
    "1e500", "1_000", "1,234", "1,2,3", "٣", "１２", "۵", "߁", "𝟕", "²",
    "½", "Ⅷ", "−", " ", " ", "1​2",
])


@given(st.one_of(
    st.lists(NUMERIC_PIECES, max_size=6).map("".join),
    st.text(max_size=12),
    st.text(alphabet="0123456789+-._eE, afintyAFINTY", max_size=10),
))
@settings(max_examples=600, deadline=None)
def test_parse_number_matches_float_on_random_text(text):
    assert parse_number(text) == _parse_number_by_float(text)


def test_parse_number_matches_float_on_bench_table():
    table = generate_bench_table(2_000, 3)
    for row in table.rows:
        for cell in row:
            assert parse_number(cell) == _parse_number_by_float(cell), cell
