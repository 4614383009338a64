import json

from hypothesis import given, settings
from hypothesis import strategies as st

from charentropy.formats import json_dumps, json_pieces, round_floats

# Floats whose 13th significant digit is 5, so that the 12-digit rounding
# falls on a tie before the binary value breaks it.
_TIES = st.builds(lambda digits, exponent: float(f"{digits}5e{exponent}"),
                  st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-320, 290))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _TIES,
    st.sampled_from([-0.0, 1e-300, 0.1, 5e-324]),
    st.text(max_size=8), st.text("aéЖ\U0001F600\"\\\n", max_size=8))
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DOCS)
def test_json_pieces_join_to_the_one_shot_text(doc):
    # The text json_dumps wrote when it encoded in one call.
    expected = json.dumps(round_floats(doc), indent=2,
                          ensure_ascii=False) + "\n"
    assert "".join(json_pieces(doc)) == expected
    assert json_dumps(doc) == expected
