"""Wire codec: roundtrips, the bytes tag, canonical bytes, failure modes."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TransportError
from repro.net.message import decode, encode

wire_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**18), max_value=10**18),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=30),
        st.binary(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@given(payload=wire_values)
def test_roundtrip(payload):
    assert decode(encode(payload)) == payload


def test_bytes_tagging():
    assert decode(encode(b"\x00\xff")) == b"\x00\xff"


def test_tuples_arrive_as_lists():
    assert decode(encode((1, (2, b"x")))) == [1, [2, b"x"]]
    assert encode((1, b"x")) == encode([1, b"x"])


def test_sets_are_rejected():
    with pytest.raises(TransportError):
        encode({"ids": {"a", "b"}})


def test_big_integers_survive():
    n = 2**2048 - 12345  # a Paillier-sized ciphertext
    assert decode(encode({"ct": n})) == {"ct": n}


def test_deterministic_encoding():
    assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})


def test_rejects_unencodable():
    with pytest.raises(TransportError):
        encode(object())


#: ``encode`` of :data:`CANONICAL_PAYLOAD`, byte for byte: sorted keys
#: at every depth, compact separators, ``\\u`` escapes for non-ASCII
#: text, the full decimal of a big integer and hex bytes under
#: ``__b__``.  Merkle leaves and request digests hash these bytes, so
#: the pin must hold on every supported Python version.
CANONICAL_PAYLOAD = {
    "zeta": {"b": 1, "a": "h\u00e9llo \u2713 \u65e5\u672c"},
    "alpha": [True, None, 1.5, -0.25, 2**2048 - 12345, b"\x00\xff\x10"],
    "mid": {"z": [], "y": {"x": False}},
}
CANONICAL_BYTES = (
    b'{"alpha":[true,null,1.5,-0.25,'
    b'3231700607131100730071487668866995196044410266971548403213034542'
    b'7524655138867890893197201411522913463688717960921898019494119559'
    b'1504909210950881523864482831206308773673009960917501977503896521'
    b'0679605763838406756827679221864261975616183809433847617047058164'
    b'5852036305042887575891541065808607552399123930385521914333389668'
    b'3424206849747865645694948561760353263220580778056593310261927084'
    b'6031415025859286417711672594360371846185735759835115230164590440'
    b'3697613233287231227125684710820209725157101726931323469678542580'
    b'6566979350459972683529986382155251663894373355436021354332296046'
    b'45318478604952148193555853611059596218311'
    b',{"__b__":"00ff10"}],"mid":{"y":{"x":false},"z":[]},'
    b'"zeta":{"a":"h\\u00e9llo \\u2713 \\u65e5\\u672c","b":1}}'
)


def test_canonical_bytes_are_pinned():
    assert encode(CANONICAL_PAYLOAD) == CANONICAL_BYTES
    assert decode(CANONICAL_BYTES) == CANONICAL_PAYLOAD


def test_rejects_garbage_bytes():
    with pytest.raises(TransportError):
        decode(b"\xff\xfe not json")


@pytest.mark.parametrize("frame", [
    b'{"__b__":"zz"}',
    b'{"__b__":5}',
    b'{"__b__":null}',
])
def test_malformed_bytes_tag_raises_transport_error(frame):
    with pytest.raises(TransportError):
        decode(frame)
