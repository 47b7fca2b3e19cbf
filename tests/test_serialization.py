"""Binary value framing."""

import collections
import enum
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexstructures.serialization import dump_value, load_value


def roundtrip(value):
    data = dump_value(value)
    decoded, offset = load_value(data, 0)
    assert offset == len(data)
    return decoded


@pytest.mark.parametrize("value", [
    0, 1, -1, 2**40, -(2**40),
    0.0, 3.14159, -2.5,
    "", "hello", "ünïcödé",
    b"", b"\x00\xff",
    None,
    (), (1, "two", 3.0), (1, (2, (3,))),
    (3, None), ((1.0, 2.0, 3.0), "k1"),
])
def test_value_roundtrip(value):
    assert roundtrip(value) == value


def test_bool_encodes_as_int():
    assert roundtrip(True) == 1
    assert roundtrip(False) == 0


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        dump_value({"dict": 1})


class Color(enum.IntEnum):
    RED = 7


Point = collections.namedtuple("Point", "x y")


class Name(str):
    pass


# Bytes recorded at the commit before the codec dispatched on type(value):
# WAL frames and PSEG sections must not change by a bit.
GOLDEN = [
    (None, "04"),
    (True, "000100000000000000"),
    (False, "000000000000000000"),
    (0, "000000000000000000"),
    (-1, "00ffffffffffffffff"),
    (2**63 - 1, "00ffffffffffffff7f"),
    (-2**63, "000000000000000080"),
    (1.5, "01000000000000f83f"),
    (-0.0, "010000000000000080"),
    ("", "0200000000"),
    ("héllo ✓", "020a00000068c3a96c6c6f20e29c93"),
    (b"", "0300000000"),
    (b"\x00\xff", "030200000000ff"),
    ((), "0500000000"),
    (((),), "05010000000500000000"),
    ((1, ("a", None, (2.5, b"z")), True),
     "050300000000010000000000000005030000000201000000610405020000000100000000"
     "0000044003010000007a000100000000000000"),
    # A subclass encodes as its base type.
    (Color.RED, "000700000000000000"),
    (Point(1, "y"), "0502000000000100000000000000020100000079"),
    (Name("sub"), "0203000000737562"),
]


@pytest.mark.parametrize("value,golden", GOLDEN)
def test_value_bytes_are_the_recorded_ones(value, golden):
    data = dump_value(value)
    assert data.hex() == golden
    decoded = roundtrip(value)
    assert decoded == value
    assert dump_value(decoded) == data


@pytest.mark.parametrize("value", [2**63, -2**63 - 1, (1, (2**64,))])
def test_out_of_range_int_still_raises_struct_error(value):
    with pytest.raises(struct.error):
        dump_value(value)


@pytest.mark.parametrize("value", [{"dict": 1}, [1], bytearray(b"x"), (1, {2})])
def test_unsupported_types_rejected_at_any_depth(value):
    with pytest.raises(TypeError):
        dump_value(value)


@pytest.mark.parametrize("data,error", [
    (b"", struct.error),                          # no tag
    (b"\x00\x01", struct.error),                  # torn int
    (b"\x05\x02\x00\x00\x00\x04", struct.error),  # tuple shorter than it says
    (b"\x09", ValueError),                        # unknown tag
    (b"\x02\x01\x00\x00\x00\xff", ValueError),    # invalid utf-8
])
def test_damaged_records_raise_what_the_readers_catch(data, error):
    with pytest.raises(error):
        load_value(data, 0)


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    st.one_of(st.integers(-2**40, 2**40), st.floats(allow_nan=False),
              st.text(max_size=20), st.binary(max_size=20), st.none()),
    lambda children: st.tuples(children, children),
    max_leaves=6,
))
def test_property_value_roundtrip(value):
    assert roundtrip(value) == value
