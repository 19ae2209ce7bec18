from fractions import Fraction

import pytest

import lampgeo.formats as F
from lampgeo import BSNumber, DomainError, LampConfig, ParseError
from lampgeo.maps import BlockPerm, Compose, Inversion, Shift, Translate, apply

L = LampConfig.of


def test_config_roundtrip():
    for text in ("", "0:1", "0:1,3:1", "-2:1,0:1,5:1"):
        assert F.format_config(F.parse_config(text, 2)) == text
    assert F.parse_config("3:1,0:1", 2) == L(2, {0: 1, 3: 1})  # order-insensitive
    assert F.parse_config("0:2", 3) == L(3, {0: 2})


def test_config_parse_errors():
    with pytest.raises(ParseError):
        F.parse_config("0", 2)
    with pytest.raises(ParseError):
        F.parse_config("x:1", 2)
    with pytest.raises(ParseError):
        F.parse_config("0:2", 2)  # value out of range for n=2
    with pytest.raises(ParseError):
        F.parse_config("0:1,0:1", 2)  # repeated index
    err = pytest.raises(ParseError, F.parse_config, "0:1,3:9", 2).value
    assert err.position == 6  # column of the offending value


def test_vertex_roundtrip():
    for text in ("|0", "0:1|3", "-1:1,5:1|-2"):
        v = F.parse_vertex(text, 2)
        assert F.format_vertex(v) == text
    with pytest.raises(ParseError):
        F.parse_vertex("0:1", 2)
    with pytest.raises(ParseError):
        F.parse_vertex("0:1|x", 2)


def test_bs_literals():
    assert F.parse_bs("12", 2) == BSNumber(3, 2, 2)
    assert F.parse_bs("3/4", 2) == BSNumber(3, -2, 2)
    assert F.parse_bs("0.75", 2) == BSNumber(3, -2, 2)
    assert F.parse_bs("3*2^-2", 2) == BSNumber(3, -2, 2)
    assert F.parse_bs("12*2^0", 2) == BSNumber(3, 2, 2)
    assert F.format_bs(BSNumber(3, -2, 2)) == "3*2^-2"
    assert F.format_bs(BSNumber(5, 0, 2)) == "5"
    assert F.parse_bs(F.format_bs(BSNumber(7, 4, 2)), 2) == BSNumber(7, 4, 2)


def test_bs_literal_errors():
    with pytest.raises(ParseError):
        F.parse_bs("1/3", 2)  # not in Z[1/2]
    with pytest.raises(ParseError):
        F.parse_bs("3*5^2", 2)  # base mismatch
    with pytest.raises(ParseError):
        F.parse_bs("abc", 2)
    with pytest.raises(ParseError):
        F.parse_bs("", 2)


def test_vector_and_matrix():
    assert F.parse_vector("3,-4") == (3, -4)
    assert F.format_vector((3, -4)) == "3,-4"
    assert F.parse_matrix("2,1,1,1") == ((2, 1), (1, 1))
    with pytest.raises(ParseError):
        F.parse_vector("3")
    with pytest.raises(ParseError):
        F.parse_matrix("2,1,1")


def test_window_literals():
    assert F.parse_window("8") == (0, 8)
    assert F.parse_window("-3:6") == (-3, 6)
    with pytest.raises(ParseError):
        F.parse_window("0")
    with pytest.raises(ParseError):
        F.parse_window("5:2")


def test_map_dsl_roundtrip():
    cases = [
        ("shift:2", Shift(2)),
        ("invert", Inversion()),
        ("translate:0:1,3:1", Translate(L(2, {0: 1, 3: 1}))),
        ("blockperm:m=3:100>111,111>100",
         BlockPerm.from_pairs(3, [("100", "111"), ("111", "100")])),
    ]
    for text, expected in cases:
        assert F.parse_map(text, 2) == expected
        assert F.parse_map(F.format_map(expected), 2) == expected


def test_map_dsl_composition_is_left_to_right():
    m = F.parse_map("translate:0:1;shift:1", 2)
    assert isinstance(m, Compose)
    # translate first, then shift
    x = L(2, {2: 1})
    expected = apply(Shift(1), apply(Translate(L(2, {0: 1})), x))
    assert apply(m, x) == expected
    assert F.format_map(m) == "translate:0:1;shift:1"


def test_map_dsl_errors():
    for bad in ("", "warp:3", "shift:", "shift:x", "blockperm:3:100>111",
                "blockperm:m=3:100-111", "shift:1;;invert",
                "blockperm:m=3:120>111"):
        with pytest.raises(ParseError):
            F.parse_map(bad, 2)


def test_parse_errors_carry_positions():
    err = pytest.raises(ParseError, F.parse_map, "shift:1;warp:3", 2).value
    assert err.position == 8
    assert "col 8" in str(err)


def test_block_strings_are_read_by_the_digit_rule():
    # a digit that int() cannot read is refused by the reader, with its column;
    # other decimal digits are read as parse_number reads them, and kept in ASCII
    for text, column in (("blockperm:m=1:²>0", 14), ("blockperm:m=2:10>0²", 17), ("blockperm:m=2:1x>00", 14)):
        err = pytest.raises(ParseError, F.parse_map, text, 2).value
        assert "expected a string of digits" in str(err) and err.position == column
    m = F.parse_map("blockperm:m=2:١٠>01,01>10", 2)
    assert m == BlockPerm.from_pairs(2, [("10", "01"), ("01", "10")])
    assert F.format_map(m) == "blockperm:m=2:01>10,10>01"
    with pytest.raises(DomainError, match="is not a length-1 string"):
        BlockPerm(1, (("١", "0"),))
