"""Textual literals shared by the CLI and the JSON reports.

Configurations are ``index:value`` pairs joined by commas (empty string =
identity); vertices are ``<config>|<k>``; Z[1/n] elements are ``r*n^k`` or
plain integer/rational/decimal literals; vectors are ``x,y``.  Map
descriptions compose with ``;`` in left-to-right application order.
Parse errors carry the offending column.  DOT export names nodes by vertex.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .base_groups import BSNumber, LampConfig
from .dl_graph import DLVertex
from .errors import DomainError, ParseError
from .maps import BaseMap, BlockPerm, Compose, Inversion, Shift, Translate

MAX_LITERAL_DIGITS = 4300  # Python's own int-parsing limit, on a literal's numerator and denominator
_PAST_LITERAL_DIGITS = f"exact number past {MAX_LITERAL_DIGITS} digits in its numerator or denominator"
# Fraction's grammar, an integer, 'a/b' or a decimal with an optional exponent, less zero denominators
_NUMBER = re.compile(r"\s*([-+]?)(?=\.?\d)((?:\d+(?:_\d+)*)?)"
                     r"(?:/(?=[\d_]*[1-9])(\d+(?:_\d+)*)|(?:\.((?:\d+(?:_\d+)*)?))?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*")
_DIGITS = re.compile(r"\d*")


def parse_number(text: str, position: int = 0, what: str = "an exact number", integer: bool = False):
    """The one reader of numeric literals: the int or Fraction of an integer
    (only that, with ``integer``), 'a/b' or decimal.  Its numerator and denominator
    as written have at most MAX_LITERAL_DIGITS digits, decided before an int is built;
    an exponent of more digits is no literal, as int() and so Fraction refuse it."""
    match = _NUMBER.fullmatch(text)
    if not match or integer and match.lastindex > 2:  # an integer fills the sign and digit groups only
        raise ParseError(f"expected {what}, got {text!r}", position)
    sign, whole, over, places, exponent = (part.replace("_", "") for part in match.groups(""))
    if len(exponent.lstrip("+-")) > MAX_LITERAL_DIGITS:
        raise ParseError(f"expected {what}, got {text!r}", position)
    shift = int(exponent or "0") - len(places)  # moves |shift| digits to the numerator or denominator
    numerator, denominator = (whole + places).lstrip("0") or "0", over.lstrip("0") or "1"
    if max(len(numerator) + max(shift, 0), len(denominator) - min(shift, 0)) > MAX_LITERAL_DIGITS:
        raise ParseError(_PAST_LITERAL_DIGITS, position)
    if integer:
        return int(sign + numerator)
    value = Fraction(int(sign + numerator) * 10 ** max(shift, 0), int(denominator) * 10 ** -min(shift, 0))
    return int(value) if value.denominator == 1 else value


def _int_at(text: str, position: int, what: str) -> int:
    return parse_number(text, position, what, integer=True)


def _digits_at(text: str, position: int) -> str:
    # a string of digits, each one a digit that parse_number reads (\d, as for int()), written in ASCII
    if not _DIGITS.fullmatch(text):
        raise ParseError(f"expected a string of digits, got {text!r}", position)
    return "".join(str(int(ch)) for ch in text)


# ---------------------------------------------------------------------------
# lamp configurations and vertices
# ---------------------------------------------------------------------------

def format_config(cfg: LampConfig) -> str:
    return ",".join(f"{i}:{v}" for i, v in cfg.entries)


def parse_config(text: str, n: int, offset: int = 0) -> LampConfig:
    zero = LampConfig.zero(n)  # refuses n < 2 before a digit is read against it
    text = text.strip()
    if not text:
        return zero
    items = []
    pos = offset
    for part in text.split(","):
        if ":" not in part:
            raise ParseError(f"expected index:value, got {part!r}", pos)
        idx_s, _, val_s = part.partition(":")
        idx = _int_at(idx_s, pos, "an integer index")
        val = _int_at(val_s, pos + len(idx_s) + 1, "an integer value")
        if not 0 < val < n:
            raise ParseError(f"value {val} out of range 1..{n - 1}", pos + len(idx_s) + 1)
        items.append((idx, val))
        pos += len(part) + 1
    if len({i for i, _ in items}) != len(items):
        raise ParseError("repeated index in configuration", offset)
    return LampConfig(n, tuple(sorted(items)))


def format_vertex(v) -> str:
    return f"{format_config(v.config)}|{v.cursor}"


def parse_vertex(text: str, n: int):
    if "|" not in text:
        raise ParseError("vertex literal needs '<config>|<k>'", 0)
    cfg_s, _, k_s = text.rpartition("|")
    return DLVertex(parse_config(cfg_s, n), _int_at(k_s, len(cfg_s) + 1, "an integer cursor"))


# ---------------------------------------------------------------------------
# Z[1/n] literals
# ---------------------------------------------------------------------------

def format_bs(x: BSNumber) -> str:
    if x.k == 0:
        return str(x.r)
    return f"{x.r}*{x.n}^{x.k}"


def parse_bs(text: str, n: int) -> BSNumber:
    if "*" in text:
        r_s, _, rest = text.partition("*")
        r = _int_at(r_s, 0, "an integer numerator")
        if "^" not in rest:
            raise ParseError("expected base^exponent after '*'", len(r_s) + 1)
        base_s, _, exp_s = rest.partition("^")
        base = _int_at(base_s, len(r_s) + 1, "an integer base")
        if base != n:
            raise ParseError(f"base {base} does not match n={n}", len(r_s) + 1)
        k = _int_at(exp_s, len(r_s) + len(rest) - len(exp_s) + 1, "an integer exponent")
        value = BSNumber.normalize(r, k, n)  # refuses n < 2, and builds no power of n
        # as written, max(|r|, 1) * n^k (k >= 0) or n^-k (k < 0) stays below 10^MAX_LITERAL_DIGITS: that
        # bound is divided by n^|k|, a machine word at a time, so nothing past it is built
        room, step = (10 ** MAX_LITERAL_DIGITS - 1) // max(abs(r) if k >= 0 else 1, 1), max(1, 63 // n.bit_length())
        for left in range(abs(k), 0, -step):
            room //= n ** min(left, step)
            if not room:
                raise ParseError(_PAST_LITERAL_DIGITS, 0)
        return value
    value = parse_number(text, 0, "a number literal")
    try:
        return BSNumber.from_fraction(value, n)
    except DomainError:
        raise ParseError(f"{text} is not an element of Z[1/{n}]", 0) from None


# ---------------------------------------------------------------------------
# integer vectors and windows
# ---------------------------------------------------------------------------

def format_vector(v: tuple[int, int]) -> str:
    return f"{v[0]},{v[1]}"


def parse_vector(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("vector literal needs 'x,y'", 0)
    return (_int_at(parts[0], 0, "an integer"), _int_at(parts[1], len(parts[0]) + 1, "an integer"))


def parse_window(text: str) -> tuple[int, int]:
    """Either a width W meaning [0, W), or an explicit 'lo:hi' range."""
    if ":" in text:
        lo_s, _, hi_s = text.partition(":")
        lo = _int_at(lo_s, 0, "an integer")
        hi = _int_at(hi_s, len(lo_s) + 1, "an integer")
    else:
        lo, hi = 0, _int_at(text, 0, "an integer width")
    if hi <= lo:
        raise ParseError(f"window [{lo}, {hi}) is empty", 0)
    return (lo, hi)


def parse_matrix(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError("matrix literal needs 'a,b,c,d'", 0)
    a, b, c, d = (_int_at(p, 0, "an integer") for p in parts)
    return ((a, b), (c, d))


# ---------------------------------------------------------------------------
# map description language
# ---------------------------------------------------------------------------

def format_map(m: BaseMap) -> str:
    if isinstance(m, Shift):
        return f"shift:{m.j}"
    if isinstance(m, Translate):
        return f"translate:{format_config(m.c)}"
    if isinstance(m, Inversion):
        return "invert"
    if isinstance(m, BlockPerm):
        pairs = ",".join(f"{s}>{t}" for s, t in m.table)
        return f"blockperm:m={m.m}:{pairs}"
    if isinstance(m, Compose):
        return ";".join(format_map(p) for p in reversed(m.maps))
    raise ParseError(f"unknown map variant {type(m).__name__}", 0)


def _parse_single_map(text: str, n: int, offset: int) -> BaseMap:
    if text == "invert":
        return Inversion()
    head, sep, rest = text.partition(":")
    if head == "shift":
        if not sep:
            raise ParseError("shift needs an offset, e.g. shift:2", offset)
        return Shift(_int_at(rest, offset + len(head) + 1, "an integer offset"))
    if head == "translate":
        if not sep:
            raise ParseError("translate needs a configuration literal", offset)
        return Translate(parse_config(rest, n, offset + len(head) + 1))
    if head == "blockperm":
        m_s, sep2, table_s = rest.partition(":")
        m_s = m_s.strip()
        if not m_s.startswith("m="):
            raise ParseError("blockperm needs m=<length> first", offset + len(head) + 1)
        m = _int_at(m_s[2:], offset + len(head) + 3, "an integer block length")
        pairs = []
        pos = offset + len(head) + 1 + len(m_s) + 1
        if sep2 and table_s.strip():
            for chunk in table_s.split(","):
                if ">" not in chunk:
                    raise ParseError(f"expected src>dst, got {chunk!r}", pos)
                src, _, dst = chunk.partition(">")
                pairs.append((_digits_at(src.strip(), pos), _digits_at(dst.strip(), pos + len(src) + 1)))
                pos += len(chunk) + 1
        try:
            return BlockPerm.from_pairs(m, pairs, n)
        except DomainError as exc:
            raise ParseError(str(exc), offset) from None
    raise ParseError(f"unknown map variant {head!r}", offset)


def parse_map(text: str, n: int = 2) -> BaseMap:
    """Parse the map DSL; ';' chains maps in left-to-right application order."""
    text = text.strip()
    if not text:
        raise ParseError("empty map description", 0)
    parts = []
    pos = 0
    for chunk in text.split(";"):
        stripped = chunk.strip()
        if not stripped:
            raise ParseError("empty map in composition", pos)
        parts.append(_parse_single_map(stripped, n, pos))
        pos += len(chunk) + 1
    if len(parts) == 1:
        return parts[0]
    return Compose(tuple(reversed(parts)))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_PALETTE = (
    "lightblue", "lightpink", "palegreen", "khaki", "plum", "lightsalmon",
    "paleturquoise", "wheat", "lightgray", "thistle", "darkseagreen", "lightcyan",
)


def export_dot(
    vertices: set[DLVertex] | list[DLVertex],
    edges: set[tuple[DLVertex, DLVertex]] | list[tuple[DLVertex, DLVertex]],
    coset_colors: bool = False,
) -> str:
    """Render a vertex/edge set as a deterministic undirected DOT graph.

    Node ids are "<config>|<k>"; with coset_colors, vertices on the same
    vertical geodesic share a fill color.
    """
    vset = set(vertices)
    for a, b in edges:
        if a not in vset or b not in vset:
            raise DomainError(f"edge endpoint {format_vertex(a if a not in vset else b)} not in vertex set")
    order = sorted(vset, key=lambda v: (v.cursor, v.config.entries))
    color_for: dict[tuple, str] = {}
    if coset_colors:
        for cfg in sorted({v.config.entries for v in order}):
            color_for[cfg] = _PALETTE[len(color_for) % len(_PALETTE)]
    lines = ["graph dl {"]
    for v in order:
        nid = format_vertex(v)
        attrs = [f'label="{nid}"']
        if coset_colors:
            attrs.append(f'fillcolor="{color_for[v.config.entries]}"')
            attrs.append('style="filled"')
        lines.append(f'  "{nid}" [{", ".join(attrs)}];')
    canon = sorted(
        {tuple(sorted((format_vertex(a), format_vertex(b)))) for a, b in edges}
    )
    for a, b in canon:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
