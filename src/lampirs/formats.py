"""Textual and JSON formats for polynomials, vectors, subgroup presentations.

Polynomial text: ``1+x^2+2x^5`` (ascending exponents).  A Laurent element
with a nonzero offset is written with a unit prefix, ``x^-3*(1+x^2)``; the
parser additionally accepts inline negative exponents such as ``x^-1+1``.
Duplicate exponents are rejected.

Vector text: ``[poly, poly, ...]``; the brackets may be omitted when the
ambient rank is 1.

Subgroup presentation block::

    n=<n> e=<e> p=<p>
    <generator vector>          (one per line)

Subgroup-triple file: an ``s=<s>`` line, a presentation block, then a
``v=<vector>`` line.

The polynomial and vector text is written beside its types, so their
``repr`` needs no import of this module: ``format_poly_plain`` and
``format_laurent`` live in ``algebra``, ``format_vector`` in
``submodules``.  This module imports ``format_laurent`` and
``format_vector`` from there, and callers may import both from here.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import LaurentPoly, Poly, format_laurent
from .errors import FormatError, ResourceBudgetError
from .irs import SubgroupMeasure
from .lamplighter import SubgroupTriple
from .submodules import LaurentVector, Submodule, format_vector

SCHEMA_TRIPLE = "lampirs.triple.v1"
SCHEMA_DISTRIBUTION = "lampirs.window-distribution.v1"
# Largest exponent span, highest minus lowest exponent of the nonzero terms,
# of a parsed polynomial, whose body is stored densely.
POLY_SPAN_BUDGET = 2**16

_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(x(?:\^(-?\d+))?)?$")
# Largest |e| of a weight's exponent: 10^e has at most the 4,300 digits of a
# literal ``_int`` reads.  Fraction would expand any e before a check ran.
WEIGHT_EXPONENT_LIMIT = 4299
_EXPONENT_RE = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _shown(text):
    return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"


def _int(text, what, line=None):
    """The integer written as ``text``, a ``what`` of the input; one past
    what Python reads, a literal of more than 4,300 digits, is a FormatError
    naming the line."""
    try:
        return int(text)
    except ValueError as exc:
        raise FormatError(f"bad {what} {_shown(text)!r}", line) from exc


def parse_poly(text, p, line=None):
    """Parse a (Laurent) polynomial; returns a LaurentPoly."""
    text = text.strip().replace(" ", "")
    if not text:
        raise FormatError("empty polynomial", line)
    offset = 0
    m = re.match(r"^x\^(-?\d+)\*\((.*)\)$", text)
    if m:
        offset = _int(m.group(1), "offset", line)
        text = m.group(2)
    if text == "0":
        return LaurentPoly.zero(p)
    terms = {}
    for raw in text.split("+"):
        m = _TERM_RE.match(raw)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise FormatError(f"bad term {raw!r}", line)
        coeff = _int(m.group(1), "coefficient", line) if m.group(1) is not None else 1
        if m.group(2) is None:
            exp = 0
        elif m.group(3) is not None:
            exp = _int(m.group(3), "exponent", line)
        else:
            exp = 1
        if exp in terms:
            raise FormatError(f"duplicate exponent {exp} in {text!r}", line)
        terms[exp] = coeff % p
    live = [exp for exp, c in terms.items() if c]
    if not live:
        return LaurentPoly.zero(p)
    lo, hi = min(live), max(live)
    if hi - lo > POLY_SPAN_BUDGET:
        raise ResourceBudgetError("a polynomial of exponent span", hi - lo, POLY_SPAN_BUDGET)
    return LaurentPoly(p, lo + offset, Poly(p, [terms.get(exp, 0) for exp in range(lo, hi + 1)]))


def parse_vector(text, n, p, line=None):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise FormatError("unbalanced brackets in vector", line)
        parts = _split_top_level(text[1:-1], line)
    else:
        parts = [text]
    if len(parts) != n:
        raise FormatError(f"vector has {len(parts)} coordinates, expected {n}", line)
    return LaurentVector(p, (parse_poly(part, p, line) for part in parts))


def _split_top_level(body, line):
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormatError("unbalanced parentheses", line)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if not parts or any(not s.strip() for s in parts):
        raise FormatError("empty vector coordinate", line)
    return parts


def format_submodule(U):
    lines = [f"n={U.n} e={U.period} p={U.p}"]
    lines.extend(format_vector(g) for g in U.gens)
    return "\n".join(lines) + "\n"


def parse_submodule_lines(lines, start_line=1):
    """Parse a presentation block; returns (Submodule, lines consumed)."""
    if not lines:
        raise FormatError("missing presentation header", start_line)
    header = lines[0].strip()
    m = re.match(r"^n=(\d+)\s+e=(\d+)\s+p=(\d+)$", header)
    if not m:
        raise FormatError(f"bad presentation header {header!r}", start_line)
    n, e, p = (_int(m.group(i), f"{name} value", start_line) for i, name in enumerate("nep", 1))
    gens = []
    consumed = 1
    for offset, raw in enumerate(lines[1:], start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("v=") or "=" in stripped.split("[")[0]:
            break
        gens.append(parse_vector(stripped, n, p, start_line + offset))
        consumed += 1
    return Submodule(n, p, e, gens), consumed


def format_triple(triple):
    out = [f"s={triple.s}"]
    out.append(format_submodule(triple.lamps).rstrip("\n"))
    out.append(f"v={format_vector(triple.v)}")
    return "\n".join(out) + "\n"


def parse_triple(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("s="):
        raise FormatError("triple file must start with an s= line", 1)
    s = _int(lines[0].strip()[2:], "s value", 1)
    U, consumed = parse_submodule_lines(lines[1:], start_line=2)
    v_index = 1 + consumed
    if v_index >= len(lines) or not lines[v_index].strip().startswith("v="):
        raise FormatError("missing v= line", v_index + 1)
    v = parse_vector(lines[v_index].strip()[2:], U.n, U.p, v_index + 1)
    return SubgroupTriple(s, U, v)


def triple_to_json(triple):
    return {
        "schema": SCHEMA_TRIPLE,
        "s": triple.s,
        "n": triple.n,
        "p": triple.p,
        "e": triple.lamps.period,
        "gens": [format_vector(g) for g in triple.lamps.gens],
        "v": format_vector(triple.v),
    }


def fraction_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def basis_row_str(row, p):
    if p < 10:
        return "".join(str(c) for c in row)
    return ",".join(str(c) for c in row)


def distribution_to_json(dist):
    items = []
    for ws, prob in dist.sorted_items():
        items.append(
            {
                "basis": [basis_row_str(row, dist.p) for row in ws.rows],
                "probability": fraction_str(prob),
            }
        )
    return {
        "schema": SCHEMA_DISTRIBUTION,
        "window": [dist.lo, dist.hi],
        "n": dist.n,
        "p": dist.p,
        "atoms": items,
    }


def _json_field(obj, key, kind, default=None):
    """obj[key], checked to be a ``kind`` (a type or a tuple of types).

    Raises FormatError when obj is not an object, or the key is missing
    (without a default) or holds a value of another type.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"expected a JSON object holding {key!r}, got {obj!r}")
    if key not in obj:
        if default is not None:
            return default
        raise FormatError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = " or ".join(k.__name__ for k in kinds)
        raise FormatError(f"{key!r} must be a JSON {names}, got {value!r}")
    return value


def measure_from_json(data):
    """Mixture-of-presentations measure description; FormatError if malformed."""
    n, p = _json_field(data, "n", int), _json_field(data, "p", int)
    atoms = []
    for entry in _json_field(data, "atoms", list):
        raw = _json_field(entry, "weight", (str, int))
        exp = _EXPONENT_RE.search(raw) if isinstance(raw, str) else None
        digits = exp[1].replace("_", "").lstrip("0") if exp else ""
        if len(digits) > 4 or int(digits or 0) > WEIGHT_EXPONENT_LIMIT:
            raise FormatError(f"weight {_shown(raw)!r} has an exponent past {WEIGHT_EXPONENT_LIMIT}")
        try:
            weight = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad weight {raw!r}") from exc
        period = _json_field(entry, "period", int, default=1)
        gens = _json_field(entry, "gens", list)
        if not all(isinstance(g, str) for g in gens):
            raise FormatError(f"generators must be JSON strings, got {gens!r}")
        U = Submodule(n, p, period, (parse_vector(g, n, p) for g in gens))
        atoms.append((weight, U))
    return SubgroupMeasure.mixture(atoms)


def canonical_json(obj):
    """Deterministic JSON bytes: sorted keys, no whitespace variation."""
    return _compact(obj) + "\n"


def canonical_json_pieces(obj, key, items):
    """The text of ``canonical_json({**obj, key: list(items)})`` in pieces:
    the keys of ``obj`` sorted before ``key``, then one piece per item, then
    the keys after it.  ``items`` is read only as the pieces are, so the
    list is never held."""
    head = _compact({k: v for k, v in obj.items() if k < key})[:-1]
    tail = _compact({k: v for k, v in obj.items() if k > key})[1:]
    yield head + ("," if len(head) > 1 else "") + _compact(key) + ":["
    sep = ""
    for item in items:
        yield sep + _compact(item)
        sep = ","
    yield "]" + ("," if len(tail) > 1 else "") + tail + "\n"


def _compact(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
