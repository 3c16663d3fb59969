"""Text grammar for polynomials and exact matrix tuples.

Polynomial grammar: terms joined by + / -; a term is an optional coefficient
(`3`, `-1/2`, `2i`, `i`, `(1+2i)`) times `*`-joined letters `x1..xg`,
`y1..`, `z1..` (indices up to `MAX_INDEX`); `^k` repeats a letter, in words
of at most `MAX_WORD_LENGTH` letters.  A `*` after a coefficient takes a
letter or `1`.  Whitespace is insignificant.
Example: ``x2 - x1*x2*x1``.

Bipartite terms separate the two sides with a literal ``(x)``:
``1 (x) 1 - y2*y1 (x) 1``.  As the renderer writes them, ``1`` after a
coefficient and ``*`` is the empty word (``2*1 (x) y1``) and ``0`` is the zero
polynomial.

Both rings share one grammar and one renderer: `_parse_sum` reads the signed
sum and `_term_prefix` the coefficient and word that open every term, so
`parse_poly` and `parse_bipartite` differ only in what follows that prefix;
`_format_sum` writes signs, parentheses and unit coefficients for
`format_poly` and `format_bipartite` alike.

Matrix tuples are JSON arrays of matrices, each a row-major array of rows of
scalar strings ("a/b" or "a/b+c/di") or JSON integers; a bad entry is
reported by its matrix, row and column.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .freealg import KINDS, MAX_INDEX, FreePoly, encode, word_key, word_str
from .scalars import GaussianRational, as_gaussian, format_scalar, scalar_needs_parens

# the longest word `^k` may build; a longer one is an input error, not a
# list too large for memory
MAX_WORD_LENGTH = 2**20


class ParseError(ValueError):
    """Syntax error at the 1-based line/column of the offending token; in a matrix
    tuple, `entry` is the bad entry's 1-based (matrix, row, column), in whose text they count."""

    def __init__(self, message, line=1, col=1, entry=None):
        where = f"line {line}, col {col}"
        self.reason, self.line, self.col = message, line, col
        if entry:
            message = "matrix {}, row {}, column {}: ".format(*entry) + message
            where = (where if line > 1 else f"col {col}") + " of the entry"
        super().__init__(f"{message} ({where})")


_TOKEN = re.compile(
    r"\s+"
    rf"|(?P<letter>[{KINDS}]\d+)"
    r"|(?P<number>\d+)"
    r"|(?P<op>\(x\)|[ij+\-*/^()])"
)


def _position(text, offset):
    """1-based (line, col) of a character offset into text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", *_position(text, pos))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def error(self, message):
        raise ParseError(message, *_position(self.text, self.peek()[2]))


def _int(cur, digits):
    """int(digits) for the token at the cursor; int() refuses more digits
    than the interpreter's limit, an input error at that token."""
    try:
        return int(digits)
    except ValueError:
        cur.error(f"a number may have at most {sys.get_int_max_str_digits()} digits")


def _parse_simple_scalar(cur, *, allow_sign=False):
    """INT[/INT]['i'|'j'] or bare 'i'; returns GaussianRational."""
    sign = 1
    kind, val, _ = cur.peek()
    if allow_sign and kind == "op" and val in "+-":
        cur.next()
        sign = -1 if val == "-" else 1
        kind, val, _ = cur.peek()
    if kind == "op" and val in ("i", "j"):
        cur.next()
        return GaussianRational(0, sign)
    if kind != "number":
        cur.error("expected a number")
    num = Fraction(_int(cur, val))
    cur.next()
    kind, val, _ = cur.peek()
    if kind == "op" and val == "/":
        cur.next()
        kind2, val2, _ = cur.peek()
        if kind2 != "number":
            cur.error("expected a denominator after '/'")
        den = _int(cur, val2)
        if not den:
            cur.error("zero denominator")
        cur.next()
        num /= den
    kind, val, _ = cur.peek()
    if kind == "op" and val in ("i", "j"):
        cur.next()
        return GaussianRational(0, sign * num)
    return GaussianRational(sign * num)


def _scalar_sum(cur):
    """Signed simple scalars joined by + / -, summed: a matrix entry, or the
    inside of a parenthesised coefficient such as `(1+2i)`."""
    total = _parse_simple_scalar(cur, allow_sign=True)
    kind, val, _ = cur.peek()
    while kind == "op" and val in "+-":
        total = total + _parse_simple_scalar(cur, allow_sign=True)
        kind, val, _ = cur.peek()
    return total


def _parse_coefficient(cur):
    """Leading coefficient of a term, or None when the term starts with a letter."""
    kind, val, _ = cur.peek()
    if kind == "op" and val == "(":
        cur.next()
        total = _scalar_sum(cur)
        kind, val, _ = cur.peek()
        if not (kind == "op" and val == ")"):
            cur.error("expected ')'")
        cur.next()
        return total
    if kind == "number" or (kind == "op" and val in ("i", "j")):
        return _parse_simple_scalar(cur)
    return None


def _parse_word_factors(cur):
    """`*`-joined letters with optional ^k; returns a word (possibly empty)."""
    word = []
    while True:
        kind, val, at = cur.peek()
        if kind != "letter":
            break
        let = (val[0], _int(cur, val[1:]))
        if not 1 <= let[1] <= MAX_INDEX:
            cur.error(f"letter index must be from 1 to {MAX_INDEX} in {val!r}")
        cur.next()
        exponent = 1
        kind, v, _ = cur.peek()
        if kind == "op" and v == "^":
            cur.next()
            kind2, v2, at = cur.peek()
            if kind2 != "number":
                cur.error("expected an exponent after '^'")
            cur.next()
            # int() refuses very long digit strings, and an exponent with
            # more significant digits than the limit is past it
            too_long = len(v2.lstrip("0")) > len(str(MAX_WORD_LENGTH))
            exponent = MAX_WORD_LENGTH + 1 if too_long else int(v2)
        if len(word) + exponent > MAX_WORD_LENGTH:
            # reported at the letter or exponent that makes the word too long
            message = f"a word may have at most {MAX_WORD_LENGTH} letters"
            raise ParseError(message, *_position(cur.text, at))
        word.extend([let] * exponent)
        kind, v, _ = cur.peek()
        if kind == "op" and v == "*":
            cur.next()
            kind2, _, _ = cur.peek()
            if kind2 != "letter":
                cur.error("expected a letter after '*'")
            continue
        break
    return tuple(word)


def _term_prefix(cur):
    """The start of a term in either ring: a coefficient (None when absent),
    an optional `*` after it, and a word (possibly empty, or `1` after `*`)."""
    coeff = _parse_coefficient(cur)
    kind, val, _ = cur.peek()
    if coeff is not None and kind == "op" and val == "*":
        cur.next()
        kind, val, _ = cur.peek()
        if (kind, val) == ("number", "1"):
            cur.next()
            return coeff, ()
        if kind != "letter":
            cur.error("expected a letter or 1 after '*'")
    return coeff, _parse_word_factors(cur)


def _parse_sum(text, term):
    """Terms joined by + / -, with an optional leading sign; `term(cur)`
    reads one term as (key, coefficient).  Returns key -> summed coefficient."""
    cur = _Cursor(text)
    terms = {}
    sign = 1
    kind, val, _ = cur.peek()
    while True:
        if kind == "op" and val in "+-":
            cur.next()
            sign = -1 if val == "-" else 1
        key, coeff = term(cur)
        coeff = coeff * sign
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
        kind, val, _ = cur.peek()
        if kind is None:
            return terms
        if not (kind == "op" and val in "+-"):
            cur.error(f"unexpected token {val!r}")


def _free_term(cur):
    start = cur.pos
    coeff, word = _term_prefix(cur)
    # `x1^0` is a term whose word is empty
    if cur.pos == start:
        cur.error("expected a term")
    return word, 1 if coeff is None else coeff


def _bipartite_term(cur):
    start = cur.pos
    coeff, left = _term_prefix(cur)
    kind, val, _ = cur.peek()
    if not (kind == "op" and val == "(x)"):
        # `y1^0` is a left side whose word is empty
        if cur.pos == start:
            cur.error("expected a bipartite term")
        if coeff == 0 and not left:
            # the zero polynomial, as `format_bipartite` writes it
            return ((), ()), coeff
        cur.error("expected '(x)' between the two sides")
    cur.next()
    kind, val, _ = cur.peek()
    if kind == "number" and val == "1":
        cur.next()
        right = ()
    else:
        right = _parse_word_factors(cur)
    return (left, right), 1 if coeff is None else coeff


def _format_sum(terms) -> str:
    """Render (body, coefficient) pairs, in the order given, as a signed sum.
    A body of None is the constant term; a unit coefficient is left out
    before a body, and a coefficient with both parts set is parenthesised."""
    parts = []
    for body, c in terms:
        if scalar_needs_parens(c):
            sign, coeff = "+", f"({format_scalar(c)})"
        else:
            neg = (c.real or c.imag) < 0
            mag = -c if neg else c
            sign = "-" if neg else "+"
            coeff = None if mag == 1 and body is not None else format_scalar(mag)
        piece = body if coeff is None else coeff if body is None else f"{coeff}*{body}"
        if not parts:
            parts.append(piece if sign == "+" else f"-{piece}")
        else:
            parts.append(f" {sign} {piece}")
    return "".join(parts) or "0"


def parse_poly(text: str) -> FreePoly:
    return FreePoly(_parse_sum(text, _free_term))


def format_poly(f: FreePoly) -> str:
    return _format_sum((word_str(w) if w else None, c) for w, c in f._graded_items())


def parse_poly_map(strings):
    return tuple(parse_poly(s) for s in strings)


def format_poly_map(p):
    return [format_poly(comp) for comp in p]


# -- bipartite -------------------------------------------------------------


def parse_bipartite(text: str):
    """Parse sums of `u (x) v` terms into a BipartitePoly."""
    from .bipartite import BipartitePoly

    return BipartitePoly(_parse_sum(text, _bipartite_term))


def format_bipartite(b) -> str:
    ordered = sorted(
        b.terms(), key=lambda t: (len(t[0][0]) + len(t[0][1]), word_key(t[0][0]), word_key(t[0][1]))
    )
    return _format_sum((f"{word_str(encode(u))} (x) {word_str(encode(v))}", c) for (u, v), c in ordered)


# -- exact scalars and matrix tuples ----------------------------------------


def parse_scalar(text: str) -> GaussianRational:
    cur = _Cursor(text)
    total = _scalar_sum(cur)
    kind, val, _ = cur.peek()
    if kind is not None:
        cur.error(f"unexpected token {val!r}")
    # a sum narrows to a real; matrix entries stay GaussianRational
    return as_gaussian(total)


def parse_matrix_tuple(text: str):
    from .mateval import MatrixTuple

    try:
        # integers stay digit strings, read by `parse_scalar` like strings
        data = json.loads(text, parse_int=str)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(data, list) or not data:
        raise ParseError("expected a nonempty JSON array of matrices")
    if not all(isinstance(m, list) and m and all(isinstance(r, list) for r in m) for m in data):
        raise ParseError("each matrix must be a nonempty JSON array of rows")
    mats = []
    for m, mat in enumerate(data, 1):
        rows = []
        for r, row in enumerate(mat, 1):
            rows.append(tuple(_matrix_entry(e, (m, r, c)) for c, e in enumerate(row, 1)))
        mats.append(tuple(rows))
    n = len(mats[0])
    for mat in mats:
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ParseError("matrices must be square and of a common size")
    return MatrixTuple(n, tuple(mats))


def _matrix_entry(entry, at):
    """The scalar of the matrix entry at the 1-based (matrix, row, column) `at`."""
    try:
        return parse_scalar(entry if isinstance(entry, str) else json.dumps(entry))
    except ParseError as exc:
        raise ParseError(exc.reason, exc.line, exc.col, entry=at) from None


def format_matrix_tuple(X) -> str:
    return json.dumps([format_matrix(mat) for mat in X.mats])


def format_matrix(mat) -> list:
    return [[format_scalar(entry) for entry in row] for row in mat]
