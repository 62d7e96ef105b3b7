"""Line-oriented ideal files: parsing with located errors, canonical printing.

Grammar (one construct per line, ``#`` starts a comment)::

    ring: <name> <name> ...
    ideal <Name>: <poly>, <poly>, ...
    decomposition <Name>: <IdealName> & <IdealName> & ...

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := integer | [integer] ['*'] factor ('*' factor)*
    factor := var ['^' positive-integer] | '(' poly ')'

A line ends at ``\\n``, ``\\r\\n`` or ``\\r``; other whitespace (``\\f``, ``\\v``)
separates tokens. One scanner regex turns a line into ``(kind, value,
col)`` tuples, and one recursive-descent reader parses directives and
polynomials from them, in time linear in the input. Names are ASCII
identifiers, so the reserved elimination variable ``@w`` never appears
in user input. An integer literal too long for ``int()`` is a located
ParseError. Printing inverts parsing on canonical output: generators
content-normalized, terms descending under degrevlex.
"""

from __future__ import annotations

import re

from .groebner import PolyIdeal, Polynomial
from .ideals import MonomialIdeal
from .rings import Ring, _exp_mul, _Record

# one token after whitespace; END is the end of the line or its comment
_SCAN = re.compile(r"""\s*(?:
    (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*) | (?P<INT>[0-9]+) | (?P<PUNCT>[-^*+(),:&])
  | (?P<END>\#.*|\Z) | (?P<BAD>.))""", re.VERBOSE | re.DOTALL)
_MAX_NESTING = 100  # deeper parentheses are refused before recursion runs out


class ParseError(Exception):
    """Syntax or semantic error at a 1-based line/column; a lookup failure
    (no location) has line 0."""

    def __init__(self, message: str, line: int, col: int):
        where = f"line {line}, col {col}: " if line else ""
        super().__init__(where + message)
        self.message = message
        self.line = line
        self.col = col


class _Reader:
    """Recursive-descent reader over the tokens of one line. A token is a
    ``(kind, value, col)`` tuple whose kind is IDENT, INT, END or the
    punctuation character itself; polynomials are read over ``ring``."""

    def __init__(self, text: str, lineno: int, ring: Ring | None):
        self.ring = ring
        self.lineno = lineno
        self.pos = 0
        self.depth = 0
        self.tokens = []
        for m in _SCAN.finditer(text):
            kind = m.lastgroup
            if kind == "END":
                break
            value = m[kind]
            if kind == "BAD":
                raise ParseError(f"unexpected character {value!r}", lineno, m.start(kind) + 1)
            self.tokens.append((value if kind == "PUNCT" else kind, value, m.start(kind) + 1))
        self.tokens.append(("END", "", len(text) + 1))

    def peek(self) -> str:
        return self.tokens[self.pos][0]  # the next token's kind

    def take(self) -> tuple:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, message: str) -> tuple:
        if self.peek() != kind:
            self.fail(message)
        return self.take()

    def fail(self, message: str, tok: tuple | None = None):
        raise ParseError(message, self.lineno, (tok or self.tokens[self.pos])[2])

    def sequence(self, item, separator: str, message: str) -> list:
        """item (separator item)* up to the end of the line."""
        items = [item()]
        while self.peek() != "END":
            self.expect(separator, message)
            items.append(item())
        return items

    def integer(self, tok: tuple) -> int:
        try:
            return int(tok[1])
        except ValueError:  # longer than sys.get_int_max_str_digits() allows
            self.fail(f"integer literal of {len(tok[1])} digits is too long", tok)

    def poly(self) -> Polynomial:
        """Every term is added into one dict, so one Polynomial is built and
        validated per parsed polynomial, and a sum is linear in its terms."""
        acc = {}
        sign = self.take()[0] if self.peek() in "+-" else "+"
        while True:
            self.term(acc, -1 if sign == "-" else 1)
            if self.peek() not in "+-":
                return Polynomial(self.ring, acc)
            sign = self.take()[0]

    def term(self, acc: dict, coeff: int):
        """Add coeff times the next term into acc. A variable factor adds to the
        term's exponent list; only a parenthesized factor is a Polynomial."""
        exps = [0] * self.ring.nvars
        product = None  # of the parenthesized factors
        if self.peek() == "INT":
            coeff *= self.integer(self.take())
            if self.peek() == "*":
                self.take()
            elif self.peek() not in ("IDENT", "("):  # a bare integer constant
                _add_term(acc, tuple(exps), coeff)
                return
        if self.peek() not in ("IDENT", "("):
            self.fail("expected a variable, '(' or an integer")
        while True:
            inner = self.factor(exps)
            if inner is not None:
                product = inner if product is None else product * inner
            if self.peek() != "*":
                break
            self.take()
        shift = tuple(exps)
        if product is None:
            _add_term(acc, shift, coeff)
        else:
            for e, c in product.coeffs.items():
                _add_term(acc, _exp_mul(e, shift), coeff * c)

    def factor(self, exps: list):
        """Add a variable factor to exps; return a parenthesized one."""
        kind = self.peek()
        if kind == "(":
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}")
            self.take()
            self.depth += 1
            inner = self.poly()
            self.depth -= 1
            self.expect(")", "expected ')'")
            return inner
        if kind == "IDENT":
            tok = self.take()
            index = self.ring._index.get(tok[1])
            if index is None:
                self.fail(f"unknown variable {tok[1]!r}", tok)
            exp = 1
            if self.peek() == "^":
                self.take()
                etok = self.expect("INT", "malformed exponent: expected a positive integer")
                exp = self.integer(etok)
                if exp < 1:
                    self.fail("malformed exponent: must be a positive integer", etok)
            exps[index] += exp
            return None
        self.fail("expected a variable or '('")

    def ring_names(self) -> list:
        names = []
        while self.peek() != "END":
            tok = self.expect("IDENT", "variable names must be identifiers")
            if tok[1] in names:
                self.fail(f"duplicate variable name {tok[1]!r}", tok)
            names.append(tok[1])
        if not names:
            self.fail("a ring needs at least one variable")
        return names


def _add_term(acc: dict, e: tuple, c):
    """acc[e] += c, dropping the entry when it cancels, so that a term that
    reappears later goes last, as in `Polynomial.__add__`."""
    v = acc.get(e, 0) + c
    if v:
        acc[e] = v
    else:
        acc.pop(e, None)


def parse_polynomial(ring: Ring, text: str, lineno: int = 1) -> Polynomial:
    """Parse a single polynomial; the whole text must be consumed."""
    reader = _Reader(text, lineno, ring)
    p = reader.poly()
    reader.expect("END", "unexpected trailing input")
    return p


class IdealFile(_Record):
    """One ring, named ideals, and named decompositions (ideal-name lists):
    a record that the parser fills in, so mutable and unhashable."""

    __slots__ = ("ring", "ideals", "decompositions")
    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, ring: Ring, ideals: dict | None = None, decompositions: dict | None = None):
        self._set(ring, {} if ideals is None else ideals, {} if decompositions is None else decompositions)

    def ideal(self, name: str) -> PolyIdeal:
        if name not in self.ideals:
            raise ParseError(f"no ideal named {name!r} in the file", 0, 0)
        return self.ideals[name]

    def decomposition_components(self, name: str):
        if name not in self.decompositions:
            raise ParseError(f"no decomposition named {name!r} in the file", 0, 0)
        return [self.ideals[n] for n in self.decompositions[name]]


def parse_ideal_file(text: str) -> IdealFile:
    lines = re.split(r"\r\n?|\n", text)
    parsed = IdealFile(None)
    refs = []  # (line, name, col) of each decomposition entry, checked at the end
    for lineno, line in enumerate(lines, start=1):
        reader = _Reader(line, lineno, parsed.ring)
        if reader.peek() == "END":
            continue
        head = reader.expect("IDENT", "expected 'ring', 'ideal' or 'decomposition'")
        directive = head[1]
        if directive == "ring":
            reader.expect(":", "expected ':' after 'ring'")
            if parsed.ring is not None:
                reader.fail("duplicate ring declaration", head)
            parsed.ring = Ring(reader.ring_names())
        elif directive in ("ideal", "decomposition"):
            _, name, col = reader.expect("IDENT", f"expected a name after '{directive}'")
            reader.expect(":", "expected ':' after the name")
            if name in parsed.ideals or name in parsed.decompositions:
                raise ParseError(f"duplicate name {name!r}", lineno, col)
            if directive == "ideal":
                if parsed.ring is None:
                    reader.fail("the ring must be declared before any ideal", head)
                gens = (reader.sequence(reader.poly, ",", "expected ',' or end of line")
                        if reader.peek() != "END" else ())
                parsed.ideals[name] = PolyIdeal(parsed.ring, gens)
            else:
                entries = reader.sequence(lambda: reader.expect("IDENT", "expected an ideal name"),
                                          "&", "expected '&' or end of line")
                parsed.decompositions[name] = tuple(value for _, value, _ in entries)
                refs += [(lineno, value, col) for _, value, col in entries]
        else:
            reader.fail(f"unknown directive {directive!r}", head)

    if parsed.ring is None:
        # on the line after the last: a final line end opens no new line
        raise ParseError("missing ring declaration", len(lines) + bool(lines[-1]), 1)
    for lineno, name, col in refs:
        if name not in parsed.ideals:
            raise ParseError(f"decomposition refers to unknown ideal {name!r}", lineno, col)
    return parsed


# ---------------------------------------------------------------------------
# printing


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: content-normalized, terms descending under degrevlex."""
    return str(p.content_normalized())


def format_generators(I) -> str:
    if isinstance(I, MonomialIdeal):
        return ", ".join(str(g) for g in I.generators)
    return ", ".join(format_polynomial(g) for g in I.generators)


def format_ideal_file(f: IdealFile) -> str:
    lines = ["ring: " + " ".join(f.ring.variables)]
    for name, ideal in f.ideals.items():
        gens = format_generators(ideal)
        lines.append(f"ideal {name}: {gens}" if gens else f"ideal {name}:")
    for name, refs in f.decompositions.items():
        lines.append(f"decomposition {name}: " + " & ".join(refs))
    return "\n".join(lines) + "\n"


def monomial_ideal_from_poly(I: PolyIdeal) -> MonomialIdeal:
    """Strip unit coefficients off single-term generators.

    Raises ValueError when some generator is not a term, which the CLI
    reports as a method precondition failure.
    """
    gens = []
    for g in I.generators:
        tm = g.as_monomial()
        if tm is None:
            raise ValueError(
                f"generator {format_polynomial(g)} is not a monomial; "
                "this operation needs a monomial ideal"
            )
        gens.append(tm[0])
    return MonomialIdeal(I.ring, gens)
