"""Line-oriented ideal files: parsing with located errors, canonical printing.

Grammar (one construct per line, ``#`` starts a comment)::

    ring: <name> <name> ...
    ideal <Name>: <poly>, <poly>, ...
    decomposition <Name>: <IdealName> & <IdealName> & ...

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := integer | [integer] ['*'] factor ('*' factor)*
    factor := var ['^' positive-integer] | '(' poly ')'

Variable and ideal names are ASCII identifiers, so the reserved
elimination variable ``@w`` can never appear in user input. Parsing is
linear in the input. An integer literal too long for ``int()`` is a
located ParseError. Printing is the inverse of parsing on canonical
output: generators are emitted content-normalized with terms descending
under degrevlex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .groebner import PolyIdeal, Polynomial
from .ideals import MonomialIdeal
from .rings import Ring, _exp_mul

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"[0-9]+")
_PUNCT = "^*+-(),:&"
_MAX_NESTING = 100  # deeper parentheses are refused before recursion runs out


class ParseError(Exception):
    """Syntax or semantic error with a 1-based line/column location.

    Lookup failures (no location) use line 0.
    """

    def __init__(self, message: str, line: int, col: int):
        where = f"line {line}, col {col}: " if line else ""
        super().__init__(where + message)
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, INT, one of _PUNCT, END
    value: str
    line: int
    col: int


def _tokenize(text: str, lineno: int):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            break
        m = _IDENT.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), lineno, i + 1))
            i = m.end()
            continue
        m = _INT.match(text, i)
        if m:
            tokens.append(_Token("INT", m.group(), lineno, i + 1))
            i = m.end()
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, lineno, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
    tokens.append(_Token("END", "", lineno, n + 1))
    return tokens


class _PolyReader:
    """Recursive-descent reader for the poly grammar over a fixed ring."""

    def __init__(self, ring: Ring, tokens, pos=0):
        self.ring = ring
        self.tokens = tokens
        self.pos = pos
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def integer(self, tok: _Token) -> int:
        try:
            return int(tok.value)
        except ValueError:  # longer than sys.get_int_max_str_digits() allows
            self.fail(f"integer literal of {len(tok.value)} digits is too long", tok)

    def poly(self) -> Polynomial:
        """Every term is added into one dict, so one Polynomial is built and
        validated per parsed polynomial, and a sum is linear in its terms."""
        acc = {}
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
        self.term(acc, sign)
        while self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
            self.term(acc, sign)
        return Polynomial(self.ring, acc)

    def term(self, acc: dict, coeff: int):
        """Add coeff times the next term into acc. A variable factor adds to the
        term's exponent list; only a parenthesized factor is a Polynomial."""
        exps = [0] * self.ring.nvars
        product = None  # of the parenthesized factors
        if self.peek().kind == "INT":
            coeff *= self.integer(self.take())
            if self.peek().kind == "*":
                self.take()
            elif self.peek().kind not in ("IDENT", "("):
                # bare integer constant
                _add_term(acc, tuple(exps), coeff)
                return
        if self.peek().kind not in ("IDENT", "("):
            self.fail("expected a variable, '(' or an integer")
        while True:
            inner = self.factor(exps)
            if inner is not None:
                product = inner if product is None else product * inner
            if self.peek().kind != "*":
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
        tok = self.peek()
        if tok.kind == "(":
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}")
            self.take()
            self.depth += 1
            inner = self.poly()
            self.depth -= 1
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.take()
            return inner
        if tok.kind == "IDENT":
            self.take()
            index = self.ring._index.get(tok.value)
            if index is None:
                self.fail(f"unknown variable {tok.value!r}", tok)
            exp = 1
            if self.peek().kind == "^":
                self.take()
                etok = self.peek()
                if etok.kind != "INT":
                    self.fail("malformed exponent: expected a positive integer", etok)
                self.take()
                exp = self.integer(etok)
                if exp < 1:
                    self.fail("malformed exponent: must be a positive integer", etok)
            exps[index] += exp
            return None
        self.fail("expected a variable or '('")


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
    reader = _PolyReader(ring, _tokenize(text, lineno))
    p = reader.poly()
    if reader.peek().kind != "END":
        reader.fail("unexpected trailing input")
    return p


@dataclass
class IdealFile:
    """One ring, named ideals, and named decompositions (ideal-name lists)."""

    ring: Ring
    ideals: dict = field(default_factory=dict)
    decompositions: dict = field(default_factory=dict)

    def ideal(self, name: str) -> PolyIdeal:
        if name not in self.ideals:
            raise ParseError(f"no ideal named {name!r} in the file", 0, 0)
        return self.ideals[name]

    def decomposition_components(self, name: str):
        if name not in self.decompositions:
            raise ParseError(f"no decomposition named {name!r} in the file", 0, 0)
        return [self.ideals[n] for n in self.decompositions[name]]


def parse_ideal_file(text: str) -> IdealFile:
    ring = None
    ideals = {}
    decompositions = {}
    pending_decomps = []
    names_seen = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        head = tokens[0]
        if head.kind == "END":
            continue
        if head.kind != "IDENT":
            raise ParseError("expected 'ring', 'ideal' or 'decomposition'", lineno, head.col)

        if head.value == "ring":
            if len(tokens) < 2 or tokens[1].kind != ":":
                raise ParseError("expected ':' after 'ring'", lineno, tokens[1].col)
            if ring is not None:
                raise ParseError("duplicate ring declaration", lineno, head.col)
            names = []
            for tok in tokens[2:-1]:
                if tok.kind != "IDENT":
                    raise ParseError("variable names must be identifiers", lineno, tok.col)
                if tok.value in names:
                    raise ParseError(f"duplicate variable name {tok.value!r}", lineno, tok.col)
                names.append(tok.value)
            if not names:
                raise ParseError("a ring needs at least one variable", lineno, tokens[-1].col)
            ring = Ring(names)
            continue

        if head.value in ("ideal", "decomposition"):
            if len(tokens) < 3 or tokens[1].kind != "IDENT":
                raise ParseError(f"expected a name after '{head.value}'", lineno,
                                 tokens[1].col if len(tokens) > 1 else head.col)
            name_tok = tokens[1]
            if tokens[2].kind != ":":
                raise ParseError("expected ':' after the name", lineno, tokens[2].col)
            if name_tok.value in names_seen:
                raise ParseError(f"duplicate name {name_tok.value!r}", lineno, name_tok.col)
            names_seen[name_tok.value] = lineno

            if head.value == "ideal":
                if ring is None:
                    raise ParseError("the ring must be declared before any ideal", lineno, head.col)
                gens = []
                reader = _PolyReader(ring, tokens, pos=3)
                if reader.peek().kind != "END":
                    while True:
                        gens.append(reader.poly())
                        nxt = reader.peek()
                        if nxt.kind == ",":
                            reader.take()
                            continue
                        if nxt.kind == "END":
                            break
                        reader.fail("expected ',' or end of line")
                ideals[name_tok.value] = PolyIdeal(ring, gens)
            else:
                refs = []
                pos = 3
                while True:
                    tok = tokens[pos]
                    if tok.kind != "IDENT":
                        raise ParseError("expected an ideal name", lineno, tok.col)
                    refs.append(tok)
                    pos += 1
                    if tokens[pos].kind == "&":
                        pos += 1
                        continue
                    if tokens[pos].kind == "END":
                        break
                    raise ParseError("expected '&' or end of line", lineno, tokens[pos].col)
                pending_decomps.append((name_tok.value, refs))
            continue

        raise ParseError(f"unknown directive {head.value!r}", lineno, head.col)

    if ring is None:
        raise ParseError("missing ring declaration", len(text.splitlines()) + 1, 1)

    for name, refs in pending_decomps:
        for tok in refs:
            if tok.value not in ideals:
                raise ParseError(f"decomposition refers to unknown ideal {tok.value!r}",
                                 tok.line, tok.col)
        decompositions[name] = tuple(tok.value for tok in refs)

    return IdealFile(ring, ideals, decompositions)


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
