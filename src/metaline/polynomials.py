"""Sparse multivariate polynomials over the rationals.

Terms live in a dict mapping exponent tuples to nonzero rational
coefficients.  Evaluation is generic: the inputs may be rationals,
first-order jets (the symbolic slide oracle differentiates a chart
along a direction that way), or other polynomials (compose, which
builds the third Veronese composite of a chart).  The sum starts at the
given zero of the inputs' ring, so even a constant polynomial evaluates
to an element of that ring.  A chart at a rational point is evaluated by
its own compiled integer evaluator (varieties), not here.  A small
recursive-descent parser covers the input grammar: integers, rational
literals a/b, variables, + - * ^ (also **), unary minus and parentheses.
"""

from __future__ import annotations

from math import comb, lcm
from operator import add

from .scalars import Q, ZERO, qstr

_SCALARS = (int, type(ZERO))


class Poly:
    """A polynomial in nvars variables: terms maps exponent tuples to
    nonzero rationals.  A Poly is never mutated after construction, so a
    result may be an operand itself (p ** 1 is p)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError("exponent tuple has wrong arity")
            c = Q(coeff)
            if c != 0:
                clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    @staticmethod
    def _of(nvars, terms):
        """A computed result: terms already map nvars-tuples to nonzero
        rationals, so the checks of __init__ are skipped."""
        out = Poly.__new__(Poly)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def const(cls, value, nvars):
        return cls(nvars, {(0,) * nvars: Q(value)})

    @classmethod
    def zero(cls, nvars):
        return cls._of(nvars, {})

    @classmethod
    def var(cls, index, nvars):
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Q(1)})

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, index):
        return max((e[index] for e in self.terms), default=0)

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("mixed arities")
            return other
        return Poly.const(other, self.nvars)

    def __add__(self, other):
        o = self._lift(other)
        terms = dict(self.terms)
        for exps, c in o.terms.items():
            s = terms.get(exps, ZERO) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return Poly._of(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __neg__(self):
        return Poly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("mixed arities")
            terms = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    key = tuple(map(add, ea, eb))
                    s = terms.get(key, ZERO) + ca * cb
                    if s == 0:
                        terms.pop(key, None)
                    else:
                        terms[key] = s
            return Poly._of(self.nvars, terms)
        c = Q(other)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly._of(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent):
        e = int(exponent)
        if e < 0:
            raise ValueError("negative polynomial exponent")
        if e == 0:
            return Poly.const(1, self.nvars)
        out, base = None, self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def diff(self, index):
        terms = {}
        for exps, c in self.terms.items():
            k = exps[index]
            if k == 0:
                continue
            e = list(exps)
            e[index] = k - 1
            terms[tuple(e)] = c * k
        return Poly._of(self.nvars, terms)

    def evaluate(self, values, zero=ZERO):
        """Evaluate on ring elements supporting + * ** and rational mixing,
        summing from zero, an element of their ring."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        powers = [{} for _ in range(self.nvars)]
        total = zero
        for exps, coeff in self.terms.items():
            factor = None
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                p = powers[i].get(e)
                if p is None:
                    p = values[i] ** e
                    powers[i][e] = p
                factor = p if factor is None else factor * p
            total = total + (coeff if factor is None else factor * coeff)
        return total

    def compose(self, substitutions):
        """Substitute a polynomial for every variable."""
        subs = list(substitutions)
        if len(subs) != self.nvars:
            raise ValueError("wrong number of substitutions")
        return self.evaluate(subs, zero=Poly.zero(subs[0].nvars if subs else 0))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, _SCALARS):
            return self == self._lift(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def format(self, names=None):
        if not self.terms:
            return "0"
        names = names or [f"v{i}" for i in range(self.nvars)]
        pieces = []
        for exps, coeff in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = qstr(coeff)
            elif coeff == 1:
                body = "*".join(factors)
            elif coeff == -1:
                body = "-" + "*".join(factors)
            else:
                body = qstr(coeff) + "*" + "*".join(factors)
            pieces.append(body)
        text = pieces[0]
        for p in pieces[1:]:
            text += " - " + p[1:] if p.startswith("-") else " + " + p
        return text

    def __repr__(self):
        return f"Poly({self.format()})"


class PolyParseError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if text.startswith("**", i):
            tokens.append(("op", "^"))
            i += 2
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", ""))
    return tokens


# Parentheses and unary signs each recurse; capping their nesting keeps
# deep input a parse error instead of a stack overflow.
MAX_NESTING = 100

# Cap on exponents and on the total degree of every parsed polynomial,
# checked before the power or product is formed (builtins reach 6).
MAX_DEGREE = 64


# Cap on the terms of every parsed polynomial, checked on a bound before
# each sum, product or power is formed: polynomials with a and b terms
# have a sum of at most a + b terms, a product of at most a * b, and the
# e-th power of the first has at most C(a + e - 1, e).
MAX_TERMS = 1000


# Cap on the bit length of the numerator and the denominator of every
# parsed coefficient, checked on a bound before each literal, sum, product
# or power is formed, so that no parse builds a huge integer and every
# coefficient prints (Python prints integers of up to 4300 digits).
MAX_COEFFICIENT_BITS = 1024


def _check_degree(what, value):
    if value > MAX_DEGREE:
        raise PolyParseError(f"{what} {value} exceeds the cap of {MAX_DEGREE}")


def _check_terms(bound):
    if bound > MAX_TERMS:
        raise PolyParseError(f"up to {bound} terms exceeds the cap of {MAX_TERMS}")


def _check_bits(bound):
    if bound > MAX_COEFFICIENT_BITS:
        raise PolyParseError(
            f"coefficients of up to {bound} bits exceed the cap of {MAX_COEFFICIENT_BITS}"
        )


def _height(poly):
    """(n, d): the coefficients of poly are integers of at most n bits over
    one common denominator of d bits.  A sum of such polynomials with
    heights (n, d) and (m, e) has coefficients of at most
    max(n + e, m + d) + 1 bits over d + e, a product with p terms in the
    shorter factor n + m + bits(p - 1) over d + e, and the k-th power of
    the first, with p terms, k (n + bits(p - 1)) over k d."""
    coeffs = poly.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    top = max((abs(c.numerator) * (den // c.denominator) for c in coeffs), default=0)
    return top.bit_length(), den.bit_length()


class _Parser:
    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.index = {name: k for k, name in enumerate(names)}
        self.nvars = len(names)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, parse):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PolyParseError(f"expression nested deeper than {MAX_NESTING} levels")
        node = parse()
        self.depth -= 1
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            _check_terms(len(node.terms) + len(rhs.terms))
            (n, d), (m, e) = _height(node), _height(rhs)
            _check_bits(max(n + e + 1, m + d + 1, d + e))
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.factor()
            if op == "/":
                if rhs.total_degree() > 0:
                    raise PolyParseError("division only by rational constants")
                if not rhs.terms:
                    raise PolyParseError("division by zero")
                (c,) = rhs.terms.values()
                rhs = Poly.const(1 / c, self.nvars)
            _check_degree("degree", node.total_degree() + rhs.total_degree())
            _check_terms(len(node.terms) * len(rhs.terms))
            (n, d), (m, e) = _height(node), _height(rhs)
            shorter = min(len(node.terms), len(rhs.terms))
            _check_bits(max(n + m + (shorter - 1).bit_length(), d + e))
            node = node * rhs
        return node

    def factor(self):
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            return -self.nested(self.factor)
        if tok == ("op", "+"):
            self.take()
            return self.nested(self.factor)
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer")
            digits = text.lstrip("0") or "0"
            if (n := len(digits)) > len(str(MAX_DEGREE)):
                raise PolyParseError(f"exponent of {n} digits exceeds the cap of {MAX_DEGREE}")
            exponent = int(digits)
            _check_degree("exponent", exponent)
            _check_degree("degree", node.total_degree() * exponent)
            _check_terms(comb(max(len(node.terms), 1) + exponent - 1, exponent))
            n, d = _height(node)
            _check_bits(exponent * max(n + (len(node.terms) - 1).bit_length(), d))
            node = node ** exponent
        return node

    def atom(self):
        kind, text = self.take()
        if kind == "int":
            digits = text.lstrip("0") or "0"
            _check_bits(len(digits) * 10 // 3 + 1)  # 10^digits < 2^(digits * 10/3)
            return Poly.const(int(digits), self.nvars)
        if kind == "name":
            if text not in self.index:
                raise PolyParseError(f"unknown variable {text!r}")
            return Poly.var(self.index[text], self.nvars)
        if (kind, text) == ("op", "("):
            node = self.nested(self.expr)
            if self.take() != ("op", ")"):
                raise PolyParseError("missing closing parenthesis")
            return node
        raise PolyParseError(f"unexpected token {text!r}")


def check_variable_names(names):
    """Raise PolyParseError naming the first name that the tokenizer does
    not read as one name token, since no coordinate could mention it."""
    for name in names:
        try:
            tokens = _tokenize(name)
        except PolyParseError:
            tokens = None
        if tokens != [("name", name), ("end", "")]:
            raise PolyParseError(
                f"variable {name!r} is not a name: a letter or _, then letters, digits or _"
            )


def parse_poly(text, variables):
    """Parse a polynomial in the named variables."""
    parser = _Parser(_tokenize(text), list(variables))
    node = parser.expr()
    if parser.peek()[0] != "end":
        raise PolyParseError(f"trailing input {parser.peek()[1]!r}")
    return node
