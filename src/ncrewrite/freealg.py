"""Exact arithmetic in free associative algebras over Q and F_p.

A *word* is an element of the free monoid on an alphabet of generators.
Internally a word is a Python string whose code points are generator
indices (generator ``i`` is stored as ``chr(i)``), so substring search,
slicing and lexicographic comparison all agree with the index-sequence
semantics while running at C speed.  Generator *names* exist only at the
parse/print boundary.

A *polynomial* (:class:`Poly`) is a finite map from words to nonzero
coefficients of a fixed coefficient field, either the rationals
(:data:`QQ`, coefficients are ``int`` when integral, otherwise
``Fraction``) or a prime field (:class:`PrimeField`, coefficients are
ints in ``range(p)``).  The empty word is a legal monomial and plays the
role of the algebra unit, so constant terms are fine.  Zero coefficients
are never stored; two equal polynomials always hold identical term maps.

>>> p = parse_poly("x*y - y*x", ["x", "y"], QQ)
>>> print_poly(p + p, ["x", "y"])
'-2*y*x + 2*x*y'
>>> parse_poly("2*x - 2*x", ["x"], QQ).is_zero()
True
"""

import re
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "QQ", "RationalField", "PrimeField", "ParseError",
    "MAX_WORD_LENGTH", "Occurrence", "occurrences", "count_occurrences",
    "word_indices", "iter_words", "print_order_key", "Poly",
    "parse_poly", "parse_word", "print_poly", "print_terms", "print_word",
]


class ParseError(ValueError):
    """Raised for malformed polynomial text or invalid coefficients."""


# ---------------------------------------------------------------------------
# coefficient fields

class RationalField:
    """The rationals.  Coefficients are ``int`` when integral, otherwise
    ``fractions.Fraction``; the two mix exactly, and equal values compare
    and hash equal and print alike."""

    __slots__ = ()
    name = "Q"
    zero = 0
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def invert(self, a):
        if not a:
            raise ZeroDivisionError("inverting 0 in Q")
        return 1 / Fraction(a)

    def from_fraction(self, q):
        if type(q) is int:
            return q
        q = Fraction(q)
        return q.numerator if q.denominator == 1 else q

    def format_coeff(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# Miller-Rabin with the first thirteen primes as bases is exact below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster 2017); larger moduli are refused.  Bases up to 37 alone are
# fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981

# The parser refuses a monomial of more letters than this, counting
# exponents: "x^N" is a few characters of text but N letters of memory.
# An exponent past it is refused before its letters are built, so a
# monomial never holds more than this many letters per factor.
MAX_WORD_LENGTH = 1000


def _is_prime(n):
    """Deterministic primality for 0 <= n < MAX_MODULUS."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Integers modulo a prime p.  Coefficients are ints in ``range(p)``.

    The modulus must be below :data:`MAX_MODULUS`, where primality is
    decided exactly.
    """

    __slots__ = ("p",)

    def __init__(self, p):
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus {p} is too large: primality is decided "
                             f"exactly only below {MAX_MODULUS}")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def name(self):
        return f"F{self.p}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverting 0 in F{self.p}")
        return pow(a, -1, self.p)

    def from_fraction(self, q):
        if type(q) is int:
            return q % self.p
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ParseError(
                f"coefficient {q} has no meaning in F{self.p}:"
                f" denominator {q.denominator} is not invertible")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def format_coeff(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# words

def word_indices(word):
    """The tuple of generator indices of a word."""
    return tuple(map(ord, word))


def print_order_key(word):
    # canonical display order: degree first, then lexicographic by index.
    return (len(word), word)


def iter_words(n_generators, max_length):
    """All words on n_generators letters of length <= max_length.

    Yields in display order, ascending: the empty word first, then by
    length, within a length lexicographically by index.
    """
    letters = [chr(i) for i in range(n_generators)]
    frontier = [""]
    yield ""
    for _ in range(max_length):
        frontier = [w + a for w in frontier for a in letters]
        yield from frontier


class Occurrence(NamedTuple):
    """One occurrence of a pattern inside a host word: host = prefix+pattern+suffix."""

    prefix: str
    pattern: str
    suffix: str

    @property
    def host(self):
        return self.prefix + self.pattern + self.suffix

    @property
    def start(self):
        return len(self.prefix)


def occurrences(pattern, host):
    """All occurrences of pattern in host, shortest prefix first.

    Overlapping occurrences count separately; the empty pattern is
    rejected (it would occur everywhere and means a malformed input).

    >>> [o.start for o in occurrences("aa", "aaaa")]
    [0, 1, 2]
    """
    if not pattern:
        raise ValueError("empty pattern has no well-defined occurrences")
    found = []
    i = host.find(pattern)
    while i != -1:
        found.append(Occurrence(host[:i], pattern, host[i + len(pattern):]))
        i = host.find(pattern, i + 1)
    return found


def count_occurrences(pattern, host):
    """len(occurrences(pattern, host)) without building the list."""
    if not pattern:
        raise ValueError("empty pattern has no well-defined occurrences")
    n = 0
    i = host.find(pattern)
    while i != -1:
        n += 1
        i = host.find(pattern, i + 1)
    return n


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """An element of the free associative algebra over a fixed field.

    Stored as a dict word -> coefficient with no zero values.  Instances
    are treated as immutable; all operations build new objects.
    """

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        self.field = field
        self.terms = {w: c for w, c in items if c}
        self._hash = None

    @staticmethod
    def _raw(field, term_dict):
        # fast path for internal callers that guarantee canonical input
        p = object.__new__(Poly)
        p.field = field
        p.terms = term_dict
        p._hash = None
        return p

    @classmethod
    def zero(cls, field):
        return cls._raw(field, {})

    @classmethod
    def term(cls, field, word, coeff=None):
        if coeff is None:
            coeff = field.one
        return cls._raw(field, {word: coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def support(self):
        """The set of words with nonzero coefficient."""
        return set(self.terms)

    def coeff(self, word):
        return self.terms.get(word, self.field.zero)

    def _check_field(self, other):
        if self.field != other.field:
            raise ValueError(
                f"mixed coefficient fields: {self.field!r} vs {other.field!r}")

    def __add__(self, other):
        self._check_field(other)
        add = self.field.add
        merged = dict(self.terms)
        for w, c in other.terms.items():
            s = add(merged.get(w, self.field.zero), c)
            if s:
                merged[w] = s
            elif w in merged:
                del merged[w]
        return Poly._raw(self.field, merged)

    def __neg__(self):
        neg = self.field.neg
        return Poly._raw(self.field, {w: neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return Poly.zero(self.field)
        mul = self.field.mul
        return Poly._raw(self.field, {w: mul(c, v) for w, v in self.terms.items()})

    def sandwich(self, left, right):
        """left * self * right for words left, right."""
        return Poly._raw(
            self.field, {left + w + right: c for w, c in self.terms.items()})

    def __mul__(self, other):
        self._check_field(other)
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        out = {}
        for u, c in self.terms.items():
            for v, d in other.terms.items():
                w = u + v
                s = add(out.get(w, zero), mul(c, d))
                if s:
                    out[w] = s
                elif w in out:
                    del out[w]
        return Poly._raw(self.field, out)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self):
        """Term list in display order (largest first)."""
        # by print_order_key: a stable sort by length after a sort by word
        words = sorted(sorted(self.terms, reverse=True), key=len, reverse=True)
        return [(w, self.terms[w]) for w in words]

    def __repr__(self):
        body = ", ".join(f"{w!r}: {c}" for w, c in self.sorted_terms())
        return f"Poly<{self.field.name}>({{{body}}})"


# ---------------------------------------------------------------------------
# text format
#
#   poly   := sign? term (sign term)*          sign: '+' | '-'
#   term   := coeff ('*' factors)? | factors
#   factors:= factor ('*' factor)*
#   factor := NAME ('^' posint)?
#   coeff  := int ('/' posint)?
#
# A bare coeff term is a constant (coefficient times the empty word).

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[-+*/^]|\S")
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_OPS = frozenset("+-*/^")
_SIGNS = ("+", "-")


def _position(text, i):
    # character offset of token i; only error messages need it
    return [m.start() for m in _TOKEN_RE.finditer(text)][i]


def parse_poly(text, names, field):
    """Parse polynomial text over the given generator names and field.

    A refusal names the first offending token, but an unexpected
    character anywhere is reported before any other mistake.

    >>> parse_poly("x^3 + 1/2*y", ["x", "y"], QQ).coeff(chr(1))
    Fraction(1, 2)
    """
    if not text.strip():
        raise ParseError("empty input")
    tokens = _TOKEN_RE.findall(text)
    try:
        return _parse_tokens(text, tokens + [None, None], names, field)
    except ValueError:
        for i, tok in enumerate(tokens):
            if not (tok.isdecimal() or tok in _OPS or NAME_RE.match(tok)):
                raise ParseError(f"unexpected character {tok!r} at position "
                                 f"{_position(text, i)}") from None
        raise


def _int_at(tokens, i):
    if tokens[i] is None or not tokens[i].isdecimal():
        raise ParseError(f"expected int, got {tokens[i]!r}")
    return int(tokens[i])


def _parse_tokens(text, tokens, names, field):
    # tokens ends in two Nones, so looking one or two tokens ahead is safe
    letter_of = {n: chr(i) for i, n in enumerate(names) if NAME_RE.match(n)}
    from_fraction, add = field.from_fraction, field.add
    out = {}
    i, sign = (1, -1 if tokens[0] == "-" else 1) if tokens[0] in _SIGNS else (0, 1)
    while True:
        q, word, tok = sign, None, tokens[i]
        if tok is not None and tok.isdecimal():
            q *= int(tok)
            if tokens[i + 1] == "/":
                den = _int_at(tokens, i + 2)
                if not den:
                    raise ParseError("zero denominator")
                q, i = Fraction(q, den), i + 2
            i += 1
            if tokens[i] == "*":
                i += 1
            else:
                word = ""           # a bare constant
        if word is None:
            start, letters = i, []
            while True:
                tok = tokens[i]
                letter = letter_of.get(tok)
                if letter is None:
                    if tok is None:
                        raise ParseError("expected token, got None")
                    if NAME_RE.match(tok):
                        raise ParseError(f"unknown generator {tok!r}")
                    raise ParseError(f"expected generator name at position "
                                     f"{_position(text, i)}, got {tok!r}")
                if tokens[i + 1] == "^":
                    k = _int_at(tokens, i + 2)
                    if k < 1:
                        raise ParseError(f"exponent must be a positive integer, got {k}")
                    if k > MAX_WORD_LENGTH:
                        raise ParseError(f"exponent {k} at position {_position(text, i + 2)} "
                                         f"is more than MAX_WORD_LENGTH = {MAX_WORD_LENGTH}")
                    letter, i = letter * k, i + 2
                letters.append(letter)
                i += 1
                if tokens[i] != "*":
                    break
                i += 1
            word = "".join(letters)
            if len(word) > MAX_WORD_LENGTH:
                raise ParseError(f"monomial at position {_position(text, start)} has "
                                 f"{len(word)} letters, more than MAX_WORD_LENGTH = "
                                 f"{MAX_WORD_LENGTH}")
        c = from_fraction(q)
        s = c if word not in out else add(out[word], c)
        if s:
            out[word] = s
        elif word in out:
            del out[word]
        tok = tokens[i]
        if tok is None:
            return Poly._raw(field, out)
        if tok not in _SIGNS:
            if tok in _OPS:
                raise ParseError(f"expected '+' or '-' at position "
                                 f"{_position(text, i)}, got {tok!r}")
            raise ParseError(f"expected op, got {tok!r}")
        sign = -1 if tok == "-" else 1
        i += 1


def parse_word(text, names):
    """Parse text that must denote a single monomial with coefficient 1."""
    p = parse_poly(text, names, QQ)
    if len(p.terms) != 1:
        raise ParseError(f"expected a single word, got {len(p.terms)} terms: {text!r}")
    (w, c), = p.terms.items()
    if c != QQ.one:
        raise ParseError(f"expected coefficient 1 on a word, got {c}: {text!r}")
    return w


def print_word(word, names):
    """Display a word; runs of a generator collapse to powers.  ε prints as '1'."""
    if not word:
        return "1"
    parts = []
    i, n = 0, len(word)
    while i < n:
        a = word[i]
        j = i + 1
        while j < n and word[j] == a:
            j += 1
        name = names[ord(a)]
        parts.append(name if j == i + 1 else f"{name}^{j - i}")
        i = j
    return "*".join(parts)


def print_poly(poly, names):
    """Deterministic display: terms in degree-lex order by index, largest first.

    Round-trips: parse_poly(print_poly(p, names), names, p.field) == p.
    """
    return print_terms(poly.field, poly.sorted_terms(),
                       lambda w: print_word(w, names))


def print_terms(field, items, print_monomial):
    """Signed sum of (monomial, coefficient) items, listed in display order.

    Over Q a negative coefficient becomes a minus sign; a coefficient 1
    is left out, and an empty monomial prints as its coefficient.
    """
    if not items:
        return "0"
    rational = isinstance(field, RationalField)
    pieces = []
    for m, c in items:
        negative = rational and c < 0
        mag = -c if negative else c
        if not m:
            body = field.format_coeff(mag)
        elif mag == field.one:
            body = print_monomial(m)
        else:
            body = field.format_coeff(mag) + "*" + print_monomial(m)
        pieces.append((" - " if negative else " + ") + body)
    text = "".join(pieces)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]
