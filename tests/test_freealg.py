"""Words, coefficients, polynomials, parsing: the ground layer."""

import random
import re
import time
from fractions import Fraction

import pytest

from ncrewrite import (
    QQ, Occurrence, ParseError, Poly, PrimeField, RationalField,
    count_occurrences, iter_words, occurrences, parse_poly, parse_word,
    print_poly, print_word, word_indices,
)
from ncrewrite.freealg import MAX_WORD_LENGTH

NAMES = ("x", "y", "z")


def random_word(rng, ngen, maxlen):
    return "".join(chr(rng.randrange(ngen))
                   for _ in range(rng.randrange(maxlen + 1)))


def random_poly(rng, field, ngen=2, maxlen=4, nterms=4):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        c = field.from_fraction(Fraction(rng.randrange(-3, 4)))
        terms[random_word(rng, ngen, maxlen)] = c
    return Poly(field, {w: c for w, c in terms.items() if c != field.zero})


# -- fields -----------------------------------------------------------------

def test_prime_field_matches_int_arithmetic():
    rng = random.Random(1)
    for p in (2, 5, 97):
        f = PrimeField(p)
        for _ in range(200):
            a, b = rng.randrange(p), rng.randrange(p)
            assert f.add(a, b) == (a + b) % p
            assert f.sub(a, b) == (a - b) % p
            assert f.mul(a, b) == (a * b) % p
            if a:
                assert f.mul(a, f.invert(a)) == 1


def test_prime_field_rejects_composite_modulus():
    for n in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_prime_field_large_moduli():
    start = time.perf_counter()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0
    for n in ((2 ** 31 - 1) * 1073741827,           # composite of the same size
              318665857834031151167461):            # fools Miller-Rabin bases 2..37
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2 ** 89 - 1)


def test_prime_field_invert_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).invert(0)


def test_rational_field_is_fraction_arithmetic():
    f = RationalField()
    a, b = Fraction(3, 4), Fraction(-2, 7)
    assert f.add(a, b) == a + b
    assert f.mul(a, b) == a * b
    assert f.invert(b) == 1 / b
    assert f.from_fraction("3/4") == Fraction(3, 4)
    assert QQ == RationalField()


def test_from_fraction_mod_p():
    f = PrimeField(5)
    assert f.from_fraction(Fraction(1, 3)) == 2  # 3*2 = 6 = 1 mod 5
    with pytest.raises(ParseError):
        PrimeField(3).from_fraction(Fraction(1, 3))


# -- words ------------------------------------------------------------------

def test_iter_words_counts_and_order():
    ws = list(iter_words(3, 3))
    assert len(ws) == 1 + 3 + 9 + 27
    assert len(set(ws)) == len(ws)
    assert ws[0] == ""
    # display order: ascending length, then lexicographic by index
    assert ws == sorted(ws, key=lambda w: (len(w), w))
    assert sum(1 for _ in iter_words(2, 5)) == 63
    assert sum(1 for _ in iter_words(1, 4)) == 5


def test_word_indices_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        w = random_word(rng, 3, 6)
        assert "".join(map(chr, word_indices(w))) == w


def sliding_window(pattern, host):
    return [i for i in range(len(host) - len(pattern) + 1)
            if host[i:i + len(pattern)] == pattern]


def test_occurrences_against_sliding_window():
    rng = random.Random(3)
    for _ in range(300):
        pattern = random_word(rng, 2, 3) or "\x00"
        host = random_word(rng, 2, 8)
        occs = occurrences(pattern, host)
        starts = sliding_window(pattern, host)
        assert len(occs) == len(starts) == count_occurrences(pattern, host)
        for occ, i in zip(occs, starts):
            assert occ.pattern == pattern
            assert len(occ.prefix) == i
            assert occ.prefix + occ.pattern + occ.suffix == host


def test_occurrences_overlapping_pattern():
    occs = occurrences("\x00\x00", "\x00\x00\x00\x00")
    assert [len(o.prefix) for o in occs] == [0, 1, 2]
    assert occs[1] == Occurrence("\x00", "\x00\x00", "\x00")


# -- polynomials ------------------------------------------------------------

def test_poly_drops_zero_coefficients():
    p = Poly(QQ, {"\x00": Fraction(0), "\x01": Fraction(2)})
    assert "\x00" not in p.terms
    assert parse_poly("x - x", NAMES, QQ).is_zero()
    assert not Poly.zero(QQ)


def test_poly_module_axioms():
    rng = random.Random(4)
    for field in (QQ, PrimeField(5)):
        for _ in range(100):
            p = random_poly(rng, field)
            q = random_poly(rng, field)
            r = random_poly(rng, field)
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p + Poly.zero(field) == p
            c = field.from_fraction(Fraction(rng.randrange(-2, 3)))
            assert (p + q).scale(c) == p.scale(c) + q.scale(c)


def test_sandwich_is_linear_and_concatenates():
    rng = random.Random(5)
    for _ in range(100):
        p = random_poly(rng, QQ)
        q = random_poly(rng, QQ)
        a, b = random_word(rng, 2, 3), random_word(rng, 2, 3)
        left = (p + q).sandwich(a, b)
        right = p.sandwich(a, b) + q.sandwich(a, b)
        assert left == right
        for w, c in p.sandwich(a, b).terms.items():
            assert w.startswith(a) and w.endswith(b or "")


def test_sandwich_example():
    p = parse_poly("x*y - y*x", NAMES, QQ)
    q = p.sandwich("\x00", "\x01")
    assert print_poly(q, NAMES) == "-x*y*x*y + x^2*y^2"


# -- parsing and printing ---------------------------------------------------

def test_parse_collects_and_orders():
    p = parse_poly("2*x*y - 3/2*z^2 + 1*x*y", NAMES, QQ)
    assert print_poly(p, NAMES) == "-3/2*z^2 + 3*x*y"
    assert print_poly(parse_poly("x^2*y + y*x^2", NAMES, QQ),
                      NAMES) == "y*x^2 + x^2*y"
    assert print_poly(Poly.zero(QQ), NAMES) == "0"
    assert print_word(parse_word("x*y^3*z", NAMES), NAMES) == "x*y^3*z"


def test_parse_print_round_trip():
    rng = random.Random(6)
    for field in (QQ, PrimeField(7)):
        for _ in range(200):
            p = random_poly(rng, field, ngen=3)
            assert parse_poly(print_poly(p, NAMES), NAMES, field) == p


def test_parse_errors():
    for bad in ["", "x +", "w", "x^0", "2x", "x*/y", "x^-1", "(x"]:
        with pytest.raises(ParseError):
            parse_poly(bad, NAMES, QQ)
    with pytest.raises(ParseError):
        parse_word("x + y", NAMES)
    with pytest.raises(ParseError):
        parse_word("0", NAMES)


def test_parse_mod_two_folds_coefficients():
    f2 = PrimeField(2)
    assert parse_poly("x + x", ("x",), f2).is_zero()
    assert print_poly(parse_poly("3*x", ("x",), f2), ("x",)) == "x"


# -- the parser against the two-pass reference -------------------------------
#
# The token-object parser that parse_poly replaced, kept as the reference
# for values and for the exact text of every refusal.

_REF_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*/^])|(?P<bad>\S)")


def reference_tokenize(text):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r} at position {m.start()}")
        tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens


class ReferenceParser:
    def __init__(self, text, names, field):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.index_of = {name: i for i, name in enumerate(names)}
        self.field = field

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, -1)

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None or (kind is not None and tok[0] != kind):
            raise ParseError(f"expected {kind or 'token'}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        pairs = []
        sign = 1
        if self.peek()[:2] in (("op", "+"), ("op", "-")):
            sign = -1 if self.take()[1] == "-" else 1
        pairs.append(self.term(sign))
        while self.pos < len(self.tokens):
            kind, val, at = self.take("op")
            if val not in "+-":
                raise ParseError(f"expected '+' or '-' at position {at}, got {val!r}")
            pairs.append(self.term(-1 if val == "-" else 1))
        out = {}
        for w, c in pairs:
            s = self.field.add(out.get(w, self.field.zero), c)
            if s:
                out[w] = s
            elif w in out:
                del out[w]
        return Poly(self.field, out)

    def term(self, sign):
        coeff = None
        if self.peek()[0] == "int":
            coeff = self.number()
            if self.peek()[:2] == ("op", "*"):
                self.take()
            else:
                return "", self.field.from_fraction(sign * coeff)
        start = self.pos
        word = [self.factor()]
        while self.peek()[:2] == ("op", "*"):
            self.take()
            word.append(self.factor())
        word = "".join(word)
        if len(word) > MAX_WORD_LENGTH:
            raise ParseError(f"monomial at position {self.tokens[start][2]} has "
                             f"{len(word)} letters, more than MAX_WORD_LENGTH = "
                             f"{MAX_WORD_LENGTH}")
        q = Fraction(sign) if coeff is None else sign * coeff
        return word, self.field.from_fraction(q)

    def number(self):
        num = int(self.take("int")[1])
        if self.peek()[:2] == ("op", "/"):
            self.take()
            den = int(self.take("int")[1])
            if den == 0:
                raise ParseError("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def factor(self):
        kind, name, at = self.take()
        if kind != "name":
            raise ParseError(f"expected generator name at position {at}, got {name!r}")
        if name not in self.index_of:
            raise ParseError(f"unknown generator {name!r}")
        letter = chr(self.index_of[name])
        if self.peek()[:2] == ("op", "^"):
            self.take()
            exp_tok = self.take("int")
            exp = int(exp_tok[1])
            if exp < 1:
                raise ParseError(f"exponent must be a positive integer, got {exp}")
            if exp > MAX_WORD_LENGTH:
                raise ParseError(f"exponent {exp} at position {exp_tok[2]} is more "
                                 f"than MAX_WORD_LENGTH = {MAX_WORD_LENGTH}")
            return letter * exp
        return letter


def reference_parse_poly(text, names, field):
    if not text.strip():
        raise ParseError("empty input")
    return ReferenceParser(text, names, field).parse()


def random_poly_text(rng, names):
    """Valid text: spacing, leading signs, a/b and bare constants, powers,
    and monomials that repeat, some of them cancelling."""
    def space():
        return rng.choice(["", "", " ", "  ", "\t"])

    def coeff():
        num = rng.choice([0, 1, 2, 3, 7, 10, 101, 202, 12345678901234567890])
        return str(num) if rng.random() < 0.6 else f"{num}/{rng.choice([1, 2, 3, 101, 4])}"

    def monomial():
        return (space() + "*" + space()).join(
            rng.choice(names) + (f"^{rng.randint(1, 4)}" if rng.random() < 0.3 else "")
            for _ in range(rng.randint(1, 4)))

    terms = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            terms.append(coeff())
        elif kind == 1:
            terms.append(coeff() + space() + "*" + space() + monomial())
        else:
            terms.append(monomial())
        if rng.random() < 0.25:
            terms.append(terms[-1])             # repeat it; the sign decides
    text = space() + rng.choice(["", "", "-", "+"]) + space() + terms[0]
    for t in terms[1:]:
        text += space() + rng.choice("+-") + space() + t
    return text + space()


MALFORMED = ["é", "x +", "+", "-", "w", "x^0", "x^y", "2x", "x*/y", "x^-1", "(x",
             "1/0*x", "3/", "3/x", "x^2^3", "x**y", "2/3/4", "x y", "--x", "1 2",
             f"x^{MAX_WORD_LENGTH + 1}", "*".join(["y"] * (MAX_WORD_LENGTH + 1)),
             "x^600*y^401", "", "   ", "1/101*x", "1/2*w", "1/2*x + é"]


def corrupt(rng, text):
    bad = rng.choice(MALFORMED)
    kind = rng.randrange(4)
    if kind == 0:
        return bad
    if kind == 1:
        i = rng.randrange(len(text) + 1)
        return text[:i] + bad + text[i:]
    if kind == 2:
        return text[:rng.randrange(len(text) + 1)]
    return text + rng.choice(["", " + ", " - ", " * ", "^", "/"]) + bad


def outcome(parse, text, names, field):
    try:
        return parse(text, names, field)
    except ParseError as e:
        return f"ParseError: {e}"


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)],
                         ids=["Q", "F2", "F101"])
def test_parser_matches_the_reference(field):
    rng = random.Random(f"parser:{field.name}")
    refused = 0
    for names in (NAMES, ("x", "y_2", "1"), ("a",)):
        for _ in range(400):
            text = random_poly_text(rng, [n for n in names if n != "1"])
            want = outcome(reference_parse_poly, text, names, field)
            assert outcome(parse_poly, text, names, field) == want, text
            bad = corrupt(rng, text)
            want = outcome(reference_parse_poly, bad, names, field)
            refused += isinstance(want, str)
            assert outcome(parse_poly, bad, names, field) == want, bad
    assert refused > 600
    for bad in MALFORMED:
        assert (outcome(parse_poly, bad, NAMES, field)
                == outcome(reference_parse_poly, bad, NAMES, field)), bad


def test_integral_rationals_are_ints():
    p = parse_poly("2*x - 4/2*y + 3 + 1/2*z + x*y", NAMES, QQ)
    by_word = {print_word(w, NAMES): c for w, c in p.terms.items()}
    assert {k: type(c) for k, c in by_word.items()} == {
        "x": int, "y": int, "1": int, "z": Fraction, "x*y": int}
    assert by_word["z"] == Fraction(1, 2) and by_word["y"] == -2
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.from_fraction(Fraction(6, 3)) == 2
    assert type(QQ.from_fraction(Fraction(6, 3))) is int
    rng = random.Random(7)
    for _ in range(200):
        p = parse_poly(random_poly_text(rng, list(NAMES)), NAMES, QQ)
        for c in p.terms.values():
            assert type(c) in (int, Fraction)
        assert parse_poly(print_poly(p, NAMES), NAMES, QQ) == p
        as_fractions = Poly(QQ, {w: Fraction(c) for w, c in p.terms.items()})
        assert as_fractions == p and hash(as_fractions) == hash(p)
        assert print_poly(as_fractions, NAMES) == print_poly(p, NAMES)
