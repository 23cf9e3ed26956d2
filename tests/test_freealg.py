"""Words, coefficients, polynomials, parsing: the ground layer."""

import random
import time
from fractions import Fraction

import pytest

from ncrewrite import (
    QQ, Occurrence, ParseError, Poly, PrimeField, RationalField,
    count_occurrences, iter_words, occurrences, parse_poly, parse_word,
    print_poly, print_word, word_indices,
)

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
