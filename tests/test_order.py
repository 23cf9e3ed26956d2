"""Termination certificates: deglex orders and occurrence measures."""

import random

import pytest

from ncrewrite import (
    QQ, DeglexOrder, MeasureCertificate, Poly, Rule, System,
    certify_deglex, certify_measure, iter_words,
)
from ncrewrite.order import DeglexWitness, MeasureWitness

from conftest import (
    convergent_xyz_system, nonconvergent_xcubed_system, xcubed_deglex,
    xyz_measure,
)


def random_order(rng, ngen):
    weights = tuple(rng.randrange(1, 4) for _ in range(ngen))
    precedence = list(range(ngen))
    rng.shuffle(precedence)
    return DeglexOrder(ngen, weights=weights, precedence=tuple(precedence))


def random_word(rng, ngen, maxlen):
    return "".join(chr(rng.randrange(ngen))
                   for _ in range(rng.randrange(maxlen + 1)))


# -- deglex -----------------------------------------------------------------

def test_deglex_constructor_validation():
    with pytest.raises(ValueError):
        DeglexOrder(2, weights=(1,))
    with pytest.raises(ValueError):
        DeglexOrder(2, weights=(0, 1))
    with pytest.raises(ValueError):
        DeglexOrder(2, weights=(1, -1))
    with pytest.raises(ValueError):
        DeglexOrder(3, precedence=(0, 1))
    with pytest.raises(ValueError):
        DeglexOrder(3, precedence=(0, 1, 1))


def test_deglex_is_a_total_order():
    rng = random.Random(10)
    for _ in range(30):
        order = random_order(rng, 3)
        words = {random_word(rng, 3, 4) for _ in range(12)}
        for u in words:
            for v in words:
                c = order.compare(u, v)
                assert c == -order.compare(v, u)
                assert (c == 0) == (u == v)
        # transitivity via the sort key
        ranked = sorted(words, key=order.sort_key)
        for a, b in zip(ranked, ranked[1:]):
            assert order.compare(a, b) == -1 or a == b


def test_deglex_key_sorts_as_the_rank_tuple_key():
    rng = random.Random(11)
    for trial in range(60):
        ngen = rng.choice([1, 2, 3, 4])
        order = random_order(rng, ngen) if trial % 3 else DeglexOrder(ngen)
        weights, rank = order.weights, [order.precedence.index(i) for i in range(ngen)]

        def tuple_key(w):
            return (sum(weights[ord(a)] for a in w), tuple(rank[ord(a)] for a in w))

        words = list({random_word(rng, ngen, 7) for _ in range(80)})
        rng.shuffle(words)
        assert sorted(words, key=order.sort_key) == sorted(words, key=tuple_key)
        for u, v in zip(words, words[1:]):
            assert ((order.sort_key(u) < order.sort_key(v))
                    == (tuple_key(u) < tuple_key(v)))


def test_deglex_respects_concatenation():
    rng = random.Random(11)
    for _ in range(200):
        order = random_order(rng, 3)
        u, v = random_word(rng, 3, 4), random_word(rng, 3, 4)
        if order.compare(u, v) != -1:
            continue
        a, b = random_word(rng, 3, 3), random_word(rng, 3, 3)
        assert order.compare(a + u + b, a + v + b) == -1


def test_deglex_weight_beats_length():
    order = DeglexOrder(2, weights=(3, 1))
    # x outweighs y^2 even though it is shorter
    assert order.compare("\x00", "\x01\x01") == 1
    assert order.compare("\x01", "\x00") == -1


def test_default_precedence_makes_generator_zero_smallest():
    order = DeglexOrder(2)
    assert order.compare("\x00\x01", "\x01\x00") == -1


def test_certify_deglex_frozen_examples():
    # xyz -> x^3 under z < y < x: x^3 is the larger word, so this fails
    r = certify_deglex(convergent_xyz_system(), xcubed_deglex())
    assert not r.certified
    assert r.verdict == "Failed"
    assert r.witnesses == (
        DeglexWitness(0, "\x00\x01\x02", "\x00\x00\x00"),)

    # x^3 -> xyz - y^3 - z^3 is certified by the same order ...
    r2 = certify_deglex(nonconvergent_xcubed_system(), xcubed_deglex())
    assert r2.certified and r2.verdict == "Certified"
    assert r2.witnesses == ()

    # ... and fails under the identity precedence, once per rhs word
    r3 = certify_deglex(nonconvergent_xcubed_system(), DeglexOrder(3))
    assert not r3.certified
    assert {w.word for w in r3.witnesses} == {
        "\x00\x01\x02", "\x01\x01\x01", "\x02\x02\x02"}


def test_certify_deglex_weighted_example():
    s = System(("x", "y"), (Rule("\x00", Poly.term(QQ, "\x01\x01")),), QQ)
    assert certify_deglex(s, DeglexOrder(2, weights=(3, 1))).certified
    assert not certify_deglex(s, DeglexOrder(2)).certified


def test_certify_deglex_generator_count_mismatch():
    with pytest.raises(ValueError):
        certify_deglex(convergent_xyz_system(), DeglexOrder(2))


# -- occurrence measures ----------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        MeasureCertificate({"": 1})
    with pytest.raises(ValueError):
        MeasureCertificate({"\x00": -1})
    with pytest.raises(ValueError):
        MeasureCertificate({"\x00": 1.5})


def test_measure_phi_values():
    m = xyz_measure()
    assert m.max_pattern_length == 3
    assert m.phi("\x00\x01\x02") == 4      # one xyz plus one y
    assert m.phi("\x00\x00\x00") == 0
    assert certify_measure(convergent_xyz_system(), m).certified


def test_certify_measure_failure_witness():
    s = System.from_strings(("x", "y"), [("x*y", "y*x")], QQ)
    r = certify_measure(s, MeasureCertificate({"\x00\x01": 1}))
    assert not r.certified
    # first failing context, scanning shortest first: a = '', b = 'y',
    # where xyy and yxy both contain one xy
    assert r.witnesses == (
        MeasureWitness(0, "\x01\x00", "", "\x01", 1, 1),)


def brute_force_measure(system, cert, bound):
    contexts = list(iter_words(len(system.alphabet), bound))
    for rule in system.rules:
        for w in rule.rhs.terms:
            for a in contexts:
                for b in contexts:
                    if cert.phi(a + w + b) >= cert.phi(a + rule.lhs + b):
                        return False
    return True


def test_certify_measure_matches_wider_contexts():
    # the bounded context sweep must agree with a strictly wider one
    rng = random.Random(12)
    agree_on = 0
    for _ in range(60):
        ngen = rng.choice([1, 2])
        lhs = random_word(rng, ngen, 3) or "\x00"
        nterms = rng.randrange(3)
        rhs = Poly(QQ, {random_word(rng, ngen, len(lhs)): QQ.one
                        for _ in range(nterms)})
        if lhs in rhs.terms:
            continue
        s = System(("x", "y")[:ngen], (Rule(lhs, rhs),), QQ)
        cert = MeasureCertificate(
            {(random_word(rng, ngen, 2) or "\x00"): rng.randrange(3)
             for _ in range(rng.randrange(1, 4))})
        verdict = certify_measure(s, cert).certified
        assert verdict == brute_force_measure(
            s, cert, cert.max_pattern_length + 1)
        agree_on += 1
    assert agree_on > 30
