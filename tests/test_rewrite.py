"""Reductions, normal forms, and the exhaustive reduction-graph oracle."""

import random
from fractions import Fraction

import pytest

from ncrewrite import (
    QQ, DeglexOrder, FuseExceeded, MeasureCertificate, Occurrence, Poly,
    PrimeField, ReductionError, Rule, System, TraceStep, basic_reduction,
    certify_measure, distinct_normal_forms, irreducible_words, is_irreducible,
    iter_words, linear_uniqueness_oracle, normal_form, oracle_sweep,
    parse_poly, print_poly, reduction_graph_oracle,
)

from ncrewrite.rewrite import _likely_witnesses

from conftest import (
    F2, convergent_xyz_system, nonconvergent_xcubed_system, random_f2_system,
    xcubed_deglex, xyz_measure,
)

NAMES = ("x", "y", "z")
X4 = "\x00\x00\x00\x00"


# -- construction -----------------------------------------------------------

def test_rule_validation():
    with pytest.raises(ValueError):
        Rule("", Poly.zero(QQ))
    with pytest.raises(ValueError):
        Rule("\x00", Poly.term(QQ, "\x00"))  # lhs inside its own rhs


def test_system_validation():
    r = Rule("\x00\x01", Poly.zero(QQ))
    with pytest.raises(ValueError):
        System(("x", "x"), (r,), QQ)
    with pytest.raises(ValueError):
        System(("x", "not a name!"), (r,), QQ)
    with pytest.raises(ValueError):
        System(("x", "y"), (r, Rule("\x00\x01", Poly.zero(QQ))), QQ)
    with pytest.raises(ValueError):
        System(("x", "y"), (Rule("\x00\x02", Poly.zero(QQ)),), QQ)
    with pytest.raises(ValueError):
        System(("x", "y"), (Rule("\x00\x01", Poly.zero(PrimeField(2))),), QQ)


def test_minimality_is_computed():
    assert System(("x",), (Rule("\x00\x00\x00", Poly.zero(QQ)),), QQ).minimal
    assert not System(("x",), (Rule("\x00", Poly.zero(QQ)),), QQ).minimal
    two = System(("x", "y"),
                 (Rule("\x00\x01", Poly.zero(QQ)),
                  Rule("\x00\x01\x01", Poly.zero(QQ))), QQ)
    assert not two.minimal  # xy divides xyy


# -- basic reduction and traces ---------------------------------------------

def test_basic_reduction_replaces_one_occurrence():
    s = nonconvergent_xcubed_system()
    g = Poly.term(QQ, X4)
    occ = Occurrence("", "\x00\x00\x00", "\x00")
    h = basic_reduction(g, s.rules[0], occ)
    assert print_poly(h, NAMES) == "-z^3*x - y^3*x + x*y*z*x"
    # absent host word: unchanged
    assert basic_reduction(h, s.rules[0], occ) == h
    with pytest.raises(ValueError):
        basic_reduction(g, s.rules[0], Occurrence("", "\x00\x00", "\x00\x00"))


def test_normal_form_frozen_example():
    s = nonconvergent_xcubed_system()
    nf, trace = normal_form(s, Poly.term(QQ, X4), xcubed_deglex())
    assert print_poly(nf, NAMES) == "-z^3*x - y^3*x + x*y*z*x"
    assert len(trace) == 1
    assert trace.verify(s)
    nf2, trace2 = normal_form(s, Poly.term(QQ, X4), xcubed_deglex())
    assert nf == nf2 and trace.steps == trace2.steps  # deterministic


def test_normal_form_with_measure_certificate():
    s = convergent_xyz_system()
    nf, trace = normal_form(s, Poly.term(QQ, "\x00\x01\x02\x02"), xyz_measure())
    assert print_poly(nf, NAMES) == "x^3*z"
    assert trace.verify(s)


def test_trace_witness_identity_randomized():
    rng = random.Random(20)
    checked = 0
    for _ in range(40):
        s = random_f2_system(rng)
        order = DeglexOrder(len(s.alphabet))
        w = "".join(chr(rng.randrange(len(s.alphabet)))
                    for _ in range(rng.randrange(4, 9)))
        nf, trace = normal_form(s, Poly.term(F2, w), order)
        assert is_irreducible(s, nf)
        assert trace.verify(s)
        checked += bool(trace.steps)
    assert checked > 10


def test_normal_form_step_fuse():
    s = nonconvergent_xcubed_system()
    with pytest.raises(FuseExceeded):
        normal_form(s, Poly.term(QQ, "\x00" * 10), xcubed_deglex(), max_steps=2)


def test_normal_form_rejects_nondecreasing_certificate():
    s = System.from_strings(("x", "y"), [("x*y", "y*x"), ("y*x", "x*y")], QQ)
    with pytest.raises(ReductionError):
        normal_form(s, Poly.term(QQ, "\x00\x01"), DeglexOrder(2))


def _rescan_normal_form(system, g, certificate):
    """Reference strategy: rescan every term and copy g on every step.

    Also counts the steps whose largest certificate key is shared by
    several reducible terms, and the words that cancel and come back.
    """
    lhss = system.lhs_words
    key = lambda m: (certificate.sort_key(m), len(m), m)
    steps, ties, returns, cancelled = [], 0, 0, set()
    while True:
        reducible = [m for m in g.terms if any(l in m for l in lhss)]
        if not reducible:
            return g, tuple(steps), ties, returns
        best = max(reducible, key=key)
        top = key(best)[0]
        ties += sum(certificate.sort_key(m) == top for m in reducible) > 1
        i, rule = next((i, r) for i, r in enumerate(system.rules) if r.lhs in best)
        at = best.find(rule.lhs)
        occ = Occurrence(best[:at], rule.lhs, best[at + len(rule.lhs):])
        steps.append(TraceStep(i, occ, g.terms[best]))
        h = basic_reduction(g, rule, occ)
        returns += len(cancelled & h.terms.keys())
        cancelled |= g.terms.keys() - h.terms.keys() - {best}
        g = h


def _random_reducing_system(rng, field, kind):
    """Up to three rules with multi-term rhs, certified by construction.

    Deglex draws a random weighted order and smaller rhs words.  Measure
    counts every lhs and one letter, and drops the rhs words (or rules)
    that its certification rejects.
    """
    ngen = rng.choice([2, 3])
    lhss = list(dict.fromkeys(
        "".join(chr(rng.randrange(ngen)) for _ in range(rng.choice([2, 3])))
        for _ in range(rng.choice([1, 2, 3]))))
    coeffs = [field.from_fraction(q) for q in (1, -1, 2, Fraction(-1, 2))]
    short = [w for w in iter_words(ngen, 3) if w not in lhss]
    if kind == "deglex":
        cert = DeglexOrder(ngen, [rng.choice([1, 1, 2]) for _ in range(ngen)],
                           rng.sample(range(ngen), ngen))
        short = [w for w in short if cert.sort_key(w) < min(map(cert.sort_key, lhss))]
    else:
        cert = MeasureCertificate({**{l: 2 for l in lhss}, chr(rng.randrange(ngen)): 1})
    rhs = {l: dict.fromkeys(rng.sample(short, min(len(short), rng.choice([2, 3, 4]))))
           for l in lhss}
    while True:
        rules = [Rule(l, Poly(field, {w: rng.choice(coeffs) for w in rhs[l]}))
                 for l in lhss if l in rhs]
        system = System(NAMES[:ngen], tuple(rules), field)
        witnesses = () if kind == "deglex" else certify_measure(system, cert).witnesses
        if not witnesses:
            return system, cert
        for wit in witnesses:
            del rhs[rules[wit.rule_index].lhs][wit.word]
        if not all(rhs.values()):
            del rhs[next(l for l, words in rhs.items() if not words)]


def test_normal_form_matches_the_rescan_strategy():
    rng = random.Random(24)
    ties = returns = multi = 0
    for trial in range(160):
        field = (QQ, PrimeField(101))[trial % 2]
        kind = ("deglex", "measure")[trial // 2 % 2]
        system, cert = _random_reducing_system(rng, field, kind)
        n = len(system.alphabet)
        coeffs = [field.from_fraction(q) for q in (1, -1, 3)]
        g = Poly(field, {"".join(chr(rng.randrange(n)) for _ in range(rng.randint(3, 6))):
                         rng.choice(coeffs) for _ in range(rng.randint(4, 12))})
        expected, steps, t, r = _rescan_normal_form(system, g, cert)
        nf, trace = normal_form(system, g, cert)
        assert nf == expected
        assert trace.steps == steps
        assert trace.verify(system)
        if steps:
            with pytest.raises(FuseExceeded):
                normal_form(system, g, cert, max_steps=len(steps) - 1)
        ties += t if kind == "measure" else 0
        returns += r
        multi += any(len(rule.rhs.terms) > 1 for rule in system.rules)
    assert ties > 50 and returns > 20 and multi > 100


# -- irreducible words ------------------------------------------------------

def test_irreducible_words_against_brute_filter():
    s = convergent_xyz_system()
    iw = irreducible_words(s, 3)
    assert len(iw) == 39
    assert iw == [w for w in iter_words(3, 3) if "\x00\x01\x02" not in w]


def test_irreducible_words_randomized():
    rng = random.Random(21)
    for _ in range(20):
        s = random_f2_system(rng)
        n = len(s.alphabet)
        assert irreducible_words(s, 4) == [
            w for w in iter_words(n, 4) if not s.contains_lhs(w)]


# -- the reduction-graph oracle ---------------------------------------------

def test_oracle_two_normal_forms_frozen():
    s = nonconvergent_xcubed_system()
    nfs = reduction_graph_oracle(s, X4)
    assert sorted(print_poly(p, NAMES) for p in nfs) == [
        "-x*z^3 - x*y^3 + x^2*y*z",
        "-z^3*x - y^3*x + x*y*z*x",
    ]


def test_oracle_singleton_on_convergent_input():
    s = convergent_xyz_system()
    for w in ["\x00\x01\x02", "\x00\x01\x02\x02", "\x00\x00\x01\x02"]:
        assert len(reduction_graph_oracle(s, w)) == 1


def test_oracle_state_fuse():
    s = nonconvergent_xcubed_system()
    with pytest.raises(FuseExceeded):
        reduction_graph_oracle(s, "\x00" * 6, max_states=5)


def test_oracle_detects_cycles():
    s = System.from_strings(("x", "y"), [("x*y", "y*x"), ("y*x", "x*y")], QQ)
    with pytest.raises(ReductionError):
        reduction_graph_oracle(s, "\x00\x01")


def test_oracle_sweep_finds_the_overlap_witness():
    uniq, wit, checked = oracle_sweep(nonconvergent_xcubed_system(), 6)
    assert (uniq, wit, checked) == (False, X4, 1)


def test_oracle_sweep_convergent_counts_every_word():
    uniq, wit, checked = oracle_sweep(convergent_xyz_system(), 6)
    assert uniq and wit is None
    assert checked == sum(3 ** k for k in range(7))


def test_distinct_normal_forms_is_a_subset_of_the_oracle():
    # screened on sweep witnesses, where nonuniqueness is guaranteed
    rng = random.Random(22)
    nonconv = screen_hits = 0
    for _ in range(30):
        s = random_f2_system(rng)
        maxlhs = max(len(w) for w in s.lhs_words)
        try:
            uniq, wit, _ = oracle_sweep(s, 2 * maxlhs, max_states=150_000)
        except FuseExceeded:
            continue
        if uniq:
            continue
        nonconv += 1
        found = distinct_normal_forms(s, wit, tries=16, rng=rng)
        full = reduction_graph_oracle(s, wit, max_states=150_000)
        assert found <= full
        screen_hits += len(found) > 1
    assert nonconv > 5
    assert screen_hits >= nonconv - 2  # randomized, but reliably effective


# -- the seed's Poly-keyed walk, kept as a reference ------------------------

def ref_reducts(system, g):
    outs, seen = [], set()
    for m in g.terms:
        for rule in system.rules:
            at = m.find(rule.lhs)
            while at != -1:
                h = basic_reduction(
                    g, rule, Occurrence(m[:at], rule.lhs, m[at + len(rule.lhs):]))
                if h not in seen:
                    seen.add(h)
                    outs.append(h)
                at = m.find(rule.lhs, at + 1)
    return outs


def ref_walk(system, word, max_states, memo, stop_at_two=False):
    start = Poly.term(system.field, word)
    if start in memo:
        return memo[start]
    in_progress, pending, stack = set(), {}, [(start, False)]
    while stack:
        g, expanded = stack.pop()
        if expanded:
            in_progress.discard(g)
            memo[g] = frozenset().union(*(memo[h] for h in pending.pop(g)))
            if stop_at_two and len(memo[g]) > 1:
                return memo[g]
            continue
        if g in memo:
            if stop_at_two and len(memo[g]) > 1:
                return memo[g]
            continue
        if g in in_progress:
            raise ReductionError("cycle")
        reducts = ref_reducts(system, g)
        if not reducts:
            memo[g] = frozenset([g])
            continue
        if len(memo) + len(in_progress) > max_states:
            raise FuseExceeded("budget")
        in_progress.add(g)
        pending[g] = reducts
        stack.append((g, True))
        stack.extend((h, False) for h in reducts if h not in memo)
    return memo[start]


def ref_screen(system, word, tries, rng):
    found = set()
    for _ in range(tries):
        g = Poly.term(system.field, word)
        while reducts := ref_reducts(system, g):
            g = reducts[rng.randrange(len(reducts))]
        found.add(g)
        if len(found) > 1:
            break
    return found


def ref_sweep(system, max_length, max_states, memo):
    rng = random.Random(0)
    priority = [w for w in _likely_witnesses(system) if len(w) <= max_length]
    for n, w in enumerate(priority, 1):
        if len(ref_screen(system, w, 4, rng)) > 1:
            return False, w, n
    checked, seen = 0, set()
    for w in priority + list(iter_words(len(system.alphabet), max_length)):
        if w in seen:
            continue
        seen.add(w)
        checked += 1
        if not system.contains_lhs(w):
            continue
        try:
            nonunique = len(ref_walk(system, w, max_states, memo, True)) > 1
        except FuseExceeded:
            if len(ref_screen(system, w, 32, rng)) > 1:
                return False, w, checked
            raise
        if nonunique:
            return False, w, checked
    return True, None, checked


def outcome(call, *args):
    try:
        return call(*args)
    except (FuseExceeded, ReductionError) as e:
        return type(e)


def q_coefficients(system, rng):
    coeffs = (QQ.one, QQ.neg(QQ.one), Fraction(2), Fraction(-1, 2))
    return System(system.alphabet, tuple(
        Rule(r.lhs, Poly(QQ, {w: rng.choice(coeffs) for w in r.rhs.terms}))
        for r in system.rules), QQ)


def test_graph_walk_matches_the_poly_keyed_reference():
    # same normal forms, state counts, fuse trips, random picks and
    # sweep witnesses as the walk over Poly-keyed states
    rng = random.Random(24)
    systems = []
    for _ in range(20):
        s = random_f2_system(rng)
        systems += [s, q_coefficients(s, rng)]
    seen = {"trip": 0, "nonunique": 0, "unique": 0, "forms": 0}
    for s in systems:
        window = 2 * max(len(w) for w in s.lhs_words)
        for budget in (40, 3000):
            memo, ref_memo = {}, {}
            got = outcome(oracle_sweep, s, window, budget, memo)
            assert got == outcome(ref_sweep, s, window, budget, ref_memo)
            assert len(memo) == len(ref_memo)
            if got is FuseExceeded:
                seen["trip"] += 1
            else:
                seen["unique" if got[0] else "nonunique"] += 1
        words = _likely_witnesses(s) + [
            "".join(chr(rng.randrange(len(s.alphabet))) for _ in range(window))
            for _ in range(3)]
        for budget in (40, 3000):
            memo, ref_memo = {}, {}
            for w in words:
                got = outcome(reduction_graph_oracle, s, w, budget, memo)
                assert got == outcome(ref_walk, s, w, budget, ref_memo)
                assert len(memo) == len(ref_memo)
                seen["forms"] += got is not FuseExceeded and len(got) > 1
            for w in words[:3]:
                pick, ref_pick = random.Random(budget), random.Random(budget)
                assert (distinct_normal_forms(s, w, 8, pick)
                        == ref_screen(s, w, 8, ref_pick))
                assert pick.random() == ref_pick.random()
    assert min(seen.values()) > 0, seen
    cyclic = System.from_strings(("x", "y"), [("x*y", "y*x"), ("y*x", "x*y")], QQ)
    assert outcome(reduction_graph_oracle, cyclic, "\x00\x01") is ReductionError
    assert outcome(ref_walk, cyclic, "\x00\x01", 100, {}) is ReductionError


# -- the linear uniqueness oracle -------------------------------------------

def test_linear_oracle_frozen_examples():
    assert linear_uniqueness_oracle(nonconvergent_xcubed_system(), 6) == (False, 4)
    assert linear_uniqueness_oracle(convergent_xyz_system(), 6) == (True, None)
    f2 = PrimeField(2)
    s2 = System.from_strings(NAMES, [("x^3", "x*y*z + y^3 + z^3")], f2)
    assert linear_uniqueness_oracle(s2, 6) == (False, 4)


def test_linear_oracle_requires_length_homogeneity():
    s = System.from_strings(("x", "y"), [("x*y", "x")], QQ)
    with pytest.raises(ValueError):
        linear_uniqueness_oracle(s, 4)


def test_linear_oracle_matches_the_graph_oracle():
    rng = random.Random(23)
    agree = [0, 0]
    for _ in range(30):
        s = random_f2_system(rng)
        maxlhs = max(len(w) for w in s.lhs_words)
        try:
            uniq, wit, _ = oracle_sweep(s, 2 * maxlhs, max_states=150_000)
        except FuseExceeded:
            continue
        lin_uniq, bad = linear_uniqueness_oracle(s, 2 * maxlhs)
        assert lin_uniq == uniq
        if not uniq:
            assert bad is not None and bad <= len(wit)
        agree[uniq] += 1
    assert min(agree) > 5  # both verdicts well represented
