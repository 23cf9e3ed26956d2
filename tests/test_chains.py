"""Chain enumeration and the squared-zero differential."""

import random
from fractions import Fraction

import pytest

from ncrewrite import (
    QQ, Chain, Poly, PrimeField, Rule, System, anick_chains,
    chain_differential, chain_structure, iter_words, print_chain_poly,
    print_word, verify_d_squared, find_overlaps,
)
from ncrewrite import chains as chains_module

from conftest import (
    nonconvergent_xcubed_system, one_rule_monomial, random_monomial_system,
)

X = ("x",)
XCUBED = one_rule_monomial("\x00\x00\x00")
XSQUARED = one_rule_monomial("\x00\x00")


# -- enumeration ------------------------------------------------------------

def test_chains_of_one_cubic_relation():
    cs = anick_chains(XCUBED, 4, 10)
    assert [(print_word(c.word, X), c.degree, print_word(c.tail, X))
            for c in cs] == [
        ("x", 0, "x"),
        ("x^3", 1, "x^2"),
        ("x^4", 2, "x"),
        ("x^6", 3, "x^2"),
        ("x^7", 4, "x"),
    ]
    assert cs[2].parent_word == "\x00\x00\x00"
    assert cs[0].parent_word is None


def test_chains_stop_without_self_overlap():
    s = System.from_strings(("x", "y", "z"), [("x*y*z", "0")], QQ)
    cs = anick_chains(s, 3, 9)
    assert [(print_word(c.word, s.alphabet), c.degree) for c in cs] == [
        ("x", 0), ("y", 0), ("z", 0), ("x*y*z", 1)]


def test_one_generator_quadratic_tower():
    cs = anick_chains(XSQUARED, 4, 8)
    assert [(c.word, c.degree) for c in cs] == [
        ("\x00" * (k + 1), k) for k in range(5)]


def test_chain_structure_lookup():
    assert chain_structure(XCUBED, "\x00" * 4) == (2, "\x00")
    assert chain_structure(XCUBED, "\x00" * 5) is None
    assert chain_structure(XCUBED, "") is None


def test_chains_require_minimal_systems():
    with pytest.raises(ValueError):
        anick_chains(System(X, (Rule("\x00", Poly.zero(QQ)),), QQ), 2, 4)
    with pytest.raises(ValueError):
        anick_chains(System.from_strings(
            ("x", "y"), [("x*y", "0"), ("x*y*y", "0")], QQ), 2, 6)


def test_degree_two_chains_are_minimal_overlap_grades():
    rng = random.Random(41)
    tested = 0
    for _ in range(40):
        s = random_monomial_system(rng)
        if not s.minimal:
            continue
        want = {o.grade for o in find_overlaps(s) if o.minimal}
        got = {c.word for c in anick_chains(s, 2, 12) if c.degree == 2}
        assert got == want
        tested += 1
    assert tested > 20


# -- the differential -------------------------------------------------------

def test_differential_frozen_values():
    d = {print_word(c.word, X): print_chain_poly(chain_differential(XCUBED, c), X)
         for c in anick_chains(XCUBED, 4, 10) if c.degree >= 1}
    assert d == {
        "x^3": "x|x|x",
        "x^4": "-x^3|x + x|x^3",
        "x^6": "x^4|x|x - x^3|x^3 + x|x^4|x + x|x|x^4",
        "x^7": "-x^6|x + x^4|x^3 - x^3|x^4 + x|x^6",
    }


def test_differential_alternates_on_the_quadratic_tower():
    d = {c.degree: print_chain_poly(chain_differential(XSQUARED, c), X)
         for c in anick_chains(XSQUARED, 4, 8) if c.degree >= 1}
    assert d == {
        1: "x|x",
        2: "-x^2|x + x|x^2",
        3: "x^3|x - x^2|x^2 + x|x^3",
        4: "-x^4|x + x^3|x^2 - x^2|x^3 + x|x^4",
    }


def test_differential_ignores_rule_tails():
    # the chain complex sees only the lhs skeleton
    s = nonconvergent_xcubed_system()
    d = chain_differential(s, Chain("\x00" * 4, 2, "\x00"))
    assert print_chain_poly(d, s.alphabet) == "-x^3|x + x|x^3"


def test_differential_rejects_foreign_chains():
    with pytest.raises(ValueError):
        chain_differential(XCUBED, Chain("\x00" * 5, 2, "\x00"))


def test_d_squared_is_zero_on_models():
    for s, deg, length in [
        (XCUBED, 4, 10),
        (XSQUARED, 5, 8),
        (System.from_strings(("x", "y"), [("x*y", "0"), ("y*x", "0")], QQ), 4, 8),
        (System.from_strings(("x", "y"), [("x*y*x", "0"), ("y^2", "0")], QQ), 4, 10),
        (nonconvergent_xcubed_system(), 4, 10),
    ]:
        rep = verify_d_squared(s, deg, length)
        assert rep.ok and rep.violations == ()


def test_d_squared_is_zero_on_random_minimal_systems():
    rng = random.Random(42)
    tested = 0
    for _ in range(30):
        s = random_monomial_system(rng)
        if not s.minimal:
            continue
        assert verify_d_squared(s, 4, 10).ok
        tested += 1
    assert tested > 15


def test_request_table_matches_per_chain_differentials():
    # verify_d_squared solves every sign once, for the request's bounds;
    # chain_differential solves them for the chain's own length
    rng = random.Random(44)
    tested = 0
    for _ in range(30):
        s = random_monomial_system(rng)
        if not s.minimal:
            continue
        rep = verify_d_squared(s, 4, 9)
        assert len(rep.differentials) == len(rep.checked)
        assert rep.checked == tuple(anick_chains(s, 4, 9))
        for chain, d in zip(rep.checked, rep.differentials):
            assert d == chain_differential(s, chain), chain
        tested += any(c.degree >= 3 for c in rep.checked)
    assert tested > 5


# -- the signed factorization identity --------------------------------------

def signed_factorizations(system, u, by_word):
    """DP: sum over u = c_1 ... c_k of prod (-1)^deg(c_i)."""
    ways = [0] * (len(u) + 1)
    ways[0] = 1
    for i in range(1, len(u) + 1):
        for j in range(i):
            c = by_word.get(u[j:i])
            if c is not None:
                ways[i] += ways[j] * (-1) ** c.degree
    return ways[len(u)]


def assert_euler_identity(s, max_len):
    by_word = {c.word: c for c in anick_chains(s, max_len, max_len)}
    for u in iter_words(len(s.alphabet), max_len):
        if u:
            expect = 0 if s.contains_lhs(u) else 1
            assert signed_factorizations(s, u, by_word) == expect, u


def test_signed_factorization_identity():
    # chains tile every reducible word with signed multiplicity zero, and
    # every irreducible word only trivially; a sharp global consistency
    # check of both the enumeration and the degrees
    assert_euler_identity(XCUBED, 8)
    assert_euler_identity(XSQUARED, 8)
    assert_euler_identity(System.from_strings(
        ("x", "y"), [("x*y*x", "0"), ("y^2", "0")], QQ), 8)
    rng = random.Random(43)
    tested = 0
    for _ in range(20):
        s = random_monomial_system(rng)
        if not s.minimal:
            continue
        assert_euler_identity(s, 6 if len(s.alphabet) > 2 else 8)
        tested += 1
    assert tested > 10


# -- the sign solver --------------------------------------------------------

def dense_solve_signs(cuts, columns, rows):
    """Reference sign solver: dense Gauss-Jordan over Fractions.

    Reduces the rows x cuts matrix to reduced row echelon form, then scans
    sign assignments of the free columns in mask order and returns the
    first whose pivot entries all come out +-1, normalized on cut 0.
    """
    matrix = [[Fraction(col.get(key, 0)) for col in columns] for key in rows]
    n = len(columns)
    pivots = []
    rank = 0
    for j in range(n):
        pivot_row = next((i for i in range(rank, len(matrix)) if matrix[i][j]), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = 1 / matrix[rank][j]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][j]:
                f = matrix[i][j]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[rank])]
        pivots.append(j)
        rank += 1
    free = [j for j in range(n) if j not in pivots]
    for mask in range(1 << len(free)):
        alpha = [0] * n
        for bit, j in enumerate(free):
            alpha[j] = -1 if (mask >> (len(free) - 1 - bit)) & 1 else 1
        ok = True
        for row, j in enumerate(pivots):
            value = -sum(matrix[row][k] * alpha[k] for k in free)
            if value == 1 or value == -1:
                alpha[j] = int(value)
            else:
                ok = False
                break
        if ok:
            if alpha[0] < 0:
                alpha = [-a for a in alpha]
            return alpha
    raise AssertionError(f"no sign assignment over {cuts}")


def test_echelon_signs_match_the_dense_solver(monkeypatch):
    solve = chains_module._solve_signs
    systems = []

    def compare(cuts, columns):
        signs = solve(cuts, columns)
        rows = sorted({key for col in columns for key in col})
        assert signs == dense_solve_signs(cuts, columns, rows), cuts
        systems.append(len(cuts))
        return signs

    monkeypatch.setattr(chains_module, "_solve_signs", compare)
    for k in range(2, 6):
        assert verify_d_squared(one_rule_monomial("\x00" * k), 6, 14).ok
    rng = random.Random(45)
    for _ in range(40):
        s = random_monomial_system(rng)
        if s.minimal:
            assert verify_d_squared(s, 6, 14).ok
    assert len(systems) > 200 and max(systems) > 2

    # every chain system above has one free column; these dependent
    # random columns need the scan over several, or have no +-1 solution
    def outcome(solve, *args):
        try:
            return solve(*args)
        except AssertionError:
            return None

    rows = [(chr(i),) for i in range(4)]
    solved = 0
    for _ in range(400):
        basis = [{r: rng.choice((-1, 1)) for r in rows if rng.random() < 0.6}
                 for _ in range(rng.randrange(1, 4))]
        columns = []
        for _ in range(rng.randrange(3, 7)):
            col = dict.fromkeys(rows, 0)
            for b in basis:
                f = rng.choice((-1, 0, 1))
                for r, c in b.items():
                    col[r] += f * c
            columns.append({r: c for r, c in col.items() if c})
        cuts = list(range(len(columns)))
        signs = outcome(solve, cuts, columns)
        assert signs == outcome(dense_solve_signs, cuts, columns, rows), columns
        solved += signs is not None
    assert solved > 50


# -- d(d(c)) is recomputed, not trusted ---------------------------------------

@pytest.mark.parametrize("field, text", [
    (QQ, "2*x|x|x|x"), (PrimeField(3), "2*x|x|x|x"), (PrimeField(2), None)])
def test_a_wrong_sign_is_reported(monkeypatch, field, text):
    solve = chains_module._solve_signs

    def flip_second(cuts, columns):
        signs = solve(cuts, columns)
        assert len(cuts) >= 2
        return signs[:1] + [-signs[1]] + signs[2:]

    monkeypatch.setattr(chains_module, "_solve_signs", flip_second)
    system = System.from_strings(X, [("x^3", "0")], field)
    report = verify_d_squared(system, 2, 4)
    x4 = Chain("\x00" * 4, 2, "\x00")
    assert report.checked[-1] == x4
    if text is None:
        # over F2, -1 = 1: the flipped sign is the same differential
        assert report.ok
    else:
        (chain, d2), = report.violations
        assert chain == x4 and d2
        assert print_chain_poly(d2, X) == text
