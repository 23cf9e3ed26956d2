"""Relation-marker complexes, Grassmann components, census certification."""

import random
from fractions import Fraction

import pytest

from ncrewrite import (
    QQ, HomologyRanks, Poly, PrimeField, Rule, System, build_ie_component,
    build_shafarevich, exact_rank, find_inclusions, find_overlaps,
    grassmann_homology, homology_ranks, ie_degree2_census, iter_words,
    print_word,
)

from conftest import one_rule_monomial, random_f2_system

XCUBED = one_rule_monomial("\x00\x00\x00")


# -- exact rank -------------------------------------------------------------

def test_exact_rank_hand_matrices():
    assert exact_rank([], QQ) == 0
    assert exact_rank([{0: 1, 1: 2}, {0: 2, 1: 4}], QQ) == 1
    assert exact_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}], QQ) == 2
    # the same matrix collapses further mod 2
    assert exact_rank([{0: 1, 1: 1}, {0: 1, 1: 1}], PrimeField(2)) == 1


def dense_rank(columns, nrows):
    """Independent oracle: textbook elimination on dense Fraction rows."""
    mat = [[Fraction(col.get(r, 0)) for col in columns] for r in range(nrows)]
    rank = 0
    for c in range(len(columns)):
        piv = next((r for r in range(rank, nrows) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_exact_rank_against_dense_elimination():
    rng = random.Random(60)
    for _ in range(100):
        nrows = rng.randrange(1, 7)
        cols = []
        for _ in range(rng.randrange(8)):
            col = {r: Fraction(rng.randrange(-2, 3))
                   for r in range(nrows) if rng.random() < 0.5}
            cols.append({r: v for r, v in col.items() if v})
        assert exact_rank(cols, QQ) == dense_rank(cols, nrows)


# -- relation-marker complex, monomial mode ---------------------------------

def test_marker_homology_of_the_cubic_relation():
    cx = build_shafarevich(XCUBED, 7, 3)
    expect = {3: 0, 4: 1, 5: 2}
    for length, h1 in expect.items():
        ranks = homology_ranks(cx, "\x00" * length, 1)
        assert ranks.homology_dim == h1
        assert not ranks.truncated
    assert homology_ranks(cx, "\x00" * 4, 1) == HomologyRanks(1, 0, 1, False)
    # grade with no relation occurrence carries nothing in degree 1
    assert cx.basis("\x00\x00", 1) == []
    assert len(cx.basis("\x00\x00\x00", 1)) == 1


def test_marker_homology_truncation_flag():
    cx = build_shafarevich(XCUBED, 7, 2)
    assert homology_ranks(cx, "\x00" * 6, 2).truncated


def test_overlap_free_system_has_no_higher_homology():
    s = System.from_strings(("x", "y", "z"), [("x*y*z", "0")], QQ)
    cx = build_shafarevich(s, 7, 3)
    for grade in iter_words(3, 7):
        for degree in (1, 2):
            assert homology_ranks(cx, grade, degree).homology_dim == 0


def test_each_block_differential_is_ranked_once(monkeypatch):
    # homology at degree d ranks the differentials out of d and d+1, so
    # asking for every degree would rank the inner ones twice
    from ncrewrite import dgmodel
    s = System.from_strings(("x", "y"), [("x*y*x", "0"), ("y^2", "0")], QQ)
    rng = random.Random(31)
    complexes = [build_shafarevich(s, 6, 3),
                 build_shafarevich(random_f2_system(rng), 5, 3, monomial_only=False)]
    for cx in complexes:
        field = cx.system.field
        expect = {}
        for key, block in cx.blocks.items():
            for degree in range(cx.max_degree + 1):
                dim = len(block.bases[degree])
                out = exact_rank(block.columns.get(degree, []), field)
                into = exact_rank(block.columns.get(degree + 1, []), field)
                truncated = degree == cx.max_degree
                boundary = 0 if truncated else into
                expect[key, degree] = HomologyRanks(
                    dim - out, boundary, dim - out - boundary, truncated)
        calls = {}

        def counted(columns, field_):
            calls[id(columns)] = calls.get(id(columns), 0) + 1
            return exact_rank(columns, field_)

        monkeypatch.setattr(dgmodel, "exact_rank", counted)
        for key, degree in expect:
            assert homology_ranks(cx, key, degree) == expect[key, degree]
        monkeypatch.undo()
        owned = {id(cols) for block in cx.blocks.values()
                 for cols in block.columns.values()}
        assert set(calls) <= owned
        assert max(calls.values()) == 1
        assert len(calls) == len(owned)


def test_unknown_block_key_is_refused():
    cx = build_shafarevich(XCUBED, 3, 2)
    with pytest.raises(ValueError):
        cx.basis("\x00" * 9, 1)
    with pytest.raises(ValueError):
        homology_ranks(cx, "\x01", 0)


def test_basis_budget_is_enforced():
    s = System.from_strings(("x", "y", "z"), [("x*y*z", "0")], QQ)
    with pytest.raises(ValueError, match="budget"):
        build_shafarevich(s, 7, 3, basis_budget=100)


# -- relation-marker complex, full mode -------------------------------------

def test_full_mode_commutation_example():
    s = System.from_strings(("x", "y"), [("x*y", "y*x")], QQ)
    cx = build_shafarevich(s, 4, 2, monomial_only=False)
    ranks = homology_ranks(cx, 2, 0)
    # four words of length two, one relation: the commutative plane
    assert ranks == HomologyRanks(4, 1, 3, False)
    assert homology_ranks(cx, 2, 1).homology_dim == 0


def test_full_mode_needs_length_homogeneous_rules():
    s = System.from_strings(("x", "y"), [("x*y", "x")], QQ)
    with pytest.raises(ValueError, match="length-homogeneous"):
        build_shafarevich(s, 3, 2, monomial_only=False)


# -- Grassmann components ---------------------------------------------------

def test_component_of_the_first_overlap():
    comp = build_ie_component(XCUBED, "\x00" * 4)
    assert comp.divisors == ((0, 3, 0), (1, 4, 0))
    assert comp.m == 2
    assert comp.indecomposable((0, 1))
    assert grassmann_homology(comp) == {0: 0, 1: 0, 2: 0}


def test_decomposable_pair_is_detected():
    comp = build_ie_component(XCUBED, "\x00" * 5)
    assert comp.m == 3  # occurrences at 0, 1, 2
    # only the outermost pair covers every cut of the grade
    assert comp.indecomposable((0, 2))
    assert not comp.indecomposable((0, 1))
    assert not comp.indecomposable((1, 2))


def test_empty_component_has_unit_homology():
    comp = build_ie_component(XCUBED, "\x00\x00")
    assert comp.m == 0
    assert grassmann_homology(comp) == {0: 1}


def test_every_occupied_component_is_acyclic():
    s = one_rule_monomial("\x00\x00")
    for length in range(1, 9):
        comp = build_ie_component(s, "\x00" * length)
        h = grassmann_homology(comp)
        if comp.m >= 1:
            assert all(v == 0 for v in h.values()), (length, h)
        else:
            assert h == {0: 1}


def test_acyclicity_on_random_systems():
    rng = random.Random(61)
    occupied = 0
    for _ in range(10):
        s = random_f2_system(rng)
        for grade in iter_words(len(s.alphabet), 6):
            if not grade:
                continue
            comp = build_ie_component(s, grade)
            if comp.m >= 1:
                occupied += 1
                assert all(v == 0 for v in grassmann_homology(comp).values())
    assert occupied > 50


def test_divisor_budget_is_enforced():
    s = one_rule_monomial("\x00\x00")
    with pytest.raises(ValueError, match="budget"):
        build_ie_component(s, "\x00" * 9, max_divisors=3)


# -- degree-2 census --------------------------------------------------------

def test_census_of_the_cubic_relation():
    entries = ie_degree2_census(XCUBED, 5)
    assert [(print_word(e.grade, ("x",)), e.kind, e.divisors)
            for e in entries] == [
        ("x^4", "overlap", ((0, 0), (1, 0))),
        ("x^5", "overlap", ((0, 0), (2, 0))),
    ]


def test_census_equals_string_matching_census():
    rng = random.Random(62)
    for _ in range(20):
        s = random_f2_system(rng)
        bound = min(2 * max(len(w) for w in s.lhs_words),
                    7 if len(s.alphabet) > 2 else 8)
        got = {(e.grade, e.kind, e.divisors)
               for e in ie_degree2_census(s, bound)}
        want = {(a.grade, a.kind, a.divisor_positions(s))
                for a in find_overlaps(s) + find_inclusions(s)
                if len(a.grade) <= bound}
        assert got == want
