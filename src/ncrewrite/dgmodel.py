"""Homological complexes that certify the ambiguity census.

Two constructions, both with exact linear algebra over the system field.

*Relation-marker complex* (:func:`build_shafarevich`).  The free algebra
on the generators (degree 0) and one marker ``e_w`` per rule (degree 1)
carries the graded derivation d(x) = 0, d(e_w) = w (monomial mode) or
d(e_w) = w - f(w) (full mode).  In monomial mode the complex splits over
grades: the basis at grade u and degree n is the set of tilings of u by
single letters and rule words, n of them marked.  In full mode grading
is by total word length, which requires every rule to be
length-homogeneous; mixing lengths is refused.  d^2 = 0 is asserted at
construction.

*Grassmann components* (:func:`build_ie_component`).  For a fixed grade
u with m rule-subword occurrences, the exterior algebra on one symbol
per occurrence carries the derivation sending each symbol to 1.  For
m >= 1 this is acyclic (contract with the first symbol), which the rank
computation confirms; the homological content sits in which wedge
monomials are *indecomposable*, i.e. not split by any factorization
u = u1*u2.  Indecomposable wedges of degree 2 are exactly the overlap
and inclusion ambiguities, and :func:`ie_degree2_census` enumerates them
for cross-checking against the string-matching census.

Ranks come from sparse echelon reduction with exact field arithmetic
(ints and Fractions over Q, residues over F_p), pivoting on the largest
index.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .freealg import iter_words, occurrences

__all__ = [
    "TruncatedComplex", "HomologyRanks", "GrassmannComponent", "CensusEntry",
    "exact_rank", "echelon", "build_shafarevich", "homology_ranks",
    "build_ie_component", "grassmann_homology", "ie_degree2_census",
]


def exact_rank(columns, field):
    """Rank of a sparse matrix given as a list of {row_index: coeff} columns."""
    return len(echelon(columns, field))


def echelon(columns, field):
    """Echelon form of sparse {row_index: coeff} columns: dict top index -> column.

    Row indices only need to be comparable.  Each column is reduced
    against the pivots found so far until its largest index is new; a
    column that reduces to zero is dropped.
    """
    sub, mul, zero = field.sub, field.mul, field.zero
    pivots = {}
    for col in columns:
        col = dict(col)
        while col:
            top = max(col)
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = col
                break
            f = mul(col[top], field.invert(piv[top]))
            for k, v in piv.items():
                nv = sub(col.get(k, zero), mul(f, v))
                if nv:
                    col[k] = nv
                else:
                    col.pop(k, None)
    return pivots


# ---------------------------------------------------------------------------
# relation-marker complex
#
# basis elements are tensor words: tuples of tokens ('x', letter_index)
# and ('e', rule_index); ('e', r) covers len(lhs_r) letters of the grade.

def _letters(word):
    return tuple(("x", ord(a)) for a in word)


def _token_degree(tokens):
    return sum(1 for t in tokens if t[0] == "e")


def _apply_d(system, tokens, monomial):
    """One application of the derivation; dict tensor word -> coefficient."""
    field = system.field
    add, neg, zero = field.add, field.neg, field.zero
    out = {}
    markers_before = 0
    for i, tok in enumerate(tokens):
        if tok[0] != "x":
            rule = system.rules[tok[1]]
            repls = [(rule.lhs, field.one)]
            if not monomial:
                repls.extend((w, neg(c)) for w, c in rule.rhs.terms.items())
            flip = markers_before % 2 == 1
            for w, c in repls:
                t = tokens[:i] + _letters(w) + tokens[i + 1:]
                cc = neg(c) if flip else c
                s = add(out.get(t, zero), cc)
                if s:
                    out[t] = s
                elif t in out:
                    del out[t]
            markers_before += 1
    return out


class _Block:
    """One grade (or length) slice of a truncated complex."""

    __slots__ = ("bases", "columns", "ranks")

    def __init__(self):
        self.bases = {}     # degree -> sorted list of tensor words
        self.columns = {}   # degree -> list of {row_index: coeff} columns
        self.ranks = {}     # degree -> rank of columns[degree], filled on demand

    def rank(self, degree, field):
        r = self.ranks.get(degree)
        if r is None:
            r = self.ranks[degree] = exact_rank(self.columns.get(degree, []), field)
        return r


@dataclass
class TruncatedComplex:
    system: object
    mode: str                    # "monomial" | "full"
    max_grade_length: int
    max_degree: int
    blocks: dict

    def basis(self, key, degree):
        block = self.blocks.get(key)
        if block is None:
            raise ValueError(f"no block {key!r} within the truncation")
        return block.bases.get(degree, [])


class HomologyRanks(NamedTuple):
    kernel_dim: int
    boundary_dim: int
    homology_dim: int
    truncated: bool   # True when the incoming differential lies past the truncation


def _tilings(grade, lhss, max_degree):
    n = len(grade)
    memo = {n: [()]}

    def rec(i):
        res = memo.get(i)
        if res is None:
            res = []
            head = (("x", ord(grade[i])),)
            for tail in rec(i + 1):
                res.append(head + tail)
            for r, lhs in enumerate(lhss):
                if grade.startswith(lhs, i):
                    head_e = (("e", r),)
                    for tail in rec(i + len(lhs)):
                        res.append(head_e + tail)
            memo[i] = res
        return res

    return [t for t in rec(0) if _token_degree(t) <= max_degree]


def _length_sequences(n_generators, lhs_lengths, length, max_degree):
    # all token tuples of the given total length (letters count 1,
    # marker r counts lhs_lengths[r]) with at most max_degree markers
    tokens = [(("x", i), 1, 0) for i in range(n_generators)]
    tokens += [(("e", r), l, 1) for r, l in enumerate(lhs_lengths)]
    out = []

    def rec(prefix, left, degree):
        if left == 0:
            out.append(tuple(prefix))
            return
        for tok, l, d in tokens:
            if l <= left and degree + d <= max_degree:
                prefix.append(tok)
                rec(prefix, left - l, degree + d)
                prefix.pop()

    rec([], length, 0)
    return out


def _fill_block(system, block, tensors, monomial, max_degree):
    for t in tensors:
        block.bases.setdefault(_token_degree(t), []).append(t)
    for n in range(max_degree + 1):
        block.bases.setdefault(n, [])
        block.bases[n].sort()
    for n in range(1, max_degree + 1):
        below = {t: i for i, t in enumerate(block.bases[n - 1])}
        cols = []
        for t in block.bases[n]:
            image = _apply_d(system, t, monomial)
            col = {}
            for u, c in image.items():
                assert u in below, (t, u)
                col[below[u]] = c
            cols.append(col)
        block.columns[n] = cols
    # square-zero check by double application
    field = system.field
    for n in range(2, max_degree + 1):
        for t in block.bases[n]:
            acc = {}
            for u, c in _apply_d(system, t, monomial).items():
                for v, d in _apply_d(system, u, monomial).items():
                    s = field.add(acc.get(v, field.zero), field.mul(c, d))
                    if s:
                        acc[v] = s
                    elif v in acc:
                        del acc[v]
            assert not acc, f"d^2 != 0 at {t}"


def build_shafarevich(system, max_grade_length, max_degree,
                      monomial_only=True, basis_budget=200_000):
    """Truncated relation-marker complex, one block per grade (or length).

    Monomial mode uses d(e_w) = w and splits over grade words; full mode
    uses d(e_w) = w - f(w), splits over total length, and requires every
    rule to preserve length.
    """
    if not monomial_only:
        for r in system.rules:
            if any(len(w) != len(r.lhs) for w in r.rhs.terms):
                raise ValueError(
                    "full mode needs length-homogeneous rules; "
                    f"rule with lhs length {len(r.lhs)} mixes lengths")
    lhss = system.lhs_words
    blocks = {}
    total = 0
    if monomial_only:
        for grade in iter_words(len(system.alphabet), max_grade_length):
            tensors = _tilings(grade, lhss, max_degree)
            total += len(tensors)
            if total > basis_budget:
                raise ValueError(f"basis budget {basis_budget} exceeded")
            block = blocks[grade] = _Block()
            _fill_block(system, block, tensors, True, max_degree)
    else:
        lengths = [len(l) for l in lhss]
        for length in range(max_grade_length + 1):
            tensors = _length_sequences(len(system.alphabet), lengths,
                                        length, max_degree)
            total += len(tensors)
            if total > basis_budget:
                raise ValueError(f"basis budget {basis_budget} exceeded")
            block = blocks[length] = _Block()
            _fill_block(system, block, tensors, False, max_degree)
    return TruncatedComplex(system, "monomial" if monomial_only else "full",
                            max_grade_length, max_degree, blocks)


def homology_ranks(complex_, key, degree):
    """(kernel dim, incoming boundary dim, homology dim) at one block and degree.

    Homology is exact when degree+1 is inside the truncation, otherwise
    an upper bound flagged by ``truncated``.  Each block ranks each of
    its differentials at most once, however many degrees are asked for.
    """
    block = complex_.blocks.get(key)
    if block is None:
        raise ValueError(f"no block {key!r} within the truncation")
    field = complex_.system.field
    dim = len(block.bases.get(degree, []))
    rank_out = block.rank(degree, field) if degree >= 1 else 0
    kernel = dim - rank_out
    truncated = degree + 1 > complex_.max_degree
    boundary = 0 if truncated else block.rank(degree + 1, field)
    return HomologyRanks(kernel, boundary, kernel - boundary, truncated)


# ---------------------------------------------------------------------------
# Grassmann components

@dataclass(frozen=True)
class GrassmannComponent:
    """Exterior algebra on the rule-subword occurrences of one grade."""

    grade: str
    divisors: tuple          # (start, end, rule_index), sorted
    field: object

    @property
    def m(self):
        return len(self.divisors)

    def basis(self, degree):
        return list(combinations(range(self.m), degree))

    def indecomposable(self, subset):
        """No cut point of the grade avoids every chosen divisor."""
        chosen = [self.divisors[i] for i in subset]
        return all(any(s < p < e for s, e, _ in chosen)
                   for p in range(1, len(self.grade)))

    def boundary_columns(self, degree):
        """d(D_{i1}^...^D_{ik}) = sum_j (-1)^j (drop j); columns over the basis."""
        below = {s: i for i, s in enumerate(self.basis(degree - 1))}
        one, minus = self.field.one, self.field.neg(self.field.one)
        cols = []
        for subset in self.basis(degree):
            col = {}
            for j in range(len(subset)):
                c = one if j % 2 == 0 else minus
                row = below[subset[:j] + subset[j + 1:]]
                prev = col.get(row, self.field.zero)
                s = self.field.add(prev, c)
                if s:
                    col[row] = s
                elif row in col:
                    del col[row]
            cols.append(col)
        return cols


def build_ie_component(system, grade, max_divisors=14):
    """All rule-subword occurrences of the grade, wedge-ready."""
    divisors = sorted(
        (occ.start, occ.start + len(rule.lhs), ri)
        for ri, rule in enumerate(system.rules)
        for occ in occurrences(rule.lhs, grade))
    if len(divisors) > max_divisors:
        raise ValueError(
            f"{len(divisors)} divisor occurrences exceed the 2^m budget "
            f"(max_divisors={max_divisors})")
    return GrassmannComponent(grade, tuple(divisors), system.field)


def grassmann_homology(component):
    """dict degree -> homology dimension, computed from exact ranks."""
    m = component.m
    field = component.field
    dims = {}
    ranks = {k: exact_rank(component.boundary_columns(k), field)
             for k in range(1, m + 1)}
    for k in range(0, m + 1):
        from math import comb
        dim = comb(m, k)
        kernel = dim - ranks.get(k, 0)
        boundary = ranks.get(k + 1, 0)
        dims[k] = kernel - boundary
    return dims


class CensusEntry(NamedTuple):
    grade: str
    kind: str                # "overlap" | "inclusion"
    divisors: tuple          # ((start, rule_index), (start, rule_index)), sorted


def ie_degree2_census(system, max_grade_length, max_divisors=14):
    """Indecomposable degree-2 wedges over all grades up to the length bound.

    Each entry classifies as an inclusion (one divisor is the whole
    grade) or an overlap (a left divisor and a right divisor sharing at
    least one letter).  The classification is exhaustive: an assert
    fires on any indecomposable pair fitting neither description.
    """
    entries = []
    for grade in iter_words(len(system.alphabet), max_grade_length):
        if not grade:
            continue
        comp = build_ie_component(system, grade, max_divisors)
        full_span = (0, len(grade))
        for i, j in combinations(range(comp.m), 2):
            if not comp.indecomposable((i, j)):
                continue
            di, dj = comp.divisors[i], comp.divisors[j]
            if di[:2] == full_span or dj[:2] == full_span:
                kind = "inclusion"
            else:
                assert di[0] == 0 and dj[1] == len(grade) and dj[0] < di[1], (grade, di, dj)
                kind = "overlap"
            entries.append(CensusEntry(
                grade, kind, ((di[0], di[2]), (dj[0], dj[2]))))
    entries.sort()
    return entries
