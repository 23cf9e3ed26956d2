"""Chain monomials and the minimal-model differential.

For a minimal system (no length-1 lhs, no lhs dividing another) the left
hand sides W tile certain words into *chains*, one candidate generator
of the minimal model per chain.  Degree 0 chains are the generators
themselves; degree 1 chains are exactly the words of W; a degree n chain
extends a degree n-1 chain c' by a nonempty word t such that some w in W
is a suffix of tail(c')*t reaching into tail(c') (|w| > |t|), and no
proper prefix of c'*t admits such a description.  The *tail* of a chain
is t (for degree 0, the word itself); a word carries at most one chain
structure, which the enumeration asserts.

Degree 2 chains are exactly the minimal overlaps of W: the two relation
occurrences in such a chain share letters and no third occurrence fits.

The differential of a degree n chain c is supported on all ways to cut
c into a concatenation of chains of total degree n-1, every cut carrying
coefficient +1 or -1.  No sign rule depending only on the factor degrees
and positions can square to zero (two cuts may differ by moving the one
positive-degree factor across an even number of letters, which no such
rule distinguishes, yet their boundaries coincide and must cancel), so
the signs are fixed by their defining property instead: for each chain,
in increasing degree, the square-zero constraint d(d(c)) = 0 is solved
exactly over the cut set and the resulting sign vector is normalized so
the cut with the lexicographically smallest tuple of factor lengths
enters positively.  A degree 1 chain takes its single all-letters cut
with coefficient +1; a degree 2 chain, written as the minimal overlap
u'a = bu'', gets exactly b x (chain u'') - (chain u') x a with the
prefixes and suffixes spelled out in letters.  On one generator the
solved signs reproduce the alternating closed form, e.g.
d(x^4) = x x x^3 - x^3 x x for the system {x^3 -> 0}.
:func:`verify_d_squared` re-checks the outcome by extending d to tensor
words as a graded derivation (Koszul signs by accumulated degree).
"""

from dataclasses import dataclass
from fractions import Fraction

from .freealg import print_order_key, print_word
from .rewrite import DEFAULT_FUSE, FuseExceeded

__all__ = [
    "Chain", "ChainPoly", "DSquaredReport",
    "anick_chains", "chain_structure", "chain_differential",
    "verify_d_squared", "print_chain_poly",
]


@dataclass(frozen=True)
class Chain:
    """A chain monomial: its word, homological degree and tail."""

    word: str
    degree: int
    tail: str

    @property
    def parent_word(self):
        """The degree n-1 prefix this chain extends (None in degree 0)."""
        if self.degree == 0:
            return None
        return self.word[:len(self.word) - len(self.tail)]


def _structure_error(word, a, b):
    return AssertionError(
        f"word {word!r} carries two chain structures {a} and {b}; "
        f"this contradicts uniqueness of chain decompositions")


def _chain_table(system, max_degree, max_length):
    """dict word -> Chain for all chains within the bounds."""
    if not system.minimal:
        raise ValueError("chains are defined for minimal systems only")
    lhss = system.lhs_words
    table = {}
    level = []
    for i in range(len(system.alphabet)):
        c = Chain(chr(i), 0, chr(i))
        table[c.word] = c
        level.append(c)
    for degree in range(1, max_degree + 1):
        # candidates: all words satisfying conditions (1)-(2) at this degree
        candidates = {}
        for parent in level:
            t_prev = parent.tail
            for w in lhss:
                top = min(len(t_prev), len(w) - 1)
                for k in range(1, top + 1):
                    if t_prev.endswith(w[:k]):
                        t = w[k:]
                        cand = parent.word + t
                        if len(cand) > max_length:
                            continue
                        prev = candidates.get(cand)
                        if prev is not None and prev != t:
                            raise _structure_error(cand, prev, t)
                        candidates[cand] = t
        # condition (3): drop candidates with a proper candidate prefix
        words = sorted(candidates)
        level = []
        for cand in words:
            if any(other != cand and cand.startswith(other) for other in words):
                continue
            c = Chain(cand, degree, candidates[cand])
            if cand in table:
                raise _structure_error(cand, table[cand], c)
            table[cand] = c
            level.append(c)
        if not level:
            break
    return table


def anick_chains(system, max_degree, max_length):
    """All chains of degree <= max_degree and length <= max_length.

    Sorted by degree, then display order of the word.
    """
    return _sorted_chains(_chain_table(system, max_degree, max_length))


def _sorted_chains(table):
    return sorted(table.values(),
                  key=lambda c: (c.degree, print_order_key(c.word)))


def chain_structure(system, word):
    """The unique (degree, tail) structure on the word, or None."""
    if not word:
        return None
    table = _chain_table(system, len(word), len(word))
    c = table.get(word)
    return None if c is None else (c.degree, c.tail)


class ChainPoly:
    """A linear combination of tensor words of chains, exact coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        self.field = field
        self.terms = {t: c for t, c in items if c}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")
        add, zero = self.field.add, self.field.zero
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = add(out.get(t, zero), c)
            if s:
                out[t] = s
            elif t in out:
                del out[t]
        res = ChainPoly(self.field)
        res.terms = out
        return res

    def scale(self, c):
        res = ChainPoly(self.field)
        mul = self.field.mul
        res.terms = {t: mul(c, v) for t, v in self.terms.items()} if c else {}
        return res

    def __eq__(self, other):
        return (isinstance(other, ChainPoly) and self.field == other.field
                and self.terms == other.terms)

    def sorted_terms(self):
        def key(item):
            parts = item[0]
            return (sum(map(len, parts)), tuple(map(print_order_key, parts)))
        return sorted(self.terms.items(), key=key, reverse=True)

    def __repr__(self):
        return f"ChainPoly({self.terms!r})"


def _split_products(table, word, need):
    """All tuples of chain words concatenating to word, degrees summing to need."""
    if not word:
        return [()] if need == 0 else []
    out = []
    for end in range(1, len(word) + 1):
        head = word[:end]
        ch = table.get(head)
        if ch is None or ch.degree > need:
            continue
        for rest in _split_products(table, word[end:], need - ch.degree):
            out.append((head,) + rest)
    return out


def _fine_expansion(table, dtable, parts, coeff):
    """Apply d once to a tensor of chains; integer coefficients."""
    out = {}
    degree_before = 0
    for i, part in enumerate(parts):
        sign_coeff = coeff if degree_before % 2 == 0 else -coeff
        for sub, c in dtable[part].items():
            key = parts[:i] + sub + parts[i + 1:]
            s = out.get(key, 0) + sign_coeff * c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        degree_before += table[part].degree
    return out


def _solve_signs(cuts, columns, rows):
    """A +-1 kernel vector of the cut/boundary matrix, canonically chosen.

    columns[j] maps fine tensors (the keys listed in rows) to the
    boundary of cuts[j] taken with coefficient +1.  Scans sign
    assignments for the free columns of the reduced matrix and returns
    the first vector whose entries all lie in {+1, -1}, global sign
    normalized on the first cut.
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
    assert len(free) <= 16, (len(free), cuts)
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
    raise AssertionError(
        f"no square-zero sign assignment over the cut set {cuts}; "
        f"this contradicts the existence of the minimal model")


def _differential_table(system, table, fuse=DEFAULT_FUSE):
    """dict chain word -> dict cut tuple -> +-1, solved degree by degree.

    Built once per request, for every chain of the request's chain
    table.  The result for a given chain does not depend on the bounds:
    both the cut set and the lower differentials it consults are
    determined by the chain alone once the bounds cover it.  Each sign
    system costs rows x cuts matrix cells; FuseExceeded once their sum
    passes ``fuse``.
    """
    dtable = {}
    cells = 0
    for chain in sorted(table.values(), key=lambda c: (c.degree, len(c.word))):
        if chain.degree == 0:
            dtable[chain.word] = {}
            continue
        cuts = sorted(_split_products(table, chain.word, chain.degree - 1),
                      key=lambda parts: tuple(map(len, parts)))
        # a lone factor would be a second structure on the word; impossible
        assert all(len(parts) >= 2 for parts in cuts), cuts
        if chain.degree == 1:
            assert len(cuts) == 1 and all(len(p) == 1 for p in cuts[0])
            dtable[chain.word] = {cuts[0]: 1}
            continue
        columns = [_fine_expansion(table, dtable, parts, 1) for parts in cuts]
        rows = sorted({key for col in columns for key in col})
        cells += len(rows) * len(cuts)
        if cells > fuse:
            raise FuseExceeded(
                f"chain differential budget {fuse} exhausted: {cells} sign-matrix "
                f"cells at chain {print_word(chain.word, system.alphabet)}")
        signs = _solve_signs(cuts, columns, rows)
        dtable[chain.word] = dict(zip(cuts, signs))
    return dtable


def _as_chain_poly(field, terms):
    one, minus = field.one, field.neg(field.one)
    return ChainPoly(field, {t: one if c > 0 else minus for t, c in terms.items()})


def chain_differential(system, chain):
    """The minimal-model differential of a chain, as a ChainPoly."""
    n = len(chain.word)
    table = _chain_table(system, n, n)
    if table.get(chain.word) != chain:
        raise ValueError(f"{chain!r} is not a chain of this system")
    dtable = _differential_table(system, table)
    return _as_chain_poly(system.field, dtable[chain.word])


def _derivation(system, table, dtable, poly):
    """Extend d to tensor words of chains as a graded derivation."""
    field = system.field
    out = ChainPoly(field)
    for parts, coeff in poly.terms.items():
        degree_before = 0
        for i, part in enumerate(parts):
            d_part = dtable[part]
            if d_part:
                sign_coeff = coeff if degree_before % 2 == 0 else field.neg(coeff)
                spliced = ChainPoly(field, {
                    parts[:i] + t + parts[i + 1:]:
                        field.mul(sign_coeff, field.one if c > 0 else field.neg(field.one))
                    for t, c in d_part.items()})
                out = out + spliced
            degree_before += table[part].degree
    return out


@dataclass(frozen=True)
class DSquaredReport:
    """Outcome of checking d(d(c)) == 0 for every chain within bounds."""

    max_degree: int
    max_length: int
    checked: tuple
    violations: tuple      # (chain, nonzero d(d(chain))) pairs
    differentials: tuple   # d(chain) as a ChainPoly, aligned with checked

    @property
    def ok(self):
        return not self.violations


def verify_d_squared(system, max_degree, max_length, fuse=DEFAULT_FUSE):
    """Check d(d(c)) == 0 on every chain within the bounds.

    The chain table and the differential table are built once, for these
    bounds; ``fuse`` bounds the sign solving (see _differential_table).
    """
    table = _chain_table(system, max_degree, max_length)
    dtable = _differential_table(system, table, fuse)
    checked = _sorted_chains(table)
    differentials = []
    violations = []
    for chain in checked:
        d1 = _as_chain_poly(system.field, dtable[chain.word])
        d2 = _derivation(system, table, dtable, d1)
        differentials.append(d1)
        if d2:
            violations.append((chain, d2))
    return DSquaredReport(max_degree, max_length, tuple(checked),
                          tuple(violations), tuple(differentials))


def print_chain_poly(poly, names):
    """Display with '|' separating tensor factors: 'x|x^3 - x^3|x'."""
    if not poly.terms:
        return "0"
    from .freealg import RationalField
    rational = isinstance(poly.field, RationalField)
    pieces = []
    for parts, c in poly.sorted_terms():
        if rational and c < 0:
            negative, mag = True, -c
        else:
            negative, mag = False, c
        body = "|".join(print_word(p, names) for p in parts)
        if mag != poly.field.one:
            body = f"{poly.field.format_coeff(mag)}*{body}"
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)
