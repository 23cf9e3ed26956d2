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

from .dgmodel import echelon
from .freealg import QQ, Poly, print_order_key, print_terms, print_word
from .rewrite import DEFAULT_FUSE, FuseExceeded

__all__ = [
    "Chain", "DSquaredReport",
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


def _solve_signs(cuts, columns):
    """A +-1 kernel vector of the cut/boundary matrix, canonically chosen.

    columns[j] maps fine tensors to the boundary of cuts[j] taken with
    coefficient +1.  Column j also carries the history entry (0, j), a
    key below every row key (1, tensor), so the echelon over Q records
    each column's combination of the input columns.  A column whose row
    part reduces to zero keeps its own history key on top: it is free,
    and its history is the kernel vector e_j - sum c_i e_i over earlier
    independent columns.  Scans sign assignments for the free columns
    and returns the first combination whose entries all lie in {+1, -1},
    global sign normalized on the first cut.
    """
    tagged = [{(1, key): c for key, c in col.items()} for col in columns]
    for j, col in enumerate(tagged):
        col[(0, j)] = 1
    pivots = echelon(tagged, QQ)
    free = sorted(top[1] for top in pivots if top[0] == 0)
    assert len(free) <= 16, (len(free), cuts)
    kernel = [pivots[(0, j)].items() for j in free]
    n = len(columns)
    for mask in range(1 << len(free)):
        alpha = [0] * n
        for bit, vector in enumerate(kernel):
            flip = (mask >> (len(free) - 1 - bit)) & 1
            for (_, i), c in vector:
                alpha[i] += -c if flip else c
        if all(a == 1 or a == -1 for a in alpha):
            if alpha[0] < 0:
                alpha = [-a for a in alpha]
            return [int(a) for a in alpha]
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
        rows = {key for col in columns for key in col}
        cells += len(rows) * len(cuts)
        if cells > fuse:
            raise FuseExceeded(
                f"chain differential budget {fuse} exhausted: {cells} sign-matrix "
                f"cells at chain {print_word(chain.word, system.alphabet)}")
        signs = _solve_signs(cuts, columns)
        dtable[chain.word] = dict(zip(cuts, signs))
    return dtable


def _in_field(field, terms):
    """The Poly over field of a dict tensor -> integer coefficient."""
    return Poly(field, [(t, field.from_fraction(c)) for t, c in terms.items()])


def chain_differential(system, chain):
    """The minimal-model differential of a chain, as a Poly over chain tensors."""
    n = len(chain.word)
    table = _chain_table(system, n, n)
    if table.get(chain.word) != chain:
        raise ValueError(f"{chain!r} is not a chain of this system")
    dtable = _differential_table(system, table)
    return _in_field(system.field, dtable[chain.word])


@dataclass(frozen=True)
class DSquaredReport:
    """Outcome of checking d(d(c)) == 0 for every chain within bounds."""

    max_degree: int
    max_length: int
    checked: tuple
    violations: tuple      # (chain, nonzero d(d(chain))) pairs
    differentials: tuple   # d(chain) as a Poly, aligned with checked

    @property
    def ok(self):
        return not self.violations


def verify_d_squared(system, max_degree, max_length, fuse=DEFAULT_FUSE):
    """Check d(d(c)) == 0 on every chain within the bounds.

    The chain table and the differential table are built once, for these
    bounds; ``fuse`` bounds the sign solving (see _differential_table).
    d(d(c)) is recomputed from the cuts of c, each expanded once more by
    the graded derivation and taken with its solved sign, so the check
    does not rely on the elimination that found the signs.
    """
    field = system.field
    table = _chain_table(system, max_degree, max_length)
    dtable = _differential_table(system, table, fuse)
    checked = _sorted_chains(table)
    differentials = []
    violations = []
    for chain in checked:
        d1 = dtable[chain.word]
        dd = {}
        for parts, sign in d1.items():
            for key, c in _fine_expansion(table, dtable, parts, sign).items():
                dd[key] = dd.get(key, 0) + c
        differentials.append(_in_field(field, d1))
        d2 = _in_field(field, dd)
        if d2:
            violations.append((chain, d2))
    return DSquaredReport(max_degree, max_length, tuple(checked),
                          tuple(violations), tuple(differentials))


def print_chain_poly(poly, names):
    """Display with '|' separating tensor factors: 'x|x^3 - x^3|x'."""
    def key(item):
        parts = item[0]
        return (sum(map(len, parts)), tuple(map(print_order_key, parts)))
    return print_terms(poly.field, sorted(poly.terms.items(), key=key, reverse=True),
                       lambda parts: "|".join(print_word(p, names) for p in parts))
