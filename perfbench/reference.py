"""Reference arithmetic and output checks, independent of ncrewrite.

Nothing here imports the package under test.  Words are Python strings
whose code points are generator indices (generator ``i`` is ``chr(i)``),
polynomials are dicts word -> nonzero coefficient, and a field is a
:class:`Field`: the rationals (``p is None``, coefficients are
``Fraction``) or integers modulo a prime ``p``.

The checks take what a request printed and decide whether it is right
by a route that shares no code with the request:

* convergence verdicts: the linear uniqueness criterion (for
  length-homogeneous systems, every word of length d has one normal form
  iff the degree-d slice of the ideal meets the span of the irreducible
  words trivially), decided by exact rank over the system field;
* nonconvergence witnesses over F2: a search of the reduction graph on
  bitmask-encoded polynomials for two distinct normal forms;
* normal forms: the witness identity
  ``input - output = sum coeff * prefix * (lhs - rhs) * suffix``
  rebuilt from the printed trace, plus irreducibility of the output;
* ambiguity censuses, degree-2 chains and degree-0 homology by direct
  string matching and counting.
"""

import random
import re
from fractions import Fraction

# Q ranks are first taken modulo this prime; a disagreement with the
# program is re-decided with exact Fractions before it counts.
SCREEN_PRIME = (1 << 61) - 1


class CheckError(AssertionError):
    """A request's output failed its reference check."""


class Field:
    __slots__ = ("p",)

    def __init__(self, p=None):
        self.p = p

    @property
    def tag(self):
        return "Q" if self.p is None else f"F{self.p}"

    def norm(self, q):
        """A Fraction (or int) as an element of this field."""
        q = Fraction(q)
        if self.p is None:
            return q
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else -a % self.p


# ---------------------------------------------------------------------------
# text grammar: sign? term (sign term)*, term = coeff ('*' factors)? | factors

_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|(\d+)|([-+*/^]))")


def format_word(word, names):
    return "*".join(names[ord(a)] for a in word) if word else "1"


def format_coeff(field, c):
    return str(c) if field.p is None else str(c % field.p)


def format_poly(poly, field, names):
    """Text for a polynomial, terms in a fixed order; '0' when empty."""
    pieces = []
    for word in sorted(poly, key=lambda w: (len(w), w), reverse=True):
        c = poly[word]
        negative = field.p is None and c < 0
        mag = -c if negative else c
        if not word:
            body = format_coeff(field, mag)
        elif mag == 1:
            body = format_word(word, names)
        else:
            body = f"{format_coeff(field, mag)}*{format_word(word, names)}"
        if pieces:
            pieces.append((" - " if negative else " + ") + body)
        else:
            pieces.append("-" + body if negative else body)
    return "".join(pieces) or "0"


def _tokens(text):
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise CheckError(f"cannot tokenize {text!r} at {pos}")
        out.append(m.groups())
        pos = m.end()
    return out


def parse_poly(text, names, field):
    index = {n: chr(i) for i, n in enumerate(names)}
    toks = _tokens(text)
    poly = {}
    i = 0
    sign = 1
    while i < len(toks):
        name, num, op = toks[i]
        if op in ("+", "-"):
            sign = -1 if op == "-" else 1
            i += 1
            continue
        coeff = Fraction(sign)
        word = []
        has_factors = True
        if num is not None:
            coeff *= int(num)
            i += 1
            if i < len(toks) and toks[i][2] == "/":
                coeff /= int(toks[i + 1][1])
                i += 2
            has_factors = i < len(toks) and toks[i][2] == "*"
            if has_factors:
                i += 1
        if has_factors:
            while i < len(toks):
                name = toks[i][0]
                if name not in index:
                    raise CheckError(f"unknown generator in {text!r}")
                i += 1
                power = 1
                if i < len(toks) and toks[i][2] == "^":
                    power = int(toks[i + 1][1])
                    i += 2
                word.append(index[name] * power)
                if i < len(toks) and toks[i][2] == "*":
                    i += 1
                else:
                    break
        w = "".join(word)
        c = field.add(poly.get(w, field.norm(0)), field.norm(coeff))
        if c:
            poly[w] = c
        else:
            poly.pop(w, None)
        sign = 1
    return poly


def parse_word(text, names):
    if text == "1":
        return ""
    poly = parse_poly(text, names, Field(None))
    if len(poly) != 1 or next(iter(poly.values())) != 1:
        raise CheckError(f"not a word: {text!r}")
    return next(iter(poly))


# ---------------------------------------------------------------------------
# systems

class RefSystem:
    """Alphabet size, field and rules (lhs word, rhs dict) of one document."""

    __slots__ = ("names", "field", "rules")

    def __init__(self, names, field, rules):
        self.names = tuple(names)
        self.field = field
        self.rules = tuple(rules)

    @property
    def lhss(self):
        return [lhs for lhs, _ in self.rules]

    def reducible(self, word):
        return any(lhs in word for lhs, _ in self.rules)

    def document(self, precedence=None):
        names = list(self.names)
        doc = {"field": self.field.tag, "generators": names,
               "rules": [{"lhs": format_word(lhs, names),
                          "rhs": format_poly(rhs, self.field, names)}
                         for lhs, rhs in self.rules]}
        if precedence is not None:
            doc["certificate"] = {"deglex": {"order": [names[i] for i in precedence]}}
        return doc


def words_of_length(ngen, d):
    words = [""]
    for _ in range(d):
        words = [w + chr(a) for w in words for a in range(ngen)]
    return words


# ---------------------------------------------------------------------------
# linear uniqueness criterion

def _rank(rows, p):
    """Rank of sparse rows {col: coeff} over F_p, or over Q when p is None."""
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            top = max(row)
            prow = pivots.get(top)
            if prow is None:
                pivots[top] = row
                rank += 1
                break
            if p is None:
                f = row[top] / prow[top]
            else:
                f = row[top] * pow(prow[top], -1, p) % p
            for col, v in prow.items():
                nv = row.get(col, 0) - f * v
                if p is not None:
                    nv %= p
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
    return rank


def _f2_rank(rows):
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length()
            if top in pivots:
                row ^= pivots[top]
            else:
                pivots[top] = row
                rank += 1
                break
    return rank


def ideal_rows(system, d, p):
    """Rows a*(lhs - rhs)*b of total length d over the words of length d.

    Over F2 (p == 2) a row is an int bitmask; otherwise a dict
    column -> coefficient mod p (p is None keeps Fractions).
    """
    ngen = len(system.names)
    words = words_of_length(ngen, d)
    col = {w: i for i, w in enumerate(words)}
    contexts = {k: words_of_length(ngen, k) for k in range(d + 1)}
    rows = []
    for lhs, rhs in system.rules:
        gap = d - len(lhs)
        if gap < 0:
            continue
        for la in range(gap + 1):
            for a in contexts[la]:
                for b in contexts[gap - la]:
                    if p == 2:
                        row = 1 << col[a + lhs + b]
                        for w in rhs:
                            row ^= 1 << col[a + w + b]
                    else:
                        row = {col[a + lhs + b]: 1}
                        for w, c in rhs.items():
                            c = -c if p is None else (-c) % p
                            if c:
                                row[col[a + w + b]] = c
                    rows.append(row)
    return words, rows


def _coefficients_mod(system, p):
    """The system with every coefficient mapped into F_p (Q systems only)."""
    rules = []
    for lhs, rhs in system.rules:
        rules.append((lhs, {w: c.numerator * pow(c.denominator, -1, p) % p
                            for w, c in rhs.items()}))
    return RefSystem(system.names, Field(p), rules)


def _unique_at(system, d, p):
    words, rows = ideal_rows(system, d, p)
    reducible = [system.reducible(w) for w in words]
    if not any(reducible):
        return True
    if p == 2:
        mask = 0
        for i, r in enumerate(reducible):
            if r:
                mask |= 1 << i
        return _f2_rank(rows) == _f2_rank([r & mask for r in rows])
    proj = [{c: v for c, v in r.items() if reducible[c]} for r in rows]
    return _rank(rows, p) == _rank(proj, p)


def linear_unique(system, max_length, expected=None):
    """True iff every word of length <= max_length has one normal form.

    The system must be length-homogeneous.  Over Q the ranks are taken
    modulo SCREEN_PRIME; when ``expected`` is given and the screen
    disagrees with it, the answer is recomputed with exact Fractions.
    """
    p = system.field.p
    screened = system if p is not None else _coefficients_mod(system, SCREEN_PRIME)
    q = screened.field.p
    verdict = all(_unique_at(screened, d, q) for d in range(1, max_length + 1))
    if p is None and expected is not None and verdict != expected:
        verdict = all(_unique_at(system, d, None) for d in range(1, max_length + 1))
    return verdict


def f2_quotient_dims(system, max_length):
    """dict n -> dim of (free algebra / ideal) in length n, over F2."""
    dims = {}
    for n in range(max_length + 1):
        words, rows = ideal_rows(system, n, 2)
        dims[n] = len(words) - _f2_rank(rows)
    return dims


# ---------------------------------------------------------------------------
# F2 reduction graphs

class F2Graph:
    """Reduction moves on F2 polynomials of one length, as bitmasks.

    Bit i of a polynomial stands for the i-th word of that length; a
    basic reduction of the term at word i is an xor with a precomputed
    mask.
    """

    def __init__(self, system, length):
        self.system = system
        self.words = words_of_length(len(system.names), length)
        self.col = {w: i for i, w in enumerate(self.words)}
        self.moves = {}

    def word_moves(self, i):
        got = self.moves.get(i)
        if got is None:
            w = self.words[i]
            got = []
            for lhs, rhs in self.system.rules:
                at = w.find(lhs)
                while at != -1:
                    a, b = w[:at], w[at + len(lhs):]
                    x = 1 << i
                    for v in rhs:
                        x ^= 1 << self.col[a + v + b]
                    got.append(x)
                    at = w.find(lhs, at + 1)
            self.moves[i] = got
        return got

    def reducts(self, mask):
        out = set()
        m = mask
        while m:
            low = m & -m
            for x in self.word_moves(low.bit_length() - 1):
                out.add(mask ^ x)
            m ^= low
        return out


def reachable_states(system, max_length, cap):
    """Distinct F2 polynomials reachable from the reducible words of
    length <= max_length (the words themselves included), or None once
    there are more than cap."""
    total = 0
    for d in range(1, max_length + 1):
        graph = F2Graph(system, d)
        seen = set()
        for i, w in enumerate(graph.words):
            if not system.reducible(w) or (1 << i) in seen:
                continue
            stack = [1 << i]
            seen.add(stack[0])
            while stack:
                for h in graph.reducts(stack.pop()):
                    if h not in seen:
                        seen.add(h)
                        stack.append(h)
                if total + len(seen) > cap:
                    return None
        total += len(seen)
    return total


def has_two_normal_forms(system, word, walks=64, max_states=400_000):
    """Does the word reach two distinct irreducible F2 polynomials?

    Random maximal walks come first; an exhaustive memoized search of
    the reduction graph settles the rest.  Raises CheckError when the
    state budget runs out before an answer.
    """
    graph = F2Graph(system, len(word))
    start = 1 << graph.col[word]
    rng = random.Random(len(word))
    seen = set()
    for _ in range(walks):
        g = start
        while True:
            nxt = graph.reducts(g)
            if not nxt:
                break
            g = rng.choice(sorted(nxt))
        seen.add(g)
        if len(seen) > 1:
            return True
    memo = {}
    stack = [(start, False)]
    pending = {}
    while stack:
        g, expanded = stack.pop()
        if expanded:
            merged = frozenset().union(*(memo[h] for h in pending.pop(g)))
            memo[g] = merged
            if len(merged) > 1:
                return True
            continue
        if g in memo:
            continue
        nxt = graph.reducts(g)
        if not nxt:
            memo[g] = frozenset([g])
            continue
        if len(memo) > max_states:
            raise CheckError(f"witness search budget {max_states} exhausted")
        pending[g] = nxt
        stack.append((g, True))
        stack.extend((h, False) for h in nxt if h not in memo)
    return len(memo[start]) > 1


# ---------------------------------------------------------------------------
# string-matching census

def census(system, max_length=None):
    """Overlap and inclusion ambiguities as sorted (grade, kind, divisors).

    divisors are the two lhs occurrences as ((start, rule), (start, rule))
    ordered by (start, end, rule), the format of the Grassmann census.
    """
    out = []
    lhss = system.lhss
    for i, u1 in enumerate(lhss):
        for j, u2 in enumerate(lhss):
            for k in range(1, len(u1)):
                shared = u1[k:]
                if len(shared) < len(u2) and u2.startswith(shared):
                    grade = u1 + u2[len(shared):]
                    occ = sorted([(0, len(u1), i), (k, k + len(u2), j)])
                    out.append((grade, "overlap", tuple((s, r) for s, _, r in occ)))
            if i != j and len(u2) < len(u1):
                at = u1.find(u2)
                while at != -1:
                    occ = sorted([(0, len(u1), i), (at, at + len(u2), j)])
                    out.append((u1, "inclusion", tuple((s, r) for s, _, r in occ)))
                    at = u1.find(u2, at + 1)
    if max_length is not None:
        out = [e for e in out if len(e[0]) <= max_length]
    return sorted(out)


def count_lhs_occurrences(system, word):
    n = 0
    for lhs in system.lhss:
        at = word.find(lhs)
        while at != -1:
            n += 1
            at = word.find(lhs, at + 1)
    return n


def minimal_overlap_grades(system, max_length):
    return {grade for grade, kind, _ in census(system, max_length)
            if kind == "overlap" and count_lhs_occurrences(system, grade) == 2}


def irreducible_words(system, max_length):
    ngen = len(system.names)
    return {w for d in range(max_length + 1) for w in words_of_length(ngen, d)
            if not system.reducible(w)}


# ---------------------------------------------------------------------------
# reduction identity

def trace_identity_holds(system, input_poly, output_poly, steps):
    """input - output == sum over steps of coeff * prefix * (lhs - rhs) * suffix."""
    f = system.field
    acc = dict(input_poly)

    def bump(w, c):
        v = f.add(acc.get(w, f.norm(0)), c)
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)

    for w, c in output_poly.items():
        bump(w, f.neg(c))
    for rule_index, a, b, c in steps:
        lhs, rhs = system.rules[rule_index]
        bump(a + lhs + b, f.neg(c))
        for w, d in rhs.items():
            bump(a + w + b, f.mul(c, d))
    return not acc
