"""Rewriting systems on free algebras: reductions, normal forms, oracle.

A system is an alphabet, a coefficient field and a list of rules
``lhs -> rhs`` with the lhs a nonempty word not appearing in the support
of its rhs.  A *basic reduction* replaces one occurrence of one lhs
inside one term; *normal forms* iterate basic reductions with a fixed
deterministic strategy until nothing applies, recording every step in a
:class:`ReductionTrace` whose exact witness identity

    input - output = sum over steps of coeff * a * (lhs - rhs) * b

is checkable by expansion (:meth:`ReductionTrace.verify`).

The strategy needs a termination certificate (see :mod:`ncrewrite.order`)
to know which term to attack first: the reducible term largest under the
certificate quantity, display order breaking ties, then the leftmost
occurrence of the lowest-index rule.  Determinism costs no generality:
with a certified certificate every maximal reduction sequence reaches a
normal form, and whether that normal form is independent of the strategy
is precisely the convergence question the rest of the package decides.

:func:`reduction_graph_oracle` is the dumb counterpart used to
cross-check clever verdicts: it explores *every* reduction sequence from
a monomial and returns the set of distinct irreducible results.
"""

import heapq
import random
from dataclasses import dataclass
from typing import NamedTuple

from .dgmodel import exact_rank
from .freealg import NAME_RE, Occurrence, Poly, iter_words, parse_poly, parse_word

__all__ = [
    "Rule", "System", "TraceStep", "ReductionTrace",
    "FuseExceeded", "ReductionError", "DEFAULT_FUSE",
    "basic_reduction", "normal_form", "is_irreducible", "irreducible_words",
    "reduction_graph_oracle", "oracle_sweep", "distinct_normal_forms",
    "linear_uniqueness_oracle",
]

DEFAULT_FUSE = 10 ** 6


class FuseExceeded(RuntimeError):
    """A step or state budget ran out; the input is uncertified or adversarial."""


class ReductionError(RuntimeError):
    """A supposedly certified certificate failed to decrease along a step."""


@dataclass(frozen=True)
class Rule:
    """One rewriting rule lhs -> rhs."""

    lhs: str
    rhs: Poly

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("rule lhs must be a nonempty word")
        if self.lhs in self.rhs.terms:
            raise ValueError("rule lhs may not occur in the support of its rhs")

    def relation(self):
        """lhs - rhs as a Poly (the relation the rule orients)."""
        return Poly.term(self.rhs.field, self.lhs) - self.rhs


@dataclass(frozen=True)
class System:
    """A rewriting system: alphabet, field, rules.  Immutable and hashable.

    ``minimal`` is computed, never assumed: True iff no lhs has length 1
    and no lhs is a subword of another lhs.
    """

    alphabet: tuple
    rules: tuple
    field: object
    minimal: bool = None

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "rules", tuple(self.rules))
        names = self.alphabet
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for name in names:
            if not NAME_RE.match(name):
                raise ValueError(f"bad generator name {name!r}")
        lhss = [r.lhs for r in self.rules]
        if len(set(lhss)) != len(lhss):
            raise ValueError("rule left-hand sides must be pairwise distinct")
        n = len(names)
        for r in self.rules:
            if r.rhs.field != self.field:
                raise ValueError("rule rhs field differs from the system field")
            for w in (r.lhs, *r.rhs.terms):
                if any(ord(a) >= n for a in w):
                    raise ValueError(f"word uses a generator index >= {n}")
        minimal = all(len(l) > 1 for l in lhss) and not any(
            li in lj for i, li in enumerate(lhss)
            for j, lj in enumerate(lhss) if i != j)
        object.__setattr__(self, "minimal", minimal)

    @classmethod
    def from_strings(cls, names, rule_texts, field):
        """Build a system from (lhs_text, rhs_text) pairs; '0' rhs is fine."""
        names = tuple(names)
        rules = []
        for lhs_text, rhs_text in rule_texts:
            lhs = parse_word(lhs_text, names)
            rhs = (Poly.zero(field) if rhs_text.strip() == "0"
                   else parse_poly(rhs_text, names, field))
            rules.append(Rule(lhs, rhs))
        return cls(names, tuple(rules), field)

    @property
    def lhs_words(self):
        return tuple(r.lhs for r in self.rules)

    def contains_lhs(self, word):
        return any(r.lhs in word for r in self.rules)


class TraceStep(NamedTuple):
    rule_index: int
    occurrence: Occurrence
    coefficient: object


@dataclass(frozen=True)
class ReductionTrace:
    """A reduction path from input to output, step by step."""

    input: Poly
    output: Poly
    steps: tuple

    def witness(self, system):
        """sum over steps of coeff * a * (lhs - rhs) * b, exactly."""
        total = Poly.zero(self.input.field)
        for step in self.steps:
            rule = system.rules[step.rule_index]
            occ = step.occurrence
            total = total + (rule.relation()
                             .sandwich(occ.prefix, occ.suffix)
                             .scale(step.coefficient))
        return total

    def verify(self, system):
        """Exact check of the witness identity input - output == witness."""
        return (self.input - self.output) == self.witness(system)

    def __len__(self):
        return len(self.steps)


def basic_reduction(g, rule, occurrence):
    """Rewrite the single term of g sitting at occurrence.host, if present.

    The term c * (a*lhs*b) becomes c * a*rhs*b; every other term is left
    alone, and a g without that word is returned unchanged.
    """
    if occurrence.pattern != rule.lhs:
        raise ValueError("occurrence pattern does not match the rule lhs")
    host = occurrence.host
    if not g.terms.get(host):
        return g
    a, b = occurrence.prefix, occurrence.suffix
    images = [(a + w + b, d) for w, d in rule.rhs.terms.items()]
    return Poly._raw(g.field, _reduct_terms(g.field, g.terms, host, images))


def _reduct_terms(field, terms, host, images):
    """A new term dict: the term c * host replaced by c * d * u for each
    (u, d) in images."""
    add, mul, zero = field.add, field.mul, field.zero
    out = dict(terms)
    c = out.pop(host)
    for u, d in images:
        s = add(out.get(u, zero), mul(c, d))
        if s:
            out[u] = s
        elif u in out:
            del out[u]
    return out


def is_irreducible(system, g):
    return not any(system.contains_lhs(m) for m in g.terms)


class _Largest(tuple):
    """A heap entry that heapq pops largest first: heapq is a min-heap."""

    __slots__ = ()

    def __lt__(self, other):
        return tuple.__gt__(self, other)


def normal_form(system, g, certificate, max_steps=DEFAULT_FUSE):
    """Reduce g to a normal form under the deterministic strategy.

    Requires a Certified termination certificate (the caller's duty to
    have checked; an uncertified one trips ReductionError on the first
    non-decreasing step or, at worst, the step fuse).  Returns
    ``(normal_form, trace)``.

    The terms are copied once and rewritten in place.  The reducible
    words wait in a max-heap keyed by ``(certificate key, len, word)``;
    every rhs word is certified smaller than its host, so popping the
    heap yields the host a full rescan would pick.  A step costs one lhs
    search in its host, one certificate key per new word (cached for the
    call), and O(log q) heap work for each of its rhs words that becomes
    reducible, q being the number of queued words.  It never visits the
    other terms.  Words whose term cancelled stay queued and are skipped
    when popped.
    """
    cert_key = {}

    def ck(w):
        k = cert_key.get(w)
        if k is None:
            k = cert_key[w] = certificate.sort_key(w)
        return k

    rules = system.rules
    lhss = [r.lhs for r in rules]
    field = g.field
    add, mul, zero = field.add, field.mul, field.zero
    terms = dict(g.terms)
    heap = [_Largest((ck(m), len(m), m))
            for m in terms if any(l in m for l in lhss)]
    heapq.heapify(heap)
    # every word ever pushed: a popped word never comes back, because all
    # later hosts, and so all words pushed after it, are smaller
    queued = {entry[2] for entry in heap}
    steps = []
    while heap:
        best = heapq.heappop(heap)[2]
        c = terms.pop(best, None)
        if c is None:
            continue
        if len(steps) >= max_steps:
            raise FuseExceeded(
                f"no normal form within {max_steps} steps; "
                f"is the certificate really certified?")
        for rule_index, rule in enumerate(rules):
            at = best.find(rule.lhs)
            if at != -1:
                break
        a, b = best[:at], best[at + len(rule.lhs):]
        occ = Occurrence(a, rule.lhs, b)
        images = [(a + w + b, d) for w, d in rule.rhs.terms.items()]
        host_ck = ck(best)
        for u, _ in images:
            if not ck(u) < host_ck:
                raise ReductionError(
                    f"certificate does not decrease across rule {rule_index} "
                    f"at {occ!r}; it cannot be Certified")
        steps.append(TraceStep(rule_index, occ, c))
        for u, d in images:
            s = add(terms.get(u, zero), mul(c, d))
            if s:
                terms[u] = s
                if u not in queued and any(l in u for l in lhss):
                    queued.add(u)
                    heapq.heappush(heap, _Largest((ck(u), len(u), u)))
            elif u in terms:
                del terms[u]
    out = Poly._raw(field, terms)
    return out, ReductionTrace(input=g, output=out, steps=tuple(steps))


def irreducible_words(system, max_length):
    """All words of length <= max_length with no lhs as a subword.

    Returned ascending in display order (empty word first).  The
    language is closed under subwords, so extension by one letter only
    needs a suffix check.
    """
    letters = [chr(i) for i in range(len(system.alphabet))]
    lhss = system.lhs_words
    out = [""]
    frontier = [""]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for a in letters:
                u = w + a
                if not any(u.endswith(l) for l in lhss):
                    nxt.append(u)
        out.extend(nxt)
        frontier = nxt
    return out


def _reduction_sites(system, word):
    """The images of every basic reduction of a word, one tuple of
    (word, coefficient) pairs per site: rules in order, occurrences left
    to right."""
    sites = []
    for rule in system.rules:
        lhs = rule.lhs
        at = word.find(lhs)
        while at != -1:
            a, b = word[:at], word[at + len(lhs):]
            sites.append(tuple((a + w + b, d) for w, d in rule.rhs.terms.items()))
            at = word.find(lhs, at + 1)
    return sites


def _one_step_reducts(system, terms, key, sites):
    """Every one-step reduct of a polynomial, without repeats.

    The polynomial comes as its term dict and its key
    ``frozenset(terms.items())``; ``sites`` caches _reduction_sites per
    word for the caller.  Returns ``(key, step)`` pairs in the order
    terms (dict order), then rules, then occurrences left to right;
    ``_reduct_terms(field, terms, *step)`` spells out the reduct.  A
    reduct's key is its parent's with the changed items toggled, so the
    unchanged terms are neither copied into a dict nor hashed again.
    """
    field = system.field
    add, mul = field.add, field.mul
    outs = []
    seen = set()
    for m, c in terms.items():
        word_sites = sites.get(m)
        if word_sites is None:
            word_sites = sites[m] = _reduction_sites(system, m)
        for images in word_sites:
            toggled = [(m, c)]
            for u, d in images:
                old = terms.get(u)
                if old is None:
                    toggled.append((u, mul(c, d)))
                else:
                    toggled.append((u, old))
                    s = add(old, mul(c, d))
                    if s:
                        toggled.append((u, s))
            h = key.symmetric_difference(toggled)
            if h not in seen:
                seen.add(h)
                outs.append((h, (m, images)))
    return outs


def _graph_walk(system, word, max_states, memo, sites, stop_at_two=False):
    """Normal forms of the word, by exhaustive walk of its reduction graph.

    ``memo`` maps the key of every explored polynomial to the frozenset
    of the keys of its normal forms, and ``sites`` maps words to their
    _reduction_sites; both stay valid across calls.  With ``stop_at_two``
    the walk returns the first normal-form set with two or more elements
    that it meets: every normal form of a reachable polynomial is one of
    the word's, so the word then has several and nothing further needs
    exploring.
    """
    field = system.field
    start_terms = {word: field.one}
    start = frozenset(start_terms.items())
    if start in memo:
        return memo[start]
    in_progress = set()
    pending_reducts = {}
    # entries (key, terms, step): the polynomial is terms reduced by step,
    # or terms itself when step is None; terms None: its reducts are done
    stack = [(start, start_terms, None)]
    while stack:
        g, terms, step = stack.pop()
        if terms is None:
            in_progress.discard(g)
            merged = frozenset().union(*(memo[h] for h in pending_reducts.pop(g)))
            memo[g] = merged
            if stop_at_two and len(merged) > 1:
                return merged
            continue
        if g in memo:
            if stop_at_two and len(memo[g]) > 1:
                return memo[g]
            continue
        if g in in_progress:
            raise ReductionError("reduction cycle detected; the system cannot terminate")
        if step is not None:
            terms = _reduct_terms(field, terms, *step)
        reducts = _one_step_reducts(system, terms, g, sites)
        if not reducts:
            memo[g] = frozenset([g])
            continue
        if len(memo) + len(in_progress) > max_states:
            raise FuseExceeded(f"oracle state budget {max_states} exhausted")
        in_progress.add(g)
        pending_reducts[g] = [h for h, _ in reducts]
        stack.append((g, None, None))
        for h, h_step in reducts:
            if h not in memo:
                stack.append((h, terms, h_step))
    return memo[start]


def reduction_graph_oracle(system, word, max_states=200_000, cache=None):
    """Every irreducible result of every reduction sequence from the word.

    Brute force by design: the reduction graph is explored exhaustively
    (memoized over its polynomials, so shared diamonds are walked once)
    and the frozenset of distinct normal forms is returned.  The system
    is convergent on this input iff the result has exactly one element.

    ``cache`` may be shared across calls for sweeps over many words;
    ``max_states`` bounds the number of distinct polynomials explored
    (FuseExceeded beyond, which also catches non-terminating inputs).
    """
    memo = cache if cache is not None else {}
    field = system.field
    return frozenset(Poly._raw(field, dict(k))
                     for k in _graph_walk(system, word, max_states, memo, {}))


def _likely_witnesses(system):
    """Overlap grades of the lhs set, cheapest plausible nonuniqueness sites."""
    lhss = system.lhs_words
    grades = set()
    for u1 in lhss:
        for u2 in lhss:
            for k in range(1, len(u1)):
                shared = u1[k:]
                if len(shared) < len(u2) and u2.startswith(shared):
                    grades.add(u1[:k] + u2)
    return sorted(grades, key=lambda w: (len(w), w))


def linear_uniqueness_oracle(system, max_length):
    """Decide normal-form uniqueness on all words of length <= max_length
    by exact linear algebra, with no reduction graph at all.

    Works for length-homogeneous systems only (every rhs term as long as
    its lhs), where reductions preserve length and the degrees decouple.
    For such a system and a fixed degree d, write I_d for the span of all
    ``a * (lhs - rhs) * b`` of total degree d (the degree-d slice of the
    two-sided ideal of the relations) and N_d for the span of the
    irreducible words of length d.  Then every length-d word has a unique
    set of reachable normal forms iff ``I_d`` meets ``N_d`` trivially:

    * two distinct normal forms of one word differ by a nonzero element
      of ``I_d`` supported on irreducible words;
    * conversely, when every word is unique the normal-form map extends
      linearly, kills ``I_d``, and fixes ``N_d`` pointwise, forcing the
      intersection to zero.  (Linearity needs an induction up the
      reduction order: all one-step reducts of a polynomial share the
      normal form of the polynomial obtained by normalizing each term.)

    The intersection is nonzero iff the rank of the generator matrix
    drops after deleting the irreducible columns.  Returns
    ``(all_unique, first_bad_length)`` with the second component None
    when all degrees are clean.  This is deliberately independent of both
    the reduction machinery and the ambiguity calculus, and it stays
    cheap on inputs whose reduction graphs are astronomically large.
    """
    for rule in system.rules:
        if any(len(m) != len(rule.lhs) for m in rule.rhs.terms):
            raise ValueError("linear uniqueness oracle needs a"
                             " length-homogeneous system")
    field = system.field
    by_len = {}
    for w in iter_words(len(system.alphabet), max_length):
        by_len.setdefault(len(w), []).append(w)
    for d in range(1, max_length + 1):
        words = by_len.get(d, [])
        irr = {w for w in words if not system.contains_lhs(w)}
        if len(irr) == len(words):
            continue
        rows = []
        for rule in system.rules:
            gap = d - len(rule.lhs)
            for la in range(gap + 1):
                for a in by_len[la]:
                    for b in by_len[gap - la]:
                        row = {a + rule.lhs + b: field.one}
                        row.update((a + m + b, field.neg(c))
                                   for m, c in rule.rhs.terms.items())
                        rows.append(row)
        proj = [{w: c for w, c in r.items() if w not in irr} for r in rows]
        if exact_rank(rows, field) != exact_rank(proj, field):
            return False, d
    return True, None


def distinct_normal_forms(system, word, tries=4, rng=None, max_steps=DEFAULT_FUSE):
    """Normal forms found by ``tries`` randomized maximal reduction sequences.

    Each pass picks a uniformly random basic reduction until none applies,
    so every returned polynomial really is reachable from the word.  The
    result is therefore a *subset* of :func:`reduction_graph_oracle`: two
    distinct elements prove nonuniqueness outright, while a singleton
    proves nothing.  Cost is linear in the reduction length per pass,
    with none of the oracle's state-space blowup.
    """
    if rng is None:
        rng = random.Random(0)
    field = system.field
    sites = {}
    found = {}
    for _ in range(max(1, tries)):
        terms = {word: field.one}
        key = frozenset(terms.items())
        for _ in range(max_steps):
            reducts = _one_step_reducts(system, terms, key, sites)
            if not reducts:
                break
            key, step = reducts[rng.randrange(len(reducts))]
            terms = _reduct_terms(field, terms, *step)
        else:
            raise FuseExceeded(f"step budget {max_steps} exhausted on {word!r}")
        found[key] = terms
        if len(found) > 1:
            break
    return {Poly._raw(field, terms) for terms in found.values()}


def oracle_sweep(system, max_length, max_states=200_000, cache=None):
    """Oracle every word of length <= max_length.

    Returns ``(all_unique, witness_word, words_checked)`` where
    witness_word is some word with >= 2 distinct normal forms (None when
    all_unique).  Irreducible words are their own unique normal form and
    are counted without exploration.  Overlap grades of the rule set are
    screened first by randomized passes so that nonconvergent systems
    usually fail fast, and a word whose graph walk blows the state budget
    gets one last randomized screen before FuseExceeded propagates; the
    verdict itself never depends on any of this ordering.
    """
    if cache is None:
        cache = {}
    rng = random.Random(0)
    sites = {}
    checked = 0
    seen = set()
    priority = [w for w in _likely_witnesses(system) if len(w) <= max_length]
    for n, w in enumerate(priority, 1):
        if len(distinct_normal_forms(system, w, tries=4, rng=rng)) > 1:
            return False, w, n
    for w in priority + list(iter_words(len(system.alphabet), max_length)):
        if w in seen:
            continue
        seen.add(w)
        checked += 1
        if not system.contains_lhs(w):
            continue
        try:
            nonunique = len(_graph_walk(system, w, max_states, cache, sites, True)) > 1
        except FuseExceeded:
            if len(distinct_normal_forms(system, w, tries=32, rng=rng)) > 1:
                return False, w, checked
            raise
        if nonunique:
            return False, w, checked
    return True, None, checked
