"""Termination certificates for rewriting on free algebras.

Two certificate families are supported.

* :class:`DeglexOrder`: weighted degree-lexicographic orders.  Words are
  compared by total weight (each generator carries a positive integer
  weight), ties broken lexicographically through a fixed precedence
  permutation of the generators.  Positive weights make this a total
  well-order compatible with concatenation on both sides, so checking
  rules head-to-head suffices: a rule w -> f(w) decreases iff every word
  of f(w) is strictly smaller than w.

* :class:`MeasureCertificate`: occurrence-count measures.  The measure
  of a word m is ``phi(m) = sum_p coeff(p) * #occurrences(p, m)`` over a
  finite pattern list with non-negative integer coefficients.  phi is
  not multiplicative, so a rule must be checked inside contexts:
  ``phi(a*m'*b) < phi(a*w*b)`` for all words a, b.

The context check is finite.  Write L for the longest pattern length.
In ``a*m*b`` every occurrence of a pattern p lies inside a, inside b, or
touches m (or, when m is empty, crosses the a-b seam); occurrences
inside a or b are identical between ``a*w*b`` and ``a*m'*b`` and cancel
from the difference, while a touching or seam-crossing occurrence covers
at most |p|-1 <= L-1 letters of a and of b.  Hence
``phi(a*w*b) - phi(a*m'*b)`` depends on a only through its last L-1
letters and on b only through its first L-1 letters, and checking every
context with |a|, |b| <= L-1 is sound and complete for this family.
"""

from typing import NamedTuple

from .freealg import count_occurrences, iter_words

__all__ = [
    "DeglexOrder", "MeasureCertificate", "CertResult",
    "DeglexWitness", "MeasureWitness",
    "certify_deglex", "certify_measure",
]


class CertResult(NamedTuple):
    """Outcome of a certificate check: Certified, or Failed with witnesses."""

    certified: bool
    witnesses: tuple

    @property
    def verdict(self):
        return "Certified" if self.certified else "Failed"


class DeglexWitness(NamedTuple):
    rule_index: int
    lhs: str
    word: str          # word of the rhs with lhs <= word in the order


class MeasureWitness(NamedTuple):
    rule_index: int
    word: str          # offending rhs word m'
    left: str          # context a
    right: str         # context b
    phi_host: int      # phi(a*lhs*b)
    phi_result: int    # phi(a*m'*b)


class DeglexOrder:
    """Weighted deglex order on words over n generators.

    ``weights[i]`` is the positive integer weight of generator i;
    ``precedence`` lists the generator indices from smallest to largest
    and breaks weight ties lexicographically.
    """

    __slots__ = ("weights", "precedence", "_unit", "_ranks")

    def __init__(self, n_generators, weights=None, precedence=None):
        if weights is None:
            weights = (1,) * n_generators
        weights = tuple(weights)
        if len(weights) != n_generators:
            raise ValueError("one weight per generator required")
        if any(not isinstance(w, int) or w < 1 for w in weights):
            raise ValueError(f"weights must be positive integers: {weights}")
        if precedence is None:
            precedence = tuple(range(n_generators))
        precedence = tuple(precedence)
        if sorted(precedence) != list(range(n_generators)):
            raise ValueError(f"precedence must be a permutation of 0..{n_generators - 1}")
        self.weights = weights
        self.precedence = precedence
        self._unit = all(w == 1 for w in weights)
        self._ranks = {i: chr(pos) for pos, i in enumerate(precedence)}

    def weight(self, word):
        weights = self.weights
        return sum(weights[ord(a)] for a in word)

    def sort_key(self, word):
        """``(weight, word with letter i replaced by chr(rank of i))``; the
        word compares as the tuple of its letters' ranks would."""
        return (len(word) if self._unit else self.weight(word),
                word.translate(self._ranks))

    def compare(self, u, v):
        """-1, 0 or 1 as u <, = or > v.  Equality only for identical words."""
        ku, kv = self.sort_key(u), self.sort_key(v)
        if ku < kv:
            return -1
        if ku > kv:
            return 1
        assert u == v, (u, v)
        return 0

    def __eq__(self, other):
        return (isinstance(other, DeglexOrder)
                and other.weights == self.weights
                and other.precedence == self.precedence)

    def __hash__(self):
        return hash((self.weights, self.precedence))

    def __repr__(self):
        return f"DeglexOrder({len(self.weights)}, {self.weights}, {self.precedence})"


class MeasureCertificate:
    """An occurrence-count measure: phi(m) = sum of coeff(p) * #occurrences(p, m)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coefficients = dict(coefficients)
        for pattern, coeff in coefficients.items():
            if not pattern:
                raise ValueError("measure pattern must be a nonempty word")
            if not isinstance(coeff, int) or coeff < 0:
                raise ValueError(f"measure coefficient must be a non-negative int: {coeff}")
        self.coefficients = coefficients

    @property
    def max_pattern_length(self):
        return max((len(p) for p in self.coefficients), default=1)

    def phi(self, word):
        return sum(c * count_occurrences(p, word)
                   for p, c in self.coefficients.items() if c)

    def sort_key(self, word):
        return self.phi(word)

    def __eq__(self, other):
        return (isinstance(other, MeasureCertificate)
                and other.coefficients == self.coefficients)

    def __repr__(self):
        return f"MeasureCertificate({self.coefficients})"


def certify_deglex(system, order):
    """Check that every rule strictly decreases under a deglex order."""
    if len(order.weights) != len(system.alphabet):
        raise ValueError("order and system disagree on the number of generators")
    witnesses = []
    for i, rule in enumerate(system.rules):
        lhs_key = order.sort_key(rule.lhs)
        for w in rule.rhs.terms:
            if not order.sort_key(w) < lhs_key:
                witnesses.append(DeglexWitness(i, rule.lhs, w))
    return CertResult(not witnesses, tuple(witnesses))


def certify_measure(system, cert):
    """Check a measure certificate over all bounded contexts.

    Contexts a, b range over all words of length <= L-1 where L is the
    longest pattern length; by the seam argument in the module docstring
    this finite sweep is equivalent to quantifying over all contexts.
    Each offending (rule, rhs word) is reported with its first failing
    context, scanning contexts shortest first.
    """
    contexts = list(iter_words(len(system.alphabet), cert.max_pattern_length - 1))
    phi = cert.phi
    witnesses = []
    for i, rule in enumerate(system.rules):
        for w in rule.rhs.terms:
            for a in contexts:
                hit = None
                for b in contexts:
                    host, result = phi(a + rule.lhs + b), phi(a + w + b)
                    if result >= host:
                        hit = MeasureWitness(i, w, a, b, host, result)
                        break
                if hit is not None:
                    witnesses.append(hit)
                    break
    return CertResult(not witnesses, tuple(witnesses))
