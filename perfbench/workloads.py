"""Seeded request generators and their output checks.

Each workload draws an endless stream of requests from ``--seed``: the
same seed gives the same documents in the same order.  A request is one
``ncrewrite`` command line over one freshly drawn system document; no
system appears twice in a stream, so no cache inside the program can
serve a request from an earlier one.  Request kinds, fields and
alphabet sizes rotate in a fixed cycle rather than being drawn, so every
run sends the same mix and only the details vary with the seed.

``check(item, code, stdout)`` judges one response with the reference
code in :mod:`reference`, never with the package under test (the one
exception, the Grassmann census on the homology workload, is the
subject of that check and is compared with a string-matching census).
"""

import json
import random
from collections import Counter
from fractions import Fraction

import reference as ref
from reference import CheckError, Field, RefSystem

NAMES = ("x", "y", "z")
Q, F2, F101 = Field(None), Field(2), Field(101)
Q_COEFFS = (1, -1, 2, -2, 3, -5, Fraction(1, 2), Fraction(-2, 3))


class Item:
    """One request: its document, its argv after the document path, and
    what the check needs."""

    __slots__ = ("doc", "args", "system", "meta", "path")

    def __init__(self, doc, args, system, meta=None):
        self.doc = doc
        self.args = args
        self.system = system
        self.meta = meta or {}
        self.path = None

    def argv(self):
        return [self.args[0], self.path, *self.args[1:]]


def _coeff(rng, field):
    if field.p is None:
        return Fraction(rng.choice(Q_COEFFS))
    return rng.randrange(1, field.p)


def _word(rng, ngen, length):
    return "".join(chr(rng.randrange(ngen)) for _ in range(length))


def _deglex_key(rank):
    return lambda w: (len(w), tuple(rank[ord(a)] for a in w))


def homogeneous_system(rng, field, ngen, lens, n_rules, rhs_sizes):
    """Length-homogeneous rules certified by a random deglex precedence.

    Every rhs word is strictly smaller than its lhs under the order and
    has the same length, so the certificate holds by construction and
    the linear uniqueness criterion applies.
    """
    precedence = list(range(ngen))
    rng.shuffle(precedence)
    rank = [0] * ngen
    for pos, i in enumerate(precedence):
        rank[i] = pos
    key = _deglex_key(rank)
    lhss = []
    while len(lhss) < n_rules:
        w = _word(rng, ngen, rng.choice(lens))
        if w not in lhss:
            lhss.append(w)
    rules = []
    for lhs in lhss:
        smaller = [w for w in ref.words_of_length(ngen, len(lhs)) if key(w) < key(lhs)]
        k = min(len(smaller), rng.choice(rhs_sizes))
        rules.append((lhs, {w: _coeff(rng, field) for w in rng.sample(smaller, k)}))
    return RefSystem(NAMES[:ngen], field, rules), precedence


def _system_key(system):
    return (system.field.tag, len(system.names),
            tuple((lhs, tuple(sorted(rhs.items()))) for lhs, rhs in system.rules))


class Workload:
    """An endless, seeded, duplicate-free stream of requests."""

    name = None

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seen = set()
        self.drawn = 0

    def draw(self):
        while True:
            item = self.make(self.drawn)
            key = _system_key(item.system)
            if key not in self.seen:
                self.seen.add(key)
                self.drawn += 1
                return item

    def make(self, i):
        raise NotImplementedError

    def check(self, item, code, stdout):
        raise NotImplementedError


def _load(stdout):
    try:
        return json.loads(stdout)
    except ValueError as e:
        raise CheckError(f"output is not JSON: {e}")


def _expect(cond, message):
    if not cond:
        raise CheckError(message)


def _census_shape(system):
    return Counter((grade, kind) for grade, kind, _ in ref.census(system))


class Decide(Workload):
    """``check --json`` on length-homogeneous systems over Q, F2 and F101."""

    name = "decide"
    FIELDS = (Q, F2, F101)

    def make(self, i):
        field = self.FIELDS[i % 3]
        ngen = (2, 3)[i // 3 % 2]
        lens = (2, 3, 4) if ngen == 2 else (2, 3)
        system, precedence = homogeneous_system(
            self.rng, field, ngen, lens, 2 + i // 6 % 3, (0, 1, 1, 2, 2, 3))
        return Item(system.document(precedence), ["check", "--json"], system)

    def check(self, item, code, stdout):
        _expect(code in (0, 4), f"exit code {code}")
        out = _load(stdout)
        _expect(out["verdict"] == ("Convergent" if code == 0 else "NotConvergent"),
                f"verdict {out['verdict']} with exit code {code}")
        system = item.system
        window = 2 * max(len(w) for w in system.lhss)
        unique = ref.linear_unique(system, window, expected=code == 0)
        _expect(unique == (code == 0),
                f"verdict {out['verdict']} but the linear criterion says unique={unique}")
        got = Counter((ref.parse_word(row["grade"], system.names), row["kind"])
                      for row in out["ambiguities"])
        _expect(got == _census_shape(system), "ambiguity census differs from string matching")


class Reduce(Workload):
    """``nf --json --expr`` on large polynomials, Q and F101."""

    name = "reduce"
    TERMS = 40
    DEGREES = (6, 9)

    def make(self, i):
        field = (Q, F101)[i % 2]
        ngen = (2, 3)[i // 2 % 2]
        lens = (2, 3, 4) if ngen == 2 else (2, 3)
        rng = self.rng
        system, precedence = homogeneous_system(rng, field, ngen, lens, 2 + i // 4 % 3, (1,))
        poly = {}
        while len(poly) < self.TERMS:
            poly[_word(rng, ngen, rng.randint(*self.DEGREES))] = _coeff(rng, field)
        text = ref.format_poly(poly, field, system.names)
        return Item(system.document(precedence), ["nf", "--json", "--expr", text],
                    system, {"input": poly})

    def check(self, item, code, stdout):
        _expect(code == 0, f"exit code {code}")
        out = _load(stdout)
        system = item.system
        names, field = system.names, system.field
        _expect(ref.parse_poly(out["input"], names, field) == item.meta["input"],
                "echoed input differs from the request")
        result = ref.parse_poly(out["normal_form"], names, field)
        _expect(not any(system.reducible(w) for w in result), "normal form is reducible")
        _expect(out["steps"] == len(out["trace"]), "step count differs from the trace")
        steps = [(row["rule"], ref.parse_word(row["prefix"], names),
                  ref.parse_word(row["suffix"], names),
                  field.norm(Fraction(row["coefficient"])))
                 for row in out["trace"]]
        _expect(ref.trace_identity_holds(system, item.meta["input"], result, steps),
                "trace does not rebuild input - output")


class Crosscheck(Workload):
    """``oracle --json --fuse N`` on random length-homogeneous F2 systems.

    The family is the test suite's ``random_f2_system``.  The oracle
    explores the whole reduction graph of a convergent system, so a
    convergent draw whose graphs over the oracle window hold more than
    STATE_CAP polynomials (counted by the reference search) is redrawn;
    the fuse sits far above the cap, so no request runs out of budget.
    """

    name = "crosscheck"
    STATE_CAP = 800
    FUSE = 100_000
    DENSITY = {2: 0.3, 3: 0.22, 4: 0.07}

    def make(self, i):
        rng = self.rng
        ngen = (2, 2, 3)[i % 3]
        lens = (2, 2, 3, 3) if ngen == 3 else (2, 3, 3, 4)
        want = (1, 2, 2, 3)[i // 3 % 4]
        while True:
            lhss = []
            while len(lhss) < want:
                w = _word(rng, ngen, rng.choice(lens))
                if w not in lhss:
                    lhss.append(w)
            rules = []
            for lhs in lhss:
                smaller = [w for w in ref.words_of_length(ngen, len(lhs)) if w < lhs]
                rules.append((lhs, {w: 1 for w in smaller
                                    if rng.random() < self.DENSITY[len(lhs)]}))
            system = RefSystem(("a", "b", "c")[:ngen], F2, rules)
            window = 2 * max(len(w) for w in lhss)
            if ref.reachable_states(system, window, self.STATE_CAP) is not None:
                break
        doc = system.document(list(range(ngen)))
        return Item(doc, ["oracle", "--json", "--fuse", str(self.FUSE)], system,
                    {"window": window})

    def check(self, item, code, stdout):
        _expect(code in (0, 4), f"exit code {code}")
        out = _load(stdout)
        system = item.system
        window = item.meta["window"]
        _expect(out["max_length"] == window, f"window {out['max_length']} != {window}")
        _expect(out["verdict"] == ("Convergent" if code == 0 else "NotConvergent"),
                f"verdict {out['verdict']} with exit code {code}")
        unique = ref.linear_unique(system, window)
        _expect(unique == (code == 0),
                f"verdict {out['verdict']} but the linear criterion says unique={unique}")
        if code == 4:
            witness = ref.parse_word(out["witness"], system.names)
            _expect(len(witness) <= window, "witness longer than the window")
            _expect(ref.has_two_normal_forms(system, witness),
                    f"witness {out['witness']} has a unique normal form")


class Homology(Workload):
    """``chains``, ``homology`` and ``homology --full``, in rotation.

    The first two run on minimal monomial systems over Q, the third on
    length-homogeneous F2 systems.
    """

    name = "homology"
    CHAINS = ("--max-degree", "4", "--max-length", "8")
    MONOMIAL = ("--max-length", "5", "--max-degree", "3")
    FULL = ("--full", "--max-length", "5", "--max-degree", "3")

    def __init__(self, seed, census):
        super().__init__(seed)
        # census(doc, bound) -> the program's Grassmann degree-2 census
        self.census = census

    def _monomial(self, ngen, target):
        rng = self.rng
        lhss = []
        while len(lhss) < target:
            w = _word(rng, ngen, rng.choice((2, 3, 3, 4)))
            if all(w not in u and u not in w for u in lhss):
                lhss.append(w)
        return RefSystem(NAMES[:ngen], Q, [(w, {}) for w in lhss])

    def make(self, i):
        kind = i % 3
        ngen = (2, 3)[i // 3 % 2]
        rules = (2, 3)[i // 6 % 2]
        if kind == 0:
            system = self._monomial(ngen, rules)
            return Item(system.document(), ["chains", "--json", *self.CHAINS], system,
                        {"max_length": 8})
        if kind == 1:
            system = self._monomial(ngen, rules)
            return Item(system.document(), ["homology", "--json", *self.MONOMIAL], system,
                        {"max_length": 5})
        system, _ = homogeneous_system(self.rng, F2, ngen, (2, 3), rules, (0, 1, 2, 3))
        return Item(system.document(), ["homology", "--json", *self.FULL], system,
                    {"max_length": 5})

    def check(self, item, code, stdout):
        _expect(code == 0, f"exit code {code}")
        out = _load(stdout)
        system = item.system
        names = system.names
        max_length = item.meta["max_length"]
        if item.args[0] == "chains":
            _expect(out["d_squared_ok"] is True, "d^2 != 0")
            by_degree = {}
            for row in out["chains"]:
                word = ref.parse_word(row["word"], names)
                by_degree.setdefault(row["degree"], set()).add(word)
            _expect(by_degree.get(0) == {chr(i) for i in range(len(names))},
                    "degree-0 chains are not the generators")
            _expect(by_degree.get(1) == set(system.lhss), "degree-1 chains are not the rules")
            _expect(by_degree.get(2, set()) == ref.minimal_overlap_grades(system, max_length),
                    "degree-2 chains are not the minimal overlaps")
            return
        ngen = len(names)
        degree0 = {row["block"]: row["homology"] for row in out["nonzero"]
                   if row["degree"] == 0}
        if out["mode"] == "monomial":
            _expect(out["blocks"] == sum(ngen ** k for k in range(max_length + 1)),
                    f"{out['blocks']} blocks")
            got = {ref.parse_word(block, names) for block, h in degree0.items() if h == 1}
            _expect(len(got) == len(degree0) and got == ref.irreducible_words(system, max_length),
                    "H_0 is not the span of the irreducible words")
            bound = min(2 * max(len(w) for w in system.lhss), 7 if ngen > 2 else 8)
            _expect(self.census(item.doc, bound) == ref.census(system, bound),
                    "Grassmann degree-2 census differs from string matching")
            return
        _expect(out["mode"] == "full" and out["blocks"] == max_length + 1,
                f"{out['mode']} complex with {out['blocks']} blocks")
        want = {f"length {n}": h
                for n, h in ref.f2_quotient_dims(system, max_length).items() if h}
        _expect(degree0 == want, "H_0 differs from the quotient dimensions")


WORKLOADS = {w.name: w for w in (Decide, Reduce, Crosscheck, Homology)}
