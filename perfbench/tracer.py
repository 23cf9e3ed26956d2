"""Spans and counters recorded around ncrewrite's layers, from outside.

:class:`Recorder` replaces public functions of the package with thin
wrappers at the module attributes their callers look them up through
(``ncrewrite.cli.check_convergence``, ``ncrewrite.ambiguity.normal_form``,
``ncrewrite.dgmodel.exact_rank``, ...).  While a request is in flight
each wrapped call records a span (request id, span id, parent span id,
name, start and end in ns) and bumps counters at the same boundary;
between requests the wrappers only forward.  Spans stay in memory and
are written out once, at the end of the run; per-name call counts,
inclusive and self times are kept as they go, so self time is a span's
duration minus the time its direct children cover.
"""

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter_ns


class Recorder:
    def __init__(self, span_cap=300_000):
        # spans past span_cap still count in the totals but are not kept
        self.request = None
        self.flags = set()
        self.stack = []           # [span id, name, start ns, child ns]
        self.spans = []           # (request, span, parent, name, start, end)
        self.span_cap = span_cap
        self.next_id = 0
        self.totals = {}          # name -> [calls, inclusive ns, self ns]
        self.counters = Counter()
        self.patches = []
        self.caches = []

    # -- spans ------------------------------------------------------------

    def begin(self, name):
        self.stack.append([self.next_id, name, perf_counter_ns(), 0])
        self.next_id += 1

    def end(self):
        span, name, start, child = self.stack.pop()
        now = perf_counter_ns()
        duration = now - start
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if len(self.spans) < self.span_cap:
            self.spans.append((self.request, span, parent, name, start, now))

    def start_request(self, request):
        self.request = request
        self.flags.clear()
        self.counters["chains.cache_hits"] -= self._cache_hits()
        self.begin("cli.main")

    def finish_request(self):
        self.end()
        self.counters["chains.cache_hits"] += self._cache_hits()
        self.request = None

    def _cache_hits(self):
        return sum(f.cache_info().hits for f in self.caches)

    def write(self, path):
        with open(path, "w") as fh:
            for request, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": request, "span": span, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}))
                fh.write("\n")

    # -- wiring -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.request is None:
                return fn(*args, **kwargs)
            rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end()
            if after is not None:
                after(rec, result)
            return result
        return wrapper

    def _counted(self, counter, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.request is not None:
                rec.counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _oracle(self, fn):
        """oracle_sweep with its memo made visible, to count states."""
        rec = self
        takes_cache = "cache" in inspect.signature(fn).parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.request is None:
                return fn(*args, **kwargs)
            memo = {}
            if takes_cache and len(args) < 4 and kwargs.get("cache") is None:
                kwargs["cache"] = memo
            rec.begin("rewrite.oracle")
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if type(e).__name__ == "FuseExceeded":
                    rec.counters["rewrite.oracle_fuse_exceeded"] += 1
                raise
            finally:
                rec.end()
                rec.counters["rewrite.oracle_states"] += len(memo)
            unique, _, checked = result
            rec.counters["rewrite.oracle_words"] += checked
            if not unique:
                rec.counters["rewrite.not_convergent"] += 1
                if "screen_hit" in rec.flags:
                    rec.counters["rewrite.screen_hits"] += 1
            return result
        return wrapper

    def install(self):
        mods = {name: importlib.import_module(f"ncrewrite.{name}")
                for name in ("cli", "order", "rewrite", "ambiguity", "chains", "dgmodel")}
        for module, attr, name, after in SPANS:
            owner = mods[module]
            if hasattr(owner, attr):
                self._patch(owner, attr, self._spanned(name, getattr(owner, attr), after))
        if hasattr(mods["cli"], "oracle_sweep"):
            self._patch(mods["cli"], "oracle_sweep", self._oracle(mods["cli"].oracle_sweep))
        for cls_name in ("DeglexOrder", "MeasureCertificate"):
            cls = getattr(mods["order"], cls_name, None)
            if cls is not None and "sort_key" in vars(cls):
                self._patch(cls, "sort_key", self._counted("order.sort_key_calls", cls.sort_key))
        self.caches = [f for f in (getattr(mods["chains"], "_chain_table", None),
                                   getattr(mods["chains"], "_differential_table", None))
                       if hasattr(f, "cache_info")]

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []


def _nf_steps(rec, result):
    rec.counters["rewrite.nf_steps"] += len(result[1])


def _screen(rec, result):
    if len(result) > 1:
        rec.flags.add("screen_hit")


def _ambiguities(rec, report):
    rec.counters["ambiguity.ambiguities"] += len(report.entries)
    rec.counters["ambiguity.resolved"] += sum(1 for e in report.entries if e.resolved)


def _chains(rec, chains):
    rec.counters["chains.chains"] += len(chains)


def _basis(rec, complex_):
    rec.counters["dgmodel.basis_size"] += sum(
        len(basis) for block in complex_.blocks.values() for basis in block.bases.values())


# (module, attribute callers look up, span name, hook on the result)
SPANS = (
    ("cli", "load_document", "cli.doc", None),
    ("cli", "system_from_document", "cli.doc", None),
    ("cli", "parse_poly", "freealg.parse", None),
    ("cli", "parse_word", "freealg.parse", None),
    ("cli", "print_poly", "freealg.print", None),
    ("cli", "print_word", "freealg.print", None),
    ("cli", "certify_deglex", "order.certify", None),
    ("cli", "certify_measure", "order.certify", None),
    ("cli", "normal_form", "rewrite.nf", _nf_steps),
    ("ambiguity", "normal_form", "rewrite.nf", _nf_steps),
    ("rewrite", "distinct_normal_forms", "rewrite.screen", _screen),
    ("cli", "check_convergence", "ambiguity.check", _ambiguities),
    ("ambiguity", "find_overlaps", "ambiguity.census", None),
    ("ambiguity", "find_inclusions", "ambiguity.census", None),
    ("cli", "anick_chains", "chains.enum", _chains),
    ("cli", "chain_differential", "chains.differential", None),
    ("cli", "verify_d_squared", "chains.dsq", None),
    ("cli", "print_chain_poly", "chains.print", None),
    ("cli", "build_shafarevich", "dgmodel.build", _basis),
    ("cli", "homology_ranks", "dgmodel.homology", None),
    ("dgmodel", "exact_rank", "dgmodel.rank", None),
)


def per_layer(rec, requests, output_bytes, overhead_ratio):
    """The per-layer metrics, per request unless named a ratio or total."""
    n = max(requests, 1)
    c = rec.counters

    def calls(name):
        return rec.totals.get(name, (0, 0, 0))[0] / n

    def ms(name, column=1):
        return rec.totals.get(name, (0, 0, 0))[column] / 1e6 / n

    def ratio(num, den):
        return num / den if den else 0.0

    nf_ns = rec.totals.get("rewrite.nf", (0, 0, 0))[1]
    rows = [
        ("cli.self_ms", ms("cli.main", 2), "ms"),
        ("cli.doc_parse_ms", ms("cli.doc"), "ms"),
        ("cli.output_bytes", output_bytes / n, "bytes"),
        ("freealg.parse_calls", calls("freealg.parse"), "count"),
        ("freealg.parse_ms", ms("freealg.parse"), "ms"),
        ("freealg.print_calls", calls("freealg.print"), "count"),
        ("freealg.print_ms", ms("freealg.print"), "ms"),
        ("order.certify_calls", calls("order.certify"), "count"),
        ("order.certify_ms", ms("order.certify"), "ms"),
        ("order.sort_key_calls", c["order.sort_key_calls"] / n, "count"),
        ("rewrite.nf_calls", calls("rewrite.nf"), "count"),
        ("rewrite.nf_ms", ms("rewrite.nf"), "ms"),
        ("rewrite.nf_steps", c["rewrite.nf_steps"] / n, "count"),
        ("rewrite.nf_us_per_step", ratio(nf_ns / 1e3, c["rewrite.nf_steps"]), "us"),
        ("rewrite.oracle_ms", ms("rewrite.oracle"), "ms"),
        ("rewrite.oracle_states", c["rewrite.oracle_states"] / n, "count"),
        ("rewrite.oracle_words", c["rewrite.oracle_words"] / n, "count"),
        ("rewrite.oracle_fuse_exceeded", c["rewrite.oracle_fuse_exceeded"], "count"),
        ("rewrite.screen_ms", ms("rewrite.screen"), "ms"),
        ("rewrite.screen_hit_ratio",
         ratio(c["rewrite.screen_hits"], c["rewrite.not_convergent"]), "ratio"),
        ("rewrite.screen_hit_base", c["rewrite.not_convergent"], "count"),
        ("ambiguity.census_ms", ms("ambiguity.census"), "ms"),
        ("ambiguity.ambiguities", c["ambiguity.ambiguities"] / n, "count"),
        ("ambiguity.check_self_ms", ms("ambiguity.check", 2), "ms"),
        ("ambiguity.resolved_ratio",
         ratio(c["ambiguity.resolved"], c["ambiguity.ambiguities"]), "ratio"),
        ("ambiguity.resolved_base", c["ambiguity.ambiguities"], "count"),
        ("chains.enum_ms", ms("chains.enum"), "ms"),
        ("chains.chains", c["chains.chains"] / n, "count"),
        ("chains.differential_ms", ms("chains.differential"), "ms"),
        ("chains.dsq_ms", ms("chains.dsq"), "ms"),
        ("chains.cache_hits", c["chains.cache_hits"] / n, "count"),
        ("dgmodel.build_ms", ms("dgmodel.build"), "ms"),
        ("dgmodel.basis_size", c["dgmodel.basis_size"] / n, "count"),
        ("dgmodel.rank_calls", calls("dgmodel.rank"), "count"),
        ("dgmodel.rank_ms", ms("dgmodel.rank"), "ms"),
        ("trace.requests", requests, "count"),
        ("trace.overhead_ratio", overhead_ratio, "ratio"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}
