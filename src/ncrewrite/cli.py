"""Command line front end.

A *system document* is JSON:

    {
      "field": "Q",                          // or "F2", "F5", ...
      "generators": ["x", "y", "z"],
      "rules": [{"lhs": "x*y*z", "rhs": "x^3 + y^3 + z^3"}],
      "certificate": {
        "deglex": {"weights": {"x": 1}, "order": ["z", "y", "x"]}
        // or "measure": {"x*y*z": 3, "y": 1}
      }
    }

Words and polynomials use the text grammar of :mod:`ncrewrite.freealg`;
deglex weights default to 1 and the precedence defaults to generator
order, listed smallest first.  Subcommands: certify, check, nf,
obstructions, chains, homology, oracle, complete.  ``--json`` makes
every command print one deterministic JSON object (byte-identical for
identical inputs).

Exit codes: 0 success (Certified / Convergent where applicable),
2 malformed input or failed validation, 3 certificate Failed (also when
a command requiring a Certified certificate got one that fails),
4 NotConvergent, 5 a step or state fuse ran out.
"""

import argparse
import json
import sys

from .ambiguity import check_convergence, complete, find_inclusions, find_overlaps, mc_residual
from .chains import print_chain_poly, verify_d_squared
from .dgmodel import build_shafarevich, homology_ranks
from .freealg import (ParseError, PrimeField, QQ, parse_poly, parse_word,
                      print_order_key, print_poly, print_word)
from .order import (DeglexOrder, MeasureCertificate, certify_deglex,
                    certify_measure)
from .rewrite import (DEFAULT_FUSE, FuseExceeded, Rule, System, normal_form,
                      oracle_sweep)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERT_FAILED = 3
EXIT_NOT_CONVERGENT = 4
EXIT_FUSE = 5


class DocumentError(ValueError):
    """A system document failed validation."""


# ---------------------------------------------------------------------------
# document handling

def _parse_field(tag):
    if tag == "Q":
        return QQ
    if isinstance(tag, str) and tag.startswith("F") and tag[1:].isdigit():
        try:
            return PrimeField(int(tag[1:]))
        except ValueError as e:
            raise DocumentError(str(e))
    raise DocumentError(f'field must be "Q" or "F<prime>", got {tag!r}')


def load_document(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DocumentError(f"cannot read document {path!r}: {e}")


def system_from_document(doc):
    """(System, certificate or None) from a parsed document."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    for key in ("field", "generators", "rules"):
        if key not in doc:
            raise DocumentError(f"document is missing {key!r}")
    field = _parse_field(doc["field"])
    names = doc["generators"]
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise DocumentError("generators must be a nonempty list of names")
    names = tuple(names)
    if not isinstance(doc["rules"], list):
        raise DocumentError("rules must be a list of rule objects")
    rules = []
    try:
        for entry in doc["rules"]:
            if not (isinstance(entry, dict) and isinstance(entry.get("lhs", ""), str)
                    and isinstance(entry.get("rhs", ""), str)):
                raise DocumentError(f"bad rule entry {entry!r}: "
                                    f"must be an object with string lhs and rhs")
            lhs = parse_word(entry["lhs"], names)
            rhs = parse_poly(entry["rhs"], names, field)
            rules.append(Rule(lhs, rhs))
        system = System(names, tuple(rules), field)
    except (KeyError, TypeError) as e:
        raise DocumentError(f"bad rule entry: {e}")
    except (ParseError, ValueError) as e:
        raise DocumentError(str(e))
    cert = None
    if doc.get("certificate") is not None:
        cert = _certificate_from_document(doc["certificate"], names)
    return system, cert


def _certificate_from_document(cdoc, names):
    if not isinstance(cdoc, dict) or len(cdoc) != 1:
        raise DocumentError('certificate must be {"deglex": ...} or {"measure": ...}')
    kind, body = next(iter(cdoc.items()))
    if kind == "deglex" and body is None:
        body = {}
    if not isinstance(body, dict):
        raise DocumentError(f"{kind} certificate body must be an object, got {body!r}")
    index_of = {n: i for i, n in enumerate(names)}
    if kind == "deglex":
        weights = [1] * len(names)
        given = {} if body.get("weights") is None else body["weights"]
        if not isinstance(given, dict):
            raise DocumentError(f"deglex weights must be an object, got {given!r}")
        for name, w in given.items():
            if name not in index_of:
                raise DocumentError(f"weight for unknown generator {name!r}")
            weights[index_of[name]] = w
        precedence = None
        if body.get("order") is not None:
            listed = body["order"]
            if (not isinstance(listed, list)
                    or not all(isinstance(n, str) for n in listed)
                    or sorted(listed) != sorted(names)):
                raise DocumentError("order must be a list naming every generator "
                                    f"exactly once, got {listed!r}")
            precedence = tuple(index_of[n] for n in listed)
        try:
            return DeglexOrder(len(names), tuple(weights), precedence)
        except ValueError as e:
            raise DocumentError(str(e))
    if kind == "measure":
        try:
            coeffs = {parse_word(text, names): c for text, c in body.items()}
            return MeasureCertificate(coeffs)
        except (ParseError, ValueError) as e:
            raise DocumentError(str(e))
    raise DocumentError(f"unknown certificate kind {kind!r}")


def certificate_document(cert, names):
    if isinstance(cert, DeglexOrder):
        return {"deglex": {
            "weights": {names[i]: w for i, w in enumerate(cert.weights)},
            "order": [names[i] for i in cert.precedence]}}
    if isinstance(cert, MeasureCertificate):
        return {"measure": {print_word(p, names): c
                            for p, c in sorted(cert.coefficients.items())}}
    raise TypeError(f"not a certificate: {cert!r}")


def system_document(system, cert):
    names = list(system.alphabet)
    doc = {
        "field": system.field.name,
        "generators": names,
        "rules": [{"lhs": print_word(r.lhs, names),
                   "rhs": print_poly(r.rhs, names)} for r in system.rules],
    }
    if cert is not None:
        doc["certificate"] = certificate_document(cert, names)
    return doc


# ---------------------------------------------------------------------------
# shared output helpers

def _print(payload, lines, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _certify(system, cert):
    if cert is None:
        raise DocumentError("this command needs a certificate in the document")
    if isinstance(cert, DeglexOrder):
        return certify_deglex(system, cert)
    return certify_measure(system, cert)


def _witness_rows(result, names):
    rows = []
    for w in result.witnesses:
        if hasattr(w, "phi_host"):
            rows.append({"rule": w.rule_index, "word": print_word(w.word, names),
                         "left": print_word(w.left, names),
                         "right": print_word(w.right, names),
                         "phi_host": w.phi_host, "phi_result": w.phi_result})
        else:
            rows.append({"rule": w.rule_index, "lhs": print_word(w.lhs, names),
                         "word": print_word(w.word, names)})
    return rows


def _require_certified(system, cert):
    result = _certify(system, cert)
    if not result.certified:
        names = list(system.alphabet)
        print(f"certificate Failed: {_witness_rows(result, names)}", file=sys.stderr)
        raise SystemExit(EXIT_CERT_FAILED)
    return result


def _ambiguity_rows(entries, names):
    rows = []
    for e in entries:
        rows.append({
            "grade": print_word(e.ambiguity.grade, names),
            "kind": e.ambiguity.kind,
            "minimal": e.ambiguity.minimal,
            "obstruction": print_poly(e.obstruction, names),
            "residue": print_poly(e.residue, names),
            "trace_length": len(e.trace),
        })
    return rows


# ---------------------------------------------------------------------------
# subcommands

def cmd_certify(args):
    system, cert = system_from_document(load_document(args.document))
    result = _certify(system, cert)
    names = list(system.alphabet)
    payload = {"verdict": result.verdict,
               "certificate": certificate_document(cert, names),
               "witnesses": _witness_rows(result, names)}
    lines = [result.verdict]
    lines += [f"  violation: {row}" for row in payload["witnesses"]]
    _print(payload, lines, args.json)
    return EXIT_OK if result.certified else EXIT_CERT_FAILED


def cmd_check(args):
    system, cert = system_from_document(load_document(args.document))
    _require_certified(system, cert)
    report = check_convergence(system, cert, args.mode, args.fuse)
    names = list(system.alphabet)
    payload = {"verdict": report.verdict, "mode": report.mode,
               "ambiguities": _ambiguity_rows(report.entries, names),
               "certificate": certificate_document(cert, names)}
    lines = [f"{report.verdict} ({report.mode}, "
             f"{len(report.entries)} ambiguities, {len(report.failures)} failing)"]
    for row in payload["ambiguities"]:
        flag = " minimal" if row["minimal"] else ""
        lines.append(f"  {row['kind']}{flag} at {row['grade']}: residue {row['residue']}")
    _print(payload, lines, args.json)
    return EXIT_OK if report.convergent else EXIT_NOT_CONVERGENT


def cmd_nf(args):
    system, cert = system_from_document(load_document(args.document))
    _require_certified(system, cert)
    names = list(system.alphabet)
    try:
        g = parse_poly(args.expr, tuple(names), system.field)
    except ParseError as e:
        raise DocumentError(str(e))
    result, trace = normal_form(system, g, cert, args.fuse)
    occs = [s.occurrence for s in trace.steps]
    printed = {w: print_word(w, names)      # each distinct prefix and suffix once
               for w in {o.prefix for o in occs} | {o.suffix for o in occs}}
    payload = {"input": print_poly(g, names),
               "normal_form": print_poly(result, names),
               "steps": len(trace),
               "trace": [{"rule": s.rule_index,
                          "prefix": printed[s.occurrence.prefix],
                          "suffix": printed[s.occurrence.suffix],
                          "coefficient": system.field.format_coeff(s.coefficient)}
                         for s in trace.steps]}
    _print(payload, [payload["normal_form"]], args.json)
    return EXIT_OK


def cmd_obstructions(args):
    system, cert = system_from_document(load_document(args.document))
    _require_certified(system, cert)
    names = list(system.alphabet)
    ambiguities = find_overlaps(system) + find_inclusions(system)
    rows = []
    for amb in ambiguities:
        mc = mc_residual(system, amb, cert, args.fuse)
        rows.append({
            "grade": print_word(amb.grade, names),
            "kind": amb.kind,
            "minimal": amb.minimal,
            "obstruction": print_poly(mc.obstruction, names),
            "residue": print_poly(mc.residue, names),
            "mc_residual": print_poly(mc.residual, names),
            "trace_length": len(mc.trace),
        })
    payload = {"count": len(rows), "ambiguities": rows}
    lines = [f"{len(rows)} ambiguities"]
    for row in rows:
        flag = " minimal" if row["minimal"] else ""
        lines.append(f"  {row['kind']}{flag} at {row['grade']}: "
                     f"obstruction {row['obstruction']}; residue {row['residue']}")
    _print(payload, lines, args.json)
    return EXIT_OK


def cmd_chains(args):
    system, _ = system_from_document(load_document(args.document))
    names = list(system.alphabet)
    try:
        report = verify_d_squared(system, args.max_degree, args.max_length, args.fuse)
    except ValueError as e:
        raise DocumentError(str(e))
    chains = report.checked
    diffs = {c.word: print_chain_poly(d, names)
             for c, d in zip(report.checked, report.differentials)}
    payload = {"chains": [{"word": print_word(c.word, names), "degree": c.degree,
                           "tail": print_word(c.tail, names)} for c in chains],
               "differentials": {print_word(w, names): d for w, d in diffs.items()},
               "d_squared_ok": report.ok}
    lines = [f"{len(chains)} chains up to degree {args.max_degree}, "
             f"length {args.max_length}; d^2 == 0: {report.ok}"]
    for c in chains:
        lines.append(f"  degree {c.degree}: {print_word(c.word, names)} "
                     f"(tail {print_word(c.tail, names)}) "
                     f"d -> {diffs[c.word]}")
    _print(payload, lines, args.json)
    return EXIT_OK


def cmd_homology(args):
    system, _ = system_from_document(load_document(args.document))
    names = list(system.alphabet)
    try:
        cx = build_shafarevich(system, args.max_length, args.max_degree,
                               monomial_only=not args.full)
    except ValueError as e:
        raise DocumentError(str(e))
    if cx.mode == "monomial":
        keys = sorted(cx.blocks, key=print_order_key)
        show = lambda k: print_word(k, names)
    else:
        keys = sorted(cx.blocks)
        show = lambda k: f"length {k}"
    rows = []
    for key in keys:
        for degree in range(args.max_degree + 1):
            dim = len(cx.basis(key, degree))
            if dim == 0:
                continue
            h = homology_ranks(cx, key, degree)
            if h.homology_dim != 0 or h.truncated:
                rows.append({"block": show(key), "degree": degree, "dim": dim,
                             "kernel": h.kernel_dim, "boundary": h.boundary_dim,
                             "homology": h.homology_dim, "truncated": h.truncated})
    payload = {"mode": cx.mode, "max_length": args.max_length,
               "max_degree": args.max_degree, "blocks": len(cx.blocks),
               "nonzero": rows}
    lines = [f"{cx.mode} complex, {len(cx.blocks)} blocks, "
             f"{len(rows)} spots with nonzero (or truncated) homology"]
    for row in rows:
        mark = " (upper bound)" if row["truncated"] else ""
        lines.append(f"  {row['block']} degree {row['degree']}: "
                     f"H = {row['homology']}{mark}")
    _print(payload, lines, args.json)
    return EXIT_OK


def cmd_oracle(args):
    system, cert = system_from_document(load_document(args.document))
    _require_certified(system, cert)
    max_length = args.max_length
    if max_length is None:
        max_length = 2 * max((len(l) for l in system.lhs_words), default=1)
    unique, witness, checked = oracle_sweep(system, max_length, args.fuse)
    names = list(system.alphabet)
    payload = {"verdict": "Convergent" if unique else "NotConvergent",
               "max_length": max_length, "words_checked": checked,
               "witness": None if witness is None else print_word(witness, names)}
    lines = [f"{payload['verdict']}: {checked} words of length <= {max_length}"]
    if witness is not None:
        lines.append(f"  witness with multiple normal forms: {payload['witness']}")
    _print(payload, lines, args.json)
    return EXIT_OK if unique else EXIT_NOT_CONVERGENT


def cmd_complete(args):
    system, cert = system_from_document(load_document(args.document))
    if not isinstance(cert, DeglexOrder):
        raise DocumentError("completion requires a deglex certificate")
    _require_certified(system, cert)
    completed, report = complete(system, cert, args.max_rounds, args.fuse)
    names = list(completed.alphabet)
    payload = {"verdict": report.verdict,
               "rules_added": len(completed.rules) - len(system.rules),
               "system": system_document(completed, cert),
               "report": {"mode": report.mode,
                          "ambiguities": _ambiguity_rows(report.entries, names)}}
    lines = [f"{report.verdict} after adding "
             f"{payload['rules_added']} rules ({len(completed.rules)} total)"]
    for r in payload["system"]["rules"]:
        lines.append(f"  {r['lhs']} -> {r['rhs']}")
    _print(payload, lines, args.json)
    return EXIT_OK if report.convergent else EXIT_NOT_CONVERGENT


# ---------------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(
        prog="ncrewrite",
        description="convergence toolkit for rewriting systems on free algebras")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_, **extra):
        p = sub.add_parser(name, help=help_)
        p.add_argument("document", help="system document path, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--fuse", type=int, default=DEFAULT_FUSE,
                       help="step/state budget before giving up (exit 5)")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
        return p

    add("certify", cmd_certify, "check the termination certificate")
    add("check", cmd_check, "decide convergence from the ambiguity census",
        **{"--mode": dict(choices=["diamond", "triangle"], default="diamond")})
    add("nf", cmd_nf, "normal form of a polynomial expression",
        **{"--expr": dict(required=True, help="polynomial to reduce")})
    add("obstructions", cmd_obstructions,
        "list every ambiguity with obstruction, residue and trace identity")
    add("chains", cmd_chains, "enumerate chains and their differential",
        **{"--max-degree": dict(type=int, default=4),
           "--max-length": dict(type=int, default=12)})
    add("homology", cmd_homology, "homology of the relation-marker complex",
        **{"--max-length": dict(type=int, default=6),
           "--max-degree": dict(type=int, default=3),
           "--full": dict(action="store_true",
                          help="use d(e) = lhs - rhs (needs length-homogeneous rules)")})
    add("oracle", cmd_oracle, "brute-force every reduction sequence word by word",
        **{"--max-length": dict(type=int, default=None,
                                help="word length bound (default: twice the longest lhs)")})
    add("complete", cmd_complete, "orient failing residues into new rules",
        **{"--max-rounds": dict(type=int, default=10)})
    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FuseExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FUSE
    except (DocumentError, ParseError, ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as e:
        return e.code


if __name__ == "__main__":
    sys.exit(main())
