"""Command-line front end: every verifier and tool as a subcommand.

Exit codes: 0 all checks pass, 1 a verification failed (report carries the
witness), 2 usage or input error.  Reports are JSON by default (schema 1),
with --format text and, except for spectrum, csv alternatives,
deterministic output modulo the timestamp field (drop it with
--no-timestamp), and SPECGRAPH_JOBS as the default parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from . import mate, verify
from .exactpoly import charpoly_exact
from .graphs import DisconnectedError, Graph6Error, GraphError, \
    distance_matrix, from_graph6, named_graph
from .spectra import eigenvalues_sym

class UsageError(Exception):
    pass


def parse_graph_spec(text: str):
    """FAMILY:params mini-grammar ("T:1,1", "C:7", "H3") with raw graph6
    accepted as a fallback."""
    if ":" in text:
        family, _, params = text.partition(":")
        try:
            values = [int(p) for p in params.split(",") if p != ""]
            return named_graph(family, *values)
        except (ValueError, TypeError, GraphError) as exc:
            raise UsageError(f"bad graph spec {text!r}: {exc}") from exc
    try:
        return named_graph(text)
    except ValueError:
        pass  # not a parameterless catalog name
    try:
        return from_graph6(text)
    except Graph6Error as exc:
        raise UsageError(
            f"{text!r} is neither a named graph nor valid graph6: {exc}"
        ) from exc


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("SPECGRAPH_JOBS", "1")))
    except ValueError:
        return 1


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _stamp(doc: dict, args) -> dict:
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# spectrum

def cmd_spectrum(args) -> int:
    g = parse_graph_spec(args.graph)
    try:
        d = distance_matrix(g)
    except DisconnectedError as exc:
        raise UsageError(f"{args.graph!r}: {exc}") from exc
    s = eigenvalues_sym(d)
    poly = charpoly_exact(d)
    doc = {
        "schema": 1,
        "graph": args.graph,
        "n": g.n,
        "eigenvalues": [float(f"{v:.6f}") for v in s.values],
        "charpoly": poly.text(),
    }
    if args.matrix:
        doc["distance_matrix"] = [list(row) for row in d]
    if args.format == "json":
        _emit(args, _json_text(_stamp(doc, args)))
    else:
        lines = [f"graph: {args.graph} ({g.n} vertices, "
                 f"{g.edge_count()} edges)"]
        if args.matrix:
            lines += ["distance matrix:"]
            lines += ["  " + " ".join(str(x) for x in row) for row in d]
        lines.append("eigenvalues: "
                     + ", ".join(f"{v:.6f}" for v in s.values))
        lines.append(f"charpoly: {poly.text()}")
        _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verify

def _run_named_verifier(lemma: str, args):
    try:
        return verify.run_verifier(lemma, max_ab=args.max_ab,
                                   max_n=args.max_n, max_c=args.max_c)
    except ValueError as exc:  # a bound out of the verifier's range
        raise UsageError(f"{lemma}: {exc}") from exc


def _emit_results(args, results, aggregate: str | None) -> int:
    """Write verifier results in args.format and return the exit code.

    JSON is the aggregate document named aggregate, or the one result's
    own document when aggregate is None; CSV is one `lemma,status` row per
    result; text is one `lemma: status` line per result, with the witness
    count of each that did not pass.
    """
    ok = all(r.ok for r in results)
    if args.format == "json":
        doc = results[0].to_json_dict() if aggregate is None else {
            "schema": 1,
            "lemma": aggregate,
            "status": "pass" if ok else "fail",
            "results": [r.to_json_dict() for r in results],
        }
        _emit(args, _json_text(_stamp(doc, args)))
    elif args.format == "csv":
        lines = ["lemma,status"] + [f"{r.lemma},{r.status}" for r in results]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, "\n".join(
            f"{r.lemma}: {r.status}"
            + (f" ({len(r.details.get('witnesses', []))} witnesses)"
               if not r.ok else "")
            for r in results))
    return 0 if ok else 1


def cmd_verify(args) -> int:
    lemma = args.lemma
    if lemma == "all":
        return _emit_results(
            args, [_run_named_verifier(l, args) for l in verify.VERIFIER_IDS],
            "all")
    if lemma in verify.VERIFIER_IDS:
        return _emit_results(args, [_run_named_verifier(lemma, args)], None)
    raise UsageError(
        f"unknown lemma id {lemma!r}; expected one of: all, "
        + ", ".join(verify.VERIFIER_IDS))


# ---------------------------------------------------------------------------
# mate-search

def cmd_mate_search(args) -> int:
    jobs = args.jobs
    if args.tab:
        try:
            a, b = (int(x) for x in args.tab.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --tab {args.tab!r}: expected a,b") from exc
        try:
            order = mate.tab_order(a, b)
        except ValueError as exc:
            raise UsageError(f"bad --tab {args.tab!r}: {exc}") from exc
        if args.n is not None and args.n != order:
            raise UsageError(
                f"--n {args.n} conflicts with --tab {args.tab} "
                f"(T({a},{b}) has {order} vertices)")
    elif args.n is not None:
        a = b = None
        order = args.n
    else:
        raise UsageError("mate-search needs --n or --tab")

    problems = []
    try:
        if args.input:
            classes, problems = mate.cospectral_classes_graph6(
                args.input, order, jobs=jobs)
        else:
            classes = mate.cospectral_classes_builtin(order, jobs=jobs)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc
    errors = [f"line {ln}: {msg}" for ln, msg in problems]

    verdict = None
    if a is not None:
        try:
            verdict = mate.ds_verdict(a, b, classes=classes)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    if args.format != "json":  # the JSON carries them as input_diagnostics
        for line in errors:
            print(f"warning: {line}", file=sys.stderr)
    if args.format == "json":
        doc = classes.to_json_dict()
        if errors:
            doc["input_diagnostics"] = errors
        if verdict is not None:
            doc["ds"] = verdict.to_json_dict()
        _emit(args, _json_text(_stamp(doc, args)))
    elif args.format == "csv":
        _emit(args, classes.to_csv())
    else:
        multi = sum(k > 1 for k in classes.distinct_sizes())
        lines = [f"order {classes.order}: {classes.total} graphs, "
                 f"{len(classes.classes)} charpoly classes",
                 f"classes with cospectral mates: {multi}"]
        if verdict is not None:
            line = (f"DS: {verdict.status.upper()}, class size "
                    f"{verdict.details['class_size']} of {classes.total} "
                    "graphs")
            if verdict.status == "inconclusive":
                want = verdict.details["expected_graphs"]
                line += (f" ({verdict.details['distinct_graphs']} distinct,"
                         f" {'unknown' if want is None else want} expected)")
            lines.append(line)
        _emit(args, "\n".join(lines))
    return 0 if verdict is None or verdict.ok else 1


# ---------------------------------------------------------------------------
# report

def _report_results(args) -> list:
    results = [_run_named_verifier(l, args) for l in verify.VERIFIER_IDS]
    max_order = 9 if args.deep else 8
    for n in range(5, max_order + 1):
        classes = mate.cospectral_classes_builtin(n, jobs=args.jobs)
        for a in range(1, n - 3):
            b = n - 3 - a
            if a > b:
                continue
            results.append(mate.ds_verdict(a, b, classes=classes))
    return results


def cmd_report(args) -> int:
    return _emit_results(args, _report_results(args), "report")


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgraph",
        description="Distance-spectra verification toolkit for extended "
                    "double stars")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv", "text")):
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", help="write the report here instead of "
                                     "stdout")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field for byte-stable output")

    p = sub.add_parser("spectrum", help="distance matrix, eigenvalues and "
                                        "exact charpoly of one graph")
    p.add_argument("graph", help='graph spec like "T:1,1", "C:7", "H3", or '
                                 "raw graph6")
    p.add_argument("--matrix", action="store_true",
                   help="include the distance matrix")
    common(p, ("json", "text"))
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run one verifier (or all)")
    p.add_argument("lemma",
                   help="one of: all, " + ", ".join(verify.VERIFIER_IDS))
    p.add_argument("--max-ab", type=int, default=8, dest="max_ab")
    p.add_argument("--max-n", type=int, default=12, dest="max_n")
    p.add_argument("--max-c", type=int, default=100, dest="max_c")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mate-search",
                       help="cospectral class table and determined-by-"
                            "spectrum verdicts")
    p.add_argument("--n", type=int, help="order for the class table")
    p.add_argument("--tab", help="a,b -- also check that T(a,b) is "
                                 "determined by its spectrum")
    p.add_argument("--input", help="newline-separated graph6 file replacing "
                                   "the built-in generator")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    common(p)
    p.set_defaults(func=cmd_mate_search)

    p = sub.add_parser("report", help="run every verifier at desk-scale "
                                      "bounds")
    p.add_argument("--max-ab", type=int, default=8, dest="max_ab")
    p.add_argument("--max-n", type=int, default=12, dest="max_n")
    p.add_argument("--max-c", type=int, default=100, dest="max_c")
    p.add_argument("--deep", action="store_true",
                   help="extend the mate search to order 9")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
