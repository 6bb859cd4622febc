"""specgraph benchmark: three workloads through the ``specgraph`` CLI.

    python3 perfbench/run.py --workload mate8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 \\
        --record perfbench/BENCH_baseline.json

Run it from the root of a source checkout: it runs ``src/`` through
``python3 -m specgraph.cli`` with ``PYTHONPATH=src`` and needs nothing
installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give provenance (nproc, Python and numpy versions, git commit,
source digest, seed, jobs) and every metric by name and unit.  Scratch
files go to ``.perfbench-work/`` and are removed at the end.

Workloads, and why each exists
------------------------------
``mate8``: ``mate-search --tab 2,3`` at the default jobs (serial).  The
  paper's exhaustive search at the largest order that repeats cheaply:
  built-in order-8 generation, the class table and the DS verdict.  It
  stands in for n=9 (165 s on 2 workers, too long to repeat).  Generation
  is most of it, and fingerprints stay on the int64 path.
``stream10``: ``mate-search --n 10 --input <seeded graph6> --jobs 2``.
  The same classifier used differently: a graph6 stream instead of the
  generator, the fork pool instead of serial, and the bigint
  Faddeev-LeVerrier fallback instead of int64.  The input is STREAM_COUNT
  seeded connected order-10 graphs, from trees to complete graphs
  (``streamgen.py``); about 4% have a largest distance above 5, so every
  4096-graph chunk goes bigint.  It uses ``--n``, not ``--tab``, so an
  ``inconclusive`` verdict for partial streams cannot turn it into a
  failure.  It runs no generation.
``verify-wide``: ``verify all --max-ab 12 --max-n 24 --max-c 300``.  The
  paper's re-derivation half: exact charpolys and the Jacobi eigensolver,
  no graph generation.  Jacobi and Faddeev-LeVerrier changes show here
  and nowhere in ``mate8``.  (At the defaults it takes about 1.4 s.)

The seed makes the ``stream10`` input.  ``mate8`` and ``verify-wide`` have
no input: they enumerate or re-derive a fixed object, so on them the seed
changes nothing and the spread across seeds is run-to-run noise.

End-to-end metrics (``--trace 0``)
----------------------------------
Each run times whole CLI commands, one after another, until ``--seconds``
have passed and at least MIN_ITERATIONS have run, and reports medians.
``wall_s``: time of one command, from spawn to exit.  The main metric.
``throughput_per_s``: work items per second of wall time -- graphs
  classified (11117 on ``mate8``, STREAM_COUNT on ``stream10``) or
  verifier statuses (23 on ``verify-wide``).  On the two mate workloads
  this is the graphs-per-second rate; it is named generically because
  every end-to-end metric must exist on every workload.
``cpu_s``: user plus system time of the command and its pool workers.
``peak_rss_mb``: largest resident set of the command or any worker.
``setup_s``: median time of fresh ``python3 -c "import specgraph.cli"``
  processes: start-up and import, before any workload runs.
  SETUP_PER_ITERATION of them run before each command.
Failures are counted in ``attempted`` and ``failed`` of the result line,
not as a metric, because a metric that reads 0 has no relative spread.  An
operation is a class-table check or the verdict on ``mate8`` (3 per
command), an ingested graph on ``stream10``, and a verifier status on
``verify-wide``.  Expected results:
  mate8: 11117 graphs (OEIS A001349), 10784 classes, DS pass, class size 1;
  stream10: every line in exactly one class, under the charpoly that
    streamgen's own BFS and Faddeev-LeVerrier over Python ints give it, and
    as many classes as that reference gives for the seed.  The reference
    uses no code of the program, so a fault in its distance_matrix,
    charpoly_exact or int64 path that moves graphs between classes fails
    the check instead of shifting the reference with the output;
  verify-wide: 22 ``pass``, ``case:F2`` ``fail`` with
    ``exceptions == [{"a": 2}]``.  The exit code is 1 by design and is
    not checked.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run is kept apart from the timed runs: it runs TRACE_PAIRS pairs
of the command, once untraced and once under ``tracer.py``.  Every pair
must give byte-identical ``--no-timestamp`` output, the same exit code and
every wrapper removed afterwards.  The layer metrics come from the last
traced command.
Names are ``<module>.<function>.calls|.s|.self_s``; ``<module>.self_s`` is
the time inside a module's public functions minus the wrapped calls they
make.  The map from each layer metric to the end-to-end metric it should
move (a metric reads 0 on a workload that does not reach it, and there the
prediction is "no change"):
  mate.enumerate_connected.s/.yields -> wall_s, throughput_per_s on mate8
    (most of it); absent elsewhere.
  mate.ingest_graph6.s -> wall_s on stream10; parsing runs serially in the
    parent before the pool starts, capping the speed-up from --jobs.
  mate.cospectral_classes.self_s (fingerprinting, chunking, pool wait,
    merge) and mate.fp_bigint_share (bigint charpoly_exact calls from mate
    per graph classified: about 1.0 on stream10, 0 on mate8) -> wall_s and
    cpu_s on stream10, little on mate8.
  mate.ds_verdict.s -> wall_s on mate8.
  mate.classes -> peak_rss_mb on mate8 and stream10 (with the graph6
    strings each class holds).
  graphs.distance_matrix.calls/.s -> throughput_per_s on stream10, and a
    few percent of mate8.  graphs.from_graph6 on stream10,
    graphs.to_graph6 on mate8 and stream10, graphs.is_isomorphic on mate8.
  exactpoly.charpoly_exact.calls/.s -> wall_s on verify-wide (lemma22,
    case tables) and on stream10 (bigint fallback).
  exactpoly.bareiss_det.calls/.s: about 0.5% of verify-wide, so a Bareiss
    speed-up cannot move any end-to-end metric beyond its bound.
  exactpoly.root_multiplicity, exactpoly.sign_at_rational: verify-wide.
  spectra.eigenvalues_sym.calls/.s -> wall_s on verify-wide; 0 on mate8 and
    stream10, where replacing Jacobi must change nothing.
  spectra.check_interlacing.calls: it has no caller in the package, so it
    reads 0 on every workload; the interlacing verifier compares
    eigenvalues itself.
  forms.s: time in the public functions of forms (closed forms, templates,
    hat matrices, cycle forms, appendix tables, metric_feasible), nested
    calls counted once.  verify-wide.
  verify.<id>.s: one per verifier, timed through run_verifier
    (``:`` becomes ``-`` in the name).  verify-wide.
  cli.self_s: argument handling, JSON rendering and writing; it moves
    wall_s on every workload (MBs of class JSON on the mate workloads).
  trace.overhead_s: median over the pairs of traced minus untraced wall_s.
    Informational only: under the machine drift described in "Noise" it
    resolves the overhead only roughly, and a pair can read negative.

Where the seed commit stands
----------------------------
Traced runs of ``BENCH_baseline.json`` (seed 1; 2 cores at 2.1 GHz,
Python 3.11, numpy 2.4, source of commit 205bfa7):
  mate8: mate.enumerate_connected.s is 8.9 s of an 11.6 s traced command
    (77%) and 91% of the 9.8 s class-table build.  The predicted 4/5 of
    the command does not reliably hold: three traced runs read 77%, 78%
    and 81%.  It holds for the class-table build (91-93%).  The rest is
    interpreter start and import (0.3 s), distance matrices (0.3 s),
    classing and merge (0.4 s self), graph6 strings (0.15 s) and JSON
    rendering (fingerprint_text and cli.self_s, about 0.7 s).
    mate.fp_bigint_share is 0.
  stream10: every one of the 8192 graphs takes the bigint path
    (mate.fp_bigint_share = 1.0); charpoly_exact is 7.3 s of the two
    workers' busy time against 0.4 s of BFS, and ingest_graph6 keeps the
    parent busy for 0.3 s before the pool starts.  Confirmed.
  verify-wide: charpoly_exact (1.4 s) plus eigenvalues_sym (2.2 s) are
    3.6 s of a 4.2 s traced command (87%).  Confirmed.  bareiss_det is
    0.024 s (0.6%) and check_interlacing is never called.
  trace.overhead_s, the median of three pairs, read 0.62 s on mate8,
    0.31 s on stream10 and -0.06 s on verify-wide; single pairs ranged
    from -0.8 s to +3.6 s over the seed-1 traced runs made here.

Noise
-----
On the shared 2-core machine the baseline was taken on, the speed of the
same serial loop changes by 10-20% from one 40-second stretch to the next
and by up to 30% over hours; cpu_s follows wall_s, so it is the CPU that
is slower, not the scheduling.  Five sets of ten runs per workload at
``--seconds 20`` (seeds 101-110, 111-120, 201-210, 301-310, 311-320) gave
these quartile spreads, as a share of the median, and largest differences
between the medians of two sets run back to back:
                wall_s            cpu_s             setup_s
  mate8         0.06-0.20, 19%    0.06-0.19, 18%    0.06-0.21, 15%
  stream10      0.05-0.10,  9%    0.04-0.09,  7%    0.06-0.18, 14%
  verify-wide   0.08-0.22, 12%    0.07-0.16, 11%    0.10-0.28,  8%
throughput_per_s is items / wall_s and spreads as wall_s does.  The time
bounds in ``BENCHMARK.json`` are therefore 0.25, the largest allowed: above
every spread and back-to-back difference seen, but not by the wanted
factor of three, which only the quiet set 301-310 met (at most 0.086).
Sets hours apart differed by up to 32% on mate8, beyond the bound.
peak_rss_mb spreads stay below 0.005, so its bound is 0.05.  One set of
ten runs of the three workloads takes about 1000 s here.

Deferred
--------
Children tested and canonical graphs kept per second need counters inside
the generator (roadmap item 5); the benchmark measures only at function
boundaries.  n=9 is left out for length (165 s on 2 workers).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import streamgen  # noqa: E402
import tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

MIN_ITERATIONS = 3
SETUP_PER_ITERATION = 3
STREAM_COUNT = 8192
STREAM_JOBS = 2
REFERENCE_JOBS = 2
TRACE_PAIRS = 3
COMMAND_TIMEOUT_S = 120
# start no new command past this point, so a run ends well within 180 s
RUN_BUDGET_S = 140

# one term of a charpoly's text: 45*L^8, L^10, L, 12
CHARPOLY_TERM = re.compile(r"(?:(\d+)\*)?L(?:\^(\d+))?|(\d+)")

MATE8_GRAPHS = 11117
MATE8_CLASSES = 10784
VERIFY_BOUNDS = ["--max-ab", "12", "--max-n", "24", "--max-c", "300"]
VERIFIER_IDS = ("lemma22", "interlacing", "cycles",
                *(f"case:{f}" for f in ("H1", "H2", "H3", "H4", "H5", "H6",
                                        "H7", "P6", "F1", "F2", "F3", "K4",
                                        "F4")),
                *(f"hats:{k}" for k in range(1, 6)),
                "theorem31", "fg-roots")

END_TO_END = {"wall_s": "s", "throughput_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_FUNCTIONS = {
    "mate.enumerate_connected": ("s", "yields"),
    "mate.ingest_graph6": ("s", "yields"),
    "mate.cospectral_classes": ("calls", "s", "self_s"),
    "mate.cospectral_classes_builtin": ("s",),
    "mate.ds_verdict": ("s",),
    "graphs.distance_matrix": ("calls", "s"),
    "graphs.from_graph6": ("calls", "s"),
    "graphs.to_graph6": ("calls", "s"),
    "graphs.is_isomorphic": ("calls", "s"),
    "exactpoly.charpoly_exact": ("calls", "s"),
    "exactpoly.bareiss_det": ("calls", "s"),
    "exactpoly.root_multiplicity": ("calls", "s"),
    "exactpoly.sign_at_rational": ("calls", "s"),
    "spectra.eigenvalues_sym": ("calls", "s"),
    "spectra.check_interlacing": ("calls",),
}
LAYER_MODULES = ("mate", "graphs", "exactpoly", "spectra", "forms", "verify",
                 "cli")


def layer_metric_names() -> dict:
    """Every per-layer metric, name -> unit, in report order."""
    names = {}
    for func, stats in LAYER_FUNCTIONS.items():
        for stat in stats:
            names[f"{func}.{stat}"] = \
                "count" if stat in ("calls", "yields") else "s"
    names.update({"mate.fp_bigint_calls": "count",
                  "mate.fp_bigint_share": "ratio",
                  "mate.graphs": "count",
                  "mate.classes": "count",
                  "forms.calls": "count",
                  "forms.s": "s"})
    for module in LAYER_MODULES:
        names[f"{module}.self_s"] = "s"
    for lemma in VERIFIER_IDS:
        names[f"verify.{lemma.replace(':', '-')}.s"] = "s"
    names.update({"trace.overhead_s": "s", "trace.spans": "count",
                  "trace.processes": "count"})
    return names


# ---------------------------------------------------------------------------
# running commands

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPECGRAPH_JOBS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_command(argv: list[str],
                timeout: float = COMMAND_TIMEOUT_S) -> Measured:
    """Run argv to completion through measure.py: wall time, CPU and peak
    RSS of the process and the children it waited for (its pool
    workers)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), str(timeout),
         *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout + 30)
    if done.returncode != 0:
        raise RuntimeError(f"measure.py failed: {done.stderr.strip()}")
    m = json.loads(done.stdout)
    if m["exit_code"] < 0:
        raise RuntimeError(f"{' '.join(argv)} ended by signal "
                           f"{-m['exit_code']}")
    return Measured(m["wall_s"], m["cpu_s"], m["peak_rss_mb"],
                    m["exit_code"])


def measure_setup(samples: int) -> list[float]:
    """Wall times of fresh processes that only import the package."""
    times = []
    for _ in range(samples):
        m = run_command([sys.executable, "-c", "import specgraph.cli"])
        if m.exit_code != 0:
            raise RuntimeError("importing specgraph.cli failed")
        times.append(m.wall_s)
    return times


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Checked:
    attempted: int
    failed: int
    notes: list = field(default_factory=list)


class Workload:
    name = ""
    jobs = 1
    items = 0

    def prepare(self, seed: int, work: str):
        """Make the inputs (outside any timing)."""

    def args(self) -> list[str]:
        raise NotImplementedError

    def check(self, doc: dict | None, exit_code: int) -> Checked:
        raise NotImplementedError


class Mate8(Workload):
    name = "mate8"
    items = MATE8_GRAPHS

    def args(self):
        return ["mate-search", "--tab", "2,3"]

    def check(self, doc, exit_code):
        if doc is None:
            return Checked(3, 3, ["no output"])
        ds = doc.get("ds", {})
        results = {
            "total_graphs": doc.get("total_graphs") == MATE8_GRAPHS,
            "class_count": doc.get("class_count") == MATE8_CLASSES
            and len(doc.get("classes", ())) == MATE8_CLASSES,
            "ds_verdict": ds.get("status") == "pass"
            and ds.get("class_size") == 1 and exit_code == 0,
        }
        bad = [k for k, ok in results.items() if not ok]
        return Checked(3, len(bad), bad)


class Stream10(Workload):
    name = "stream10"
    jobs = STREAM_JOBS
    items = STREAM_COUNT

    def prepare(self, seed, work):
        graphs = streamgen.random_graphs(seed, STREAM_COUNT)
        lines = [streamgen.to_graph6(streamgen.ORDER, g) for g in graphs]
        self.path = os.path.join(work, f"stream10-{seed}.g6")
        with open(self.path, "w", encoding="ascii") as fh:
            fh.write("".join(line + "\n" for line in lines))
        self.expected = exact_reference(lines, graphs)
        self.lines = Counter(lines)

    def args(self):
        return ["mate-search", "--n", "10", "--input",
                os.path.relpath(self.path, ROOT), "--jobs", str(self.jobs)]

    def check(self, doc, exit_code):
        n = STREAM_COUNT
        if doc is None or exit_code != 0 or doc.get("input_diagnostics"):
            return Checked(n, n, ["command failed or reported diagnostics"])
        unplaced = Counter(self.lines)
        extra = 0
        for cls in doc.get("classes", ()):
            coeffs = parse_charpoly(cls["charpoly"], streamgen.ORDER)
            for member in cls["members"]:
                if unplaced[member] > 0 and self.expected[member] == coeffs:
                    unplaced[member] -= 1
                else:
                    extra += 1
        failed = sum(unplaced.values()) + extra
        notes = []
        if doc.get("total_graphs") != n:
            notes.append(f"total {doc.get('total_graphs')} != {n}")
        want = len(set(self.expected.values()))
        if doc.get("class_count") != want:
            notes.append(f"class_count {doc.get('class_count')} != {want}")
        failed += len(notes)
        return Checked(n, min(failed, n), notes)


def exact_reference(lines, graphs) -> dict:
    """graph6 line -> degree-descending distance-charpoly coefficients, by
    streamgen's own BFS and Faddeev-LeVerrier over Python ints, so that a
    fault in the program's distance_matrix or charpoly_exact cannot shift
    the reference with the output.  REFERENCE_JOBS workers share the
    graphs.  They are forked: this process runs no threads, and unlike
    spawn, fork starts no resource-tracker process that would outlive the
    run."""
    unique = sorted(dict(zip(lines, graphs)).items())
    parts = [unique[i::REFERENCE_JOBS] for i in range(REFERENCE_JOBS)]
    with get_context("fork").Pool(REFERENCE_JOBS) as pool:
        coeffs = pool.map(_exact_coeffs, [[g for _, g in p] for p in parts])
    return {line: c for part, part_coeffs in zip(parts, coeffs)
            for (line, _), c in zip(part, part_coeffs)}


def _exact_coeffs(graphs) -> list[tuple[int, ...]]:
    return [streamgen.charpoly(streamgen.distance_matrix(streamgen.ORDER, g))
            for g in graphs]


def parse_charpoly(text: str, degree: int) -> tuple[int, ...] | None:
    """Degree-descending coefficients of a univariate charpoly the CLI
    wrote, such as ``L^10 - 45*L^8 + L - 12``; None if it is not one."""
    coeffs = [0] * (degree + 1)
    sign = 1
    for token in text.split():
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        term = CHARPOLY_TERM.fullmatch(token)
        if term is None:
            return None
        factor, power, constant = term.groups()
        coeff, power = (constant, 0) if constant else (factor or 1,
                                                       power or 1)
        if int(power) > degree:
            return None
        coeffs[degree - int(power)] += sign * int(coeff)
        sign = 1
    return tuple(coeffs)


class VerifyWide(Workload):
    name = "verify-wide"
    items = len(VERIFIER_IDS)

    def args(self):
        return ["verify", "all", *VERIFY_BOUNDS]

    def check(self, doc, exit_code):
        n = len(VERIFIER_IDS)
        if doc is None:
            return Checked(n, n, ["no output"])
        got = {r.get("lemma"): r for r in doc.get("results", ())}
        bad = []
        for lemma in VERIFIER_IDS:
            r = got.get(lemma)
            if lemma == "case:F2":
                ok = r is not None and r.get("status") == "fail" \
                    and r.get("exceptions") == [{"a": 2}]
            else:
                ok = r is not None and r.get("status") == "pass"
            if not ok:
                bad.append(lemma)
        bad += [lemma for lemma in got if lemma not in VERIFIER_IDS]
        return Checked(n, min(len(bad), n), bad)


WORKLOADS = {w.name: w for w in (Mate8(), Stream10(), VerifyWide())}


# ---------------------------------------------------------------------------
# one run

def cli_argv(workload: Workload, out: str) -> list[str]:
    return [*workload.args(), "--no-timestamp", "--out", out]


def read_output(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None, None
    try:
        return raw, json.loads(raw)
    except ValueError:
        return raw, None


def timed_run(workload: Workload, seconds: float, work: str,
              started: float):
    """Run the command until `seconds` of it have passed and at least
    MIN_ITERATIONS have run, with set-up samples taken between commands so
    that both see the same stretch of machine time."""
    out = os.path.join(work, "out.json")
    argv = [sys.executable, "-m", "specgraph.cli", *cli_argv(workload, out)]
    measure_setup(1)  # compiles bytecode and warms the file cache
    runs, setup, attempted, failed, notes = [], [], 0, 0, []
    while len(runs) < MIN_ITERATIONS or sum(r.wall_s for r in runs) < seconds:
        if runs and time.perf_counter() - started + runs[-1].wall_s \
                > RUN_BUDGET_S:
            notes.append("stopped early at the run budget")
            break
        setup += measure_setup(SETUP_PER_ITERATION)
        if os.path.exists(out):
            os.remove(out)
        m = run_command(argv)
        _, doc = read_output(out)
        checked = workload.check(doc, m.exit_code)
        attempted += checked.attempted
        failed += checked.failed
        notes += checked.notes
        runs.append(m)
    return runs, setup, attempted, failed, notes


def traced_run(workload: Workload, work: str):
    """TRACE_PAIRS pairs of one untraced and one traced command.  Every pair
    is checked; the per-layer metrics come from the last traced command and
    trace.overhead_s is the median of the pairs' wall-time differences."""
    untraced_out = os.path.join(work, "untraced.json")
    traced_out = os.path.join(work, "traced.json")
    trace_dir = os.path.join(work, "trace")
    attempted, failed, notes, walls = 0, 0, [], []
    for _ in range(TRACE_PAIRS):
        shutil.rmtree(trace_dir, ignore_errors=True)
        plain = run_command([sys.executable, "-m", "specgraph.cli",
                             *cli_argv(workload, untraced_out)])
        traced = run_command([sys.executable, os.path.join(HERE, "tracer.py"),
                              trace_dir, *cli_argv(workload, traced_out)])
        walls.append((plain.wall_s, traced.wall_s))
        raw_plain, doc_plain = read_output(untraced_out)
        raw_traced, doc_traced = read_output(traced_out)
        results = [workload.check(doc_plain, plain.exit_code),
                   workload.check(doc_traced, traced.exit_code)]
        try:
            with open(os.path.join(trace_dir, "meta.json"),
                      encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            meta = {"exit_code": None, "wrappers_removed": False}
        summary = tracer.summarize(tracer.load_spans(trace_dir))
        trace_checks = {
            "output byte-identical to untraced":
                raw_plain is not None and raw_plain == raw_traced,
            "same exit code": plain.exit_code == traced.exit_code
                == meta["exit_code"],
            "wrappers removed": meta["wrappers_removed"],
            "spans of every classified graph reached the trace":
                spans_complete(summary, doc_traced),
        }
        bad = [f"trace check failed: {k}" for k, ok in trace_checks.items()
               if not ok]
        attempted += sum(r.attempted for r in results) + len(trace_checks)
        failed += sum(r.failed for r in results) + len(bad)
        notes += bad
        for r in results:
            notes += r.notes
    metrics = layer_metrics(summary, doc_traced or {})
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t in walls)
    return metrics, attempted, failed, notes, walls


def spans_complete(summary: dict, doc) -> bool:
    """Every graph the command classified passed through a traced
    distance_matrix call from mate, in the parent or in a worker."""
    graphs = (doc or {}).get("total_graphs")
    if graphs is None:
        return True
    return summary["sites"].get("graphs.distance_matrix@mate", 0) >= graphs


def layer_metrics(summary: dict, doc: dict) -> dict:
    funcs, modules = summary["functions"], summary["modules"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "yields": 0}
    metrics = {}
    for func, stats in LAYER_FUNCTIONS.items():
        for stat in stats:
            metrics[f"{func}.{stat}"] = funcs.get(func, empty)[stat]
    graphs = doc.get("total_graphs", 0)
    bigint = summary["sites"].get("exactpoly.charpoly_exact@mate", 0)
    metrics["mate.fp_bigint_calls"] = bigint
    metrics["mate.fp_bigint_share"] = bigint / graphs if graphs else 0.0
    metrics["mate.graphs"] = graphs
    metrics["mate.classes"] = doc.get("class_count", 0)
    forms = modules.get("forms", {"calls": 0, "s": 0.0})
    metrics["forms.calls"] = forms["calls"]
    metrics["forms.s"] = forms["s"]
    for module in LAYER_MODULES:
        metrics[f"{module}.self_s"] = modules.get(module, empty)["self_s"]
    for lemma in VERIFIER_IDS:
        metrics[f"verify.{lemma.replace(':', '-')}.s"] = \
            summary["verifiers"].get(lemma, 0.0)
    metrics["trace.spans"] = summary["spans"]
    metrics["trace.processes"] = summary["pids"]
    return metrics


# ---------------------------------------------------------------------------
# provenance and reporting

def provenance(seed: int, workload: Workload) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "specgraph")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    # only this checkout's own repository, never one that encloses it
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine(),
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "jobs": workload.jobs}


def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 work: str) -> dict:
    started = time.perf_counter()
    workload.prepare(seed, work)
    if trace:
        metrics, attempted, failed, notes, walls = traced_run(workload, work)
        detail = {"untraced_wall_s_all": [p for p, _ in walls],
                  "traced_wall_s_all": [t for _, t in walls]}
    else:
        runs, setup, attempted, failed, notes = timed_run(
            workload, seconds, work, started)
        walls = [r.wall_s for r in runs]
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "throughput_per_s": workload.items / wall,
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(setup),
        }
        detail = {"iterations": len(runs), "wall_s_all": walls,
                  "setup_s_all": setup}
    return {"workload": workload.name, "trace": trace,
            "provenance": provenance(seed, workload), "detail": detail,
            "notes": sorted(set(notes)), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def units(trace: int) -> dict:
    return layer_metric_names() if trace else END_TO_END


def print_result(result: dict):
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    print(f"workload {result['workload']} trace {result['trace']}: "
          f"{result['failed']} failed of {result['attempted']} attempted; "
          + json.dumps(result["detail"]))
    for note in result["notes"]:
        print(f"  note: {note}")
    unit = units(result["trace"])
    for name, value in result["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {unit[name]}")


def result_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for r in results:
        unit = units(r["trace"])
        for name, value in r["metrics"].items():
            key = f"{r['workload']}:{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit[name]}
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="specgraph benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: per-layer metrics of a traced run; "
                             "default with --workload all: both")
    parser.add_argument("--record", help="also write the results, with "
                                         "provenance, to this JSON file")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.trace is None:
        parser.error("--trace is required for a single workload")
    if not os.path.isfile(os.path.join(SRC, "specgraph", "cli.py")):
        print(f"error: no specgraph sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    results = []
    try:
        for name in names:
            for trace in traces:
                result = run_workload(WORKLOADS[name], args.seed,
                                      args.seconds, trace, work)
                print_result(result)
                sys.stdout.flush()
                results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"command": ["python3", "perfbench/run.py",
                                   *(argv if argv is not None
                                     else sys.argv[1:])],
                       "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(result_line(results, prefix=len(results) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
