"""Outside-in span tracing of the specgraph CLI.

    python3 perfbench/tracer.py TRACE_DIR specgraph-arguments...

runs ``specgraph.cli.main`` on the arguments with every public function of
``specgraph.mate``, ``graphs``, ``exactpoly``, ``spectra``, ``forms``,
``verify`` and ``cli`` wrapped, then removes the wrappers and writes the
spans to TRACE_DIR.  Nothing under ``src/`` changes: each function is
replaced in every package module that binds it, so ``mate`` and ``verify``,
which import ``distance_matrix`` and ``charpoly_exact`` by name, call a
wrapper that records the binding module as the call site.

A span is (id, parent id, function, call site, start, end, tag).  A
generator function gets one span per ``next()``, tagged ``yield`` when it
produced an item, so its time is only the time spent inside it.  Forked
pool workers inherit the wrappers and the open-span stack, so their spans
name the parent-side span that caused them.  Workers are terminated
without exit handlers, so every task handed to a ``multiprocessing`` pool
is wrapped to append the worker's spans to TRACE_DIR when it returns.
``time.perf_counter`` is the system-wide monotonic clock on Linux, so spans
from different processes share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from multiprocessing import pool as mp_pool
from time import perf_counter

MODULES = ("mate", "graphs", "exactpoly", "spectra", "forms", "verify", "cli")
# Pool methods every public Pool entry point funnels its task function
# through (map, starmap and their async forms all call _map_async).
POOL_METHODS = ("apply_async", "imap", "imap_unordered", "_map_async")
MARK = "__perfbench_wrapper__"

# The tracer whose wrappers are installed in this process.  Wrappers and
# fork hooks are process-wide by nature, so this is too.
_ACTIVE: "Tracer | None" = None
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child():
    if _ACTIVE is not None:
        _ACTIVE.pid = os.getpid()
        _ACTIVE.spans = []
        _ACTIVE.counter = 0


class _FlushAfter:
    """Picklable pool task that flushes the worker's spans after each
    call."""

    def __init__(self, func):
        self.func = func

    def __call__(self, *args, **kwargs):
        try:
            return self.func(*args, **kwargs)
        finally:
            if _ACTIVE is not None:
                _ACTIVE.flush()


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.counter = 0
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        self.counter += 1
        span_id = f"{self.pid}.{self.counter}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent

    def _close(self, opened, name, site, t0, tag=None):
        t1 = perf_counter()
        self.stack.pop()
        self.spans.append((opened[0], opened[1], name, site, t0, t1, tag))

    def _wrap_call(self, fn, name, site, label):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(opened, name, site, t0,
                            label(args, kwargs) if label else None)
        return wrapper

    def _wrap_generator(self, fn, name, site):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._iterate(fn(*args, **kwargs), name, site)
        return wrapper

    def _iterate(self, it, name, site):
        while True:
            opened = self._open()
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self._close(opened, name, site, t0)
                return
            except BaseException:
                self._close(opened, name, site, t0)
                raise
            self._close(opened, name, site, t0, "yield")
            yield item

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> int:
        """Wrap every public function at every binding site; returns the
        number of bindings replaced."""
        global _ACTIVE, _FORK_HOOK_REGISTERED
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        targets = {}
        for short in MODULES:
            module = importlib.import_module(f"specgraph.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets[obj] = f"{short}.{attr}"
        sites = [(name.split(".", 1)[1], module)
                 for name, module in sorted(sys.modules.items())
                 if name.startswith("specgraph.") and module is not None]
        for site, module in sites:
            for attr, obj in list(vars(module).items()):
                name = targets.get(obj) if inspect.isfunction(obj) else None
                if name is None:
                    continue
                if inspect.isgeneratorfunction(obj):
                    wrapper = self._wrap_generator(obj, name, site)
                else:
                    label = _verifier_id if name == "verify.run_verifier" \
                        else None
                    wrapper = self._wrap_call(obj, name, site, label)
                setattr(wrapper, MARK, True)
                self._set(module, attr, wrapper)
        wrapped = len(self._saved)
        for method in POOL_METHODS:
            original = getattr(mp_pool.Pool, method)

            def patched(pool, func, *args, _original=original, **kwargs):
                return _original(pool, _FlushAfter(func), *args, **kwargs)
            setattr(patched, MARK, True)
            self._set(mp_pool.Pool, method, patched)
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        _ACTIVE = self
        return wrapped

    def uninstall(self) -> bool:
        """Restore every binding; True iff no wrapper is left anywhere."""
        global _ACTIVE
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        _ACTIVE = None
        owners = [module for name, module in sys.modules.items()
                  if name.startswith("specgraph.") and module is not None]
        owners.append(mp_pool.Pool)
        return not any(getattr(obj, MARK, False)
                       for owner in owners for obj in vars(owner).values())

    # -- writing -----------------------------------------------------------

    def flush(self):
        """Append this process's finished spans to its file."""
        if not self.spans:
            return
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in self.spans))
        self.spans = []


def _verifier_id(args, kwargs):
    return args[0] if args else kwargs.get("lemma_id")


# ---------------------------------------------------------------------------
# reading a trace

def load_spans(trace_dir: str) -> list[tuple]:
    spans = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
    return spans


def _covered(intervals, lo, hi) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans) -> dict:
    """Per-function and per-module totals of a trace.

    ``s`` sums the spans of a function that are not nested in another span
    of the same function; ``self_s`` subtracts from each span the part of
    its interval that its child spans (in any process) cover.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[4], s[5]))

    def nested_in_same(s):
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2] == s[2]:
                return True
            parent = by_id.get(parent[1])
        return False

    def nested_in_module(s, module):
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2].startswith(module + "."):
                return True
            parent = by_id.get(parent[1])
        return False

    funcs = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                 "yields": 0})
    sites = defaultdict(int)
    modules = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    verifiers = defaultdict(float)
    for s in spans:
        span_id, _, name, site, t0, t1, tag = s
        dur = t1 - t0
        self_time = dur - _covered(children.get(span_id, ()), t0, t1)
        module = name.split(".", 1)[0]
        f = funcs[name]
        f["calls"] += 1
        f["self_s"] += self_time
        if not nested_in_same(s):
            f["s"] += dur
        if tag == "yield":
            f["yields"] += 1
        sites[(name, site)] += 1
        m = modules[module]
        m["calls"] += 1
        m["self_s"] += self_time
        if not nested_in_module(s, module):
            m["s"] += dur
        if name == "verify.run_verifier" and tag is not None:
            verifiers[tag] += dur
    return {"functions": dict(funcs), "modules": dict(modules),
            "sites": {f"{n}@{site}": c for (n, site), c in sites.items()},
            "verifiers": dict(verifiers), "spans": len(spans),
            "pids": len({s[0].split(".")[0] for s in spans})}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: tracer.py TRACE_DIR specgraph-arguments...",
              file=sys.stderr)
        return 2
    trace_dir, cli_args = argv[0], argv[1:]
    os.makedirs(trace_dir, exist_ok=True)
    import specgraph.cli
    tracer = Tracer(trace_dir)
    tracer.install()
    code = None
    try:
        code = specgraph.cli.main(cli_args)
    finally:
        removed = tracer.uninstall()
        tracer.flush()
        meta = {"exit_code": code, "wrappers_removed": removed}
        with open(os.path.join(trace_dir, "meta.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
