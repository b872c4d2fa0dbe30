"""Per-layer tracing of manifold_recon, installed from outside the package.

Each layer is a public function (or method) that wrappers replace at every
module attribute its callers look it up through, so nothing under ``src/``
changes. A wrapped call records one span: id, name, start, end, parent span
and thread, plus the work counts named in ``LAYERS``.

Self time is computed by one rule: every instant of a pass is charged to the
innermost open spans. On one thread that is the span minus its wrapped
children. A call made on a harness pool thread has the span open on the main
thread (the experiment) as its parent, and when two pool threads are inside
wrapped calls at the same instant, that instant is split between them. So
the self times of one pass add up to its traced wall time, less the time
spent outside every wrapped call (reported as ``trace.unattributed_s``).

``oracle.global_kflats`` calls ``refit_cell`` through its own module name,
which is not wrapped: that time counts as ``oracle.global`` self time, so
that the enumeration's thousands of tiny refits carry no tracing cost.
"""

import functools
import itertools
import inspect
import os
import sys
import threading
import time

from manifold_recon import (cli, geometry, harness, kflats, kmeans, oracle,
                            storage, util)


def _fit_work(fit_fn):
    """Work counts for kmeans.fit / kflats.fit: Lloyd passes summed over the
    restarts, and restarts stopped by the cfg.max_iters cap, read from the
    objective traces the fit writes into ``trace_sink`` (one entry per pass
    plus the final objective)."""
    sig = inspect.signature(fit_fn)

    def before(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        sink = bound.arguments.get("trace_sink")
        if sink is None:
            sink = []
            kwargs = dict(kwargs, trace_sink=sink)
        cfg = bound.arguments.get("cfg") or kmeans.FitConfig()
        return args, kwargs, (sink, len(sink), cfg)

    def after(state):
        sink, first, cfg = state
        traces = sink[first:]
        return (sum(len(t) - 1 for t in traces),
                sum(capped(t, cfg.max_iters, cfg.rel_tol) for t in traces))

    return before, after


def capped(trace, max_iters, rel_tol):
    """Whether a restart with objective trace ``trace`` was stopped by the
    cap: it ran ``max_iters`` passes and its last pass met neither stopping
    rule of the Lloyd loop. One rule is a relative decrease of at most
    ``rel_tol`` from the pass before; the other is an assignment that repeats
    the previous one, which refits the same centres or flats, so the final
    objective equals the last pass's bit for bit."""
    passes = len(trace) - 1
    if passes != max_iters:
        return False
    if passes < 2:
        return True
    before, last, final = trace[-3], trace[-2], trace[-1]
    converged = before - last <= rel_tol * max(before, 1e-300)
    return not converged and final != last


def _static(count):
    """Counts that depend only on the arguments."""
    def before(args, kwargs):
        return args, kwargs, count(*args, **kwargs)
    return before, lambda state: state


def _min_sqdist_work(X, C, *_, **__):
    return (X.shape[0] * C.shape[0] * X.shape[1],)


def _holdout_work(model, holdout):
    return (holdout.size * model.k * holdout.ambient_dim,)


def _refit_work(points, d):
    return (len(points),)


def _oracle_work(data, k, d=0):
    return (oracle.partition_count(data.size, k),)


def _read_work(path):
    return (os.path.getsize(path),)


def _no_work(*_, **__):
    return ()


# name -> (work count names, [(owner, attribute), ...], counts from the
# arguments, or None for the fits, whose counts come from their traces)
LAYERS = {
    "geometry.sample": (("points",), [(geometry.ManifoldSpec, "sample")],
                        lambda self, n, seed: (n,)),
    "util.min_sqdist": (("pair_dims",),
                        [(util, "min_sqdist"), (kmeans, "min_sqdist"),
                         (kflats, "min_sqdist"), (harness, "min_sqdist")],
                        _min_sqdist_work),
    "util.fsum_mean": (("values",),
                       [(util, "fsum_mean"), (kmeans, "fsum_mean"),
                        (kflats, "fsum_mean"), (harness, "fsum_mean")],
                       lambda v: (len(v),)),
    "kmeans.seed_kmeanspp": ((), [(kmeans, "seed_kmeanspp"),
                                  (kflats, "seed_kmeanspp")], _no_work),
    "kmeans.fit": (("passes", "capped_restarts"), [(kmeans, "fit")], None),
    "kflats.fit": (("passes", "capped_restarts"), [(kflats, "fit")], None),
    "kflats.refit_cell": (("points",), [(kflats, "refit_cell")], _refit_work),
    "harness.holdout_error": (("pair_dims",), [(harness, "holdout_error")],
                              _holdout_work),
    "harness.experiment": ((), [(harness, "tradeoff_experiment"),
                                (harness, "rate_experiment")], _no_work),
    "oracle.global": (("partitions",), [(oracle, "global_kmeans"),
                                        (oracle, "global_kflats")], _oracle_work),
    "storage.read_dataset": (("bytes",), [(storage, "read_dataset")], _read_work),
    "cli.main": ((), [(cli, "main")], _no_work),
}

# Layers whose per-layer metrics report only self time.
SELF_ONLY = {"harness.experiment"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, (works, _, _) in LAYERS.items():
        if name not in SELF_ONLY:
            out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        out.extend((f"{name}.{w}", "B" if w == "bytes" else "count")
                   for w in works)
    out.append(("trace.run_s", "s"))
    out.append(("trace.unattributed_s", "s"))
    return out


class Tracer:
    """Collects spans from the wrapped layers while installed."""

    def __init__(self):
        self.spans = []
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._stacks = {self._main_ident: self._main_stack}
        self._next_id = itertools.count(1).__next__
        self._saved = []

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, kwargs, state = before(args, kwargs)
            ident = threading.get_ident()
            stack = tracer._stacks.get(ident)
            if stack is None:
                stack = tracer._stacks[ident] = []
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's outermost call belongs to the span open on
                # the main thread that started the pool
                main = tracer._main_stack
                parent = main[-1] if main and ident != tracer._main_ident else 0
            sid = tracer._next_id()
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, ident,
                                     after(state)))

        return wrapper

    def install(self):
        missing = []
        for name, (_, targets, count) in LAYERS.items():
            wrappers = {}
            for owner, attr in targets:
                fn = getattr(owner, attr, None)
                if fn is None:
                    missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                if id(fn) not in wrappers:
                    hooks = _fit_work(fn) if count is None else _static(count)
                    wrappers[id(fn)] = self._wrap(name, fn, *hooks)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        if missing:
            print("trace: not found, left unwrapped: " + ", ".join(missing),
                  file=sys.stderr)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take_pass(self, wall_s):
        """Aggregate and clear the spans of one pass of ``wall_s`` seconds;
        returns the per-layer metric values."""
        spans, self.spans = self.spans, []
        self_s = attribute_self_time(spans)
        values = {}
        for name, (works, _, _) in LAYERS.items():
            if name not in SELF_ONLY:
                values[f"{name}.calls"] = 0
            values[f"{name}.self_s"] = 0.0
            for w in works:
                values[f"{name}.{w}"] = 0
        for sid, name, _, _, _, _, work in spans:
            if name not in SELF_ONLY:
                values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += self_s[sid]
            for w, v in zip(LAYERS[name][0], work):
                values[f"{name}.{w}"] += int(v)
        values["trace.run_s"] = wall_s
        values["trace.unattributed_s"] = wall_s - sum(self_s.values())
        return values


def attribute_self_time(spans):
    """Charge every instant to the innermost open spans, split evenly.

    A span is innermost while none of its children (on any thread) is open.
    Returns {span id: seconds}.
    """
    parent_of = {s[0]: s[4] for s in spans}
    events = []
    for sid, _, start, end, _, _, _ in spans:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    self_s = dict.fromkeys(parent_of, 0.0)
    open_children = {}
    leaves = set()
    last = None
    for t, is_start, sid in events:
        if leaves and last is not None:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_s[leaf] += share
        last = t
        parent = parent_of[sid]
        if is_start:
            open_children[sid] = 0
            leaves.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[sid]
            leaves.discard(sid)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_s
