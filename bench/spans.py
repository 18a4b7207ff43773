"""Spans around calls into each ordercircuits module, kept in memory.

`Tracer.install()` replaces every public module-level function of the
library's modules, wherever a module or the package holds a reference to
it, by a wrapper that records a span: name, parent span, start and end.
A call from inside the function's own module passes straight through,
so spans mark the boundaries between layers; ALWAYS lists the few
functions whose intra-module calls are spanned as well.  Classes and
methods are not wrapped: their work counts to the caller's span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time

MODULES = ("poset", "circuit", "congruence", "morphism", "fca", "textio", "cli")
# Spanned even when called from their own module.
ALWAYS = {"congruence.is_compatible"}


def _count(name, args, result):
    """Work done by one call, for the rate metrics."""
    if name == "textio.parse":
        return len(args[0].encode("utf-8"))
    if name == "fca.concept_lattice":
        return len(result.gates)
    if name == "morphism.endomorphisms":
        return len(result)
    return 0


class Tracer:
    """Records spans as tuples (id, parent, name, start_ns, end_ns, count)."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = [0]
        self._next = 1
        self._patched = []

    def _wrap(self, fn, name):
        home = fn.__globals__
        always = name in ALWAYS
        getframe = sys._getframe
        clock = time.perf_counter_ns
        spans = self.spans
        stack = self._stack
        is_cli = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not always and getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            label = f"cli.main:{args[0][0]}" if is_cli else name
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                count = _count(name, args, result) if ok else 0
                spans.append((sid, parent, label, t0, t1, count))

        return wrapper

    def install(self):
        modules = [getattr(self.package, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        for mod in [self.package] + modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def root(self, label):
        """A root span: one op, or the corpus load."""
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, label, t0, t1, 0))

    def dump(self, path):
        """One JSON array per line: id, parent, name, start_ns, end_ns, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def summarise(spans, roots):
    """Per-name durations and work counts, per-module self and busy time.

    Only spans under a root whose label is in `roots` count.  A span's
    self time is its duration minus its children's; a module's busy time
    sums its spans that have no ancestor in the same module; root spans
    count as module "bench".  Returns
    (durations, counts, self_ns, busy_ns, number of roots).
    """
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for s in spans:
        child_ns[s[1]] = child_ns.get(s[1], 0) + (s[4] - s[3])

    def root_of(s):
        while s[1]:
            s = by_id[s[1]]
        return s

    durations, counts, self_ns, busy_ns = {}, {}, {}, {}
    n_roots = sum(1 for s in spans if s[1] == 0 and s[2] in roots)
    for s in spans:
        if root_of(s)[2] not in roots:
            continue
        dur = s[4] - s[3]
        mod = module_of(s[2])
        self_ns[mod] = self_ns.get(mod, 0) + dur - child_ns.get(s[0], 0)
        anc = by_id.get(s[1])
        while anc is not None and module_of(anc[2]) != mod:
            anc = by_id.get(anc[1])
        if anc is None:
            busy_ns[mod] = busy_ns.get(mod, 0) + dur
        if s[1]:
            durations.setdefault(s[2], []).append(dur)
            counts[s[2]] = counts.get(s[2], 0) + s[5]
    return durations, counts, self_ns, busy_ns, n_roots


def module_of(label):
    head = label.split(".", 1)[0]
    return head if head in MODULES else "bench"


def median_ms(durations):
    return statistics.median(durations) / 1e6
