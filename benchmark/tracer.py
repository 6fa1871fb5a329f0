"""Span tracing for the benchmark, applied from outside the package.

Public functions and methods of `tgsl` are wrapped at run time: every
module of the package that holds a name bound to the original object gets
the wrapper, so a function imported by name elsewhere (`training` imports
`etgnn_forward`) and one called as a module global (`structure` calls
`visible_window`) are both seen. `Patches.restore` puts every original
object back.

Spans nest on one stack (the benchmark is single-threaded). Per span name
the tracer keeps the call count, the total time and the self time, which is
the span's duration minus the time covered by its child spans. Aggregates
are kept instead of one record per span because the neighbor query alone
runs about 100k times per epoch.
"""

import functools
import os
import sys
import time

PACKAGE = "tgsl"


def _package_modules():
    return [(n, m) for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Nested span timer plus named counters and sample lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []            # [name, start, time covered by children]
        self.spans = {}             # name -> [calls, total_s, self_s]
        self.counts = {}
        self.samples = {}

    def begin(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def end(self):
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def calls(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[2]


def ratio(num, den):
    """num / den, or 0.0 when the base is zero (nothing was attempted)."""
    return float(num) / den if den else 0.0


def slope(ys):
    """Least-squares slope of ys against their index; 0.0 below 2 points."""
    n = len(ys)
    if n < 2:
        return 0.0
    mx = (n - 1) / 2.0
    my = sum(ys) / n
    sxy = sum((i - mx) * (y - my) for i, y in enumerate(ys))
    sxx = sum((i - mx) ** 2 for i in range(n))
    return sxy / sxx


def percentile(xs, q):
    """Linear-interpolated q-th percentile (0..100); 0.0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def rss_mb():
    """Current resident set size of this process in MiB."""
    with open("/proc/self/statm", "rb") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _wrapper(fn, tracer, name, before, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(tracer, out, args, kwargs)
        return out
    traced.__wrapped_by_benchmark__ = True
    return traced


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self):
        self._undo = []             # (owner, attribute, original object)

    def function(self, module, attr, tracer, name, before=None, after=None):
        """Wrap a module-level function at every package module that binds
        it, under whatever name it was bound."""
        original = getattr(module, attr)
        wrapped = _wrapper(original, tracer, name, before, after)
        hits = 0
        for _, mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{module.__name__}.{attr} is bound nowhere")

    def method(self, cls, attr, tracer, name, before=None, after=None):
        """Wrap a method (plain or classmethod) on its defining class."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrapper(original.__func__, tracer, name,
                                           before, after))
        else:
            wrapped = _wrapper(original, tracer, name, before, after)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def wrapped_names():
    """Names in the package's modules and classes still bound to a
    benchmark wrapper; empty once every patch is restored."""
    found = []
    for n, mod in _package_modules():
        for key, val in vars(mod).items():
            objs = [(key, val)]
            if isinstance(val, type) and val.__module__ == n:
                objs += [(f"{key}.{k}", v) for k, v in vars(val).items()]
            for label, obj in objs:
                fn = obj.__func__ if isinstance(obj, classmethod) else obj
                if getattr(fn, "__wrapped_by_benchmark__", False):
                    found.append(f"{n}.{label}")
    return found
