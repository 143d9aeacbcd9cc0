"""In-memory spans around the public functions of the degen_kuramoto modules.

Wrapping happens from outside the package: every public function listed in a
module's ``__all__`` is replaced by a timing wrapper, in its own module and in
every other module that imported it by name, and ``Graph.__init__`` is wrapped
so graph construction is timed wherever it happens. ``uninstall`` restores the
originals. Spans record name, start, end and the index of the enclosing span;
they stay in memory until the caller aggregates them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "oscillator", "degeneracy", "dynamics", "experiments", "docio", "render", "cli")
PACKAGE = "degen_kuramoto"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.args = defaultdict(list)  # span name -> kept values, one per call
        self.keep_args = {}  # span name -> function(args, kwargs, result) giving the value to keep
        self._stack = []
        self._restore = []

    def span(self, name):
        """Context manager recording one span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        keep = self.keep_args.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if keep is not None:
                self.args[name].append(keep(args, kwargs, result))
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        graph_cls = sys.modules[f"{PACKAGE}.graphs"].Graph
        self._restore.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self._wrap("graphs.Graph", graph_cls.__init__)

    def uninstall(self):
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close()


def summarize(spans):
    """Calls, inclusive and self seconds per span name and per layer.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums the self time of its spans. by_root
    keys (root span name, span name) to [calls, inclusive seconds], where the
    root is the outermost span enclosing the call.
    """
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_by_name = defaultdict(float)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    by_root = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_time[i]
        calls[name] += 1
        inclusive[name] += end - start
        self_by_name[name] += own
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        layer_calls[layer] += 1
        entry = by_root[(spans[root[i]][0], name)]
        entry[0] += 1
        entry[1] += end - start
    return {
        "calls": dict(calls),
        "inclusive_s": dict(inclusive),
        "self_by_name": dict(self_by_name),
        "layer_self_s": dict(layer_self),
        "layer_calls": dict(layer_calls),
        "by_root": {k: tuple(v) for k, v in by_root.items()},
    }
