"""Per-layer tracing from outside the program.

The tracer wraps public functions of the pnlab modules and swaps every
module-level binding of each original for its wrapper.  Swapping every
binding matters: `max_ones` and friends are imported by name into
`normality`, `palindromes`, `collapse`, `jpm`, `verify` and `cli`, so
patching only `pnlab.words.max_ones` would miss nearly every call.

Each wrapped call is a span (id, parent id, name, start, end).  Spans
are aggregated as they close (calls, inclusive time, self time, and
named counters) and the first `span_cap` of them are kept in memory to
be written out when the run ends.  Self time is the span's duration
minus the durations of its direct child spans.

Pool workers forked while wrappers are installed inherit them; the
wrappers notice the foreign process id and call straight through, so
work done in workers is not attributed to any layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tracemalloc
from time import perf_counter


class Frame:
    __slots__ = ("span_id", "parent_id", "start", "child", "pooled")

    def __init__(self, span_id, parent_id, start):
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.child = 0.0
        self.pooled = False


class Stat:
    __slots__ = ("calls", "incl", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.counters = {}


class Tracer:
    """Span recorder; `install` patches pnlab, `uninstall` restores it.

    With `peak_names` set, calls of those spans also run under
    tracemalloc and record their peak allocation in MB.  That slows
    them, so peaks come from a pass of their own, not a timed one.
    """

    def __init__(self, span_cap: int = 100_000, peak_names: frozenset[str] = frozenset()):
        self.pid = os.getpid()
        self.stack: list[Frame] = []
        self.stats: dict[str, Stat] = {}
        self.top_s = 0.0
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self._next_id = 0
        self._patches: list[tuple[dict, str, object]] = []
        self.peak_names = peak_names
        self.peaks: dict[str, float] = {}
        # Off outside the benchmark's timed calls, so correctness checks
        # that reuse pnlab functions leave no spans.
        self.active = False

    # --- span bookkeeping ---------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def add(self, name: str, counter: str, amount) -> None:
        counters = self.stat(name).counters
        counters[counter] = counters.get(counter, 0) + amount

    def _enter(self) -> Frame:
        self._next_id += 1
        parent = self.stack[-1].span_id if self.stack else 0
        frame = Frame(self._next_id, parent, perf_counter())
        self.stack.append(frame)
        return frame

    def _exit(self, frame: Frame, name: str, calls: int = 1) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame.start
        st = self.stat(name)
        st.calls += calls
        st.incl += duration
        st.self_s += duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        else:
            self.top_s += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((frame.span_id, frame.parent_id, name, frame.start, end))
        else:
            self.dropped += 1

    def batch(self, name: str, fn, items):
        """Call fn(*item) for each item inside one span counted as len(items) calls.

        For functions too cheap to wrap per call (a per-call wrapper would
        cost more than the call itself).
        """
        frame = self._enter()
        try:
            return [fn(*item) for item in items]
        finally:
            self._exit(frame, name, calls=len(items))

    # --- wrappers -----------------------------------------------------------

    def wrap(self, fn, name, on_result=None):
        """Wrap a function; `name` is a string or a callable(frame, args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            label = name
            peak = name in tracer.peak_names and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks.get(name, 0.0), peak_mb)
                if callable(name):
                    label = name(frame, args, kwargs)
                tracer._exit(frame, label)
            if on_result is not None:
                on_result(tracer, label, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, name, on_item=None):
        """Wrap a generator function; each resumption is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active or os.getpid() != tracer.pid:
                yield from gen
                return
            while True:
                frame = tracer._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._exit(frame, name)
                    return
                except BaseException:
                    tracer._exit(frame, name)
                    raise
                tracer._exit(frame, name)
                if on_item is not None:
                    on_item(tracer, name, item)
                yield item

        return traced

    # --- patching -----------------------------------------------------------

    def install(self, targets) -> None:
        """targets: iterable of (module, attribute, wrapper_factory).

        Every pnlab module attribute bound to the original object is
        rebound to the wrapper.
        """
        modules = [m for key, m in sys.modules.items() if key == "pnlab" or key.startswith("pnlab.")]
        for module, attr, factory in targets:
            original = getattr(module, attr)
            wrapper = factory(original)
            for m in modules:
                namespace = vars(m)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((namespace, key, original))
                        namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON: names are interned in a table."""
        names: dict[str, int] = {}
        rows = []
        for span_id, parent_id, name, start, end in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([span_id, parent_id, idx, round(start * 1e9), round(end * 1e9)])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "names": list(names),
                    "dropped": self.dropped,
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
