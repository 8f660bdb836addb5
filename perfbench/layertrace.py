"""Per-layer tracing of finadj from outside the package.

`Tracer.install` wraps every public function of every loaded finadj module
at runtime, rebinding each module attribute that refers to it (so
`from .fincat import check_laws` bindings are traced too).  Each call records
a span (layer, start, end, parent span, instance id) in flat in-memory
arrays; a generator function records one span per resumption.  Nothing in
finadj changes, and uninstalling restores the original functions.

A layer's self time is the total duration of its spans minus the time their
direct child spans cover.  Counts are exact: calls per layer plus a few work
counts read from arguments and results at the same boundaries.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter


def _anchors_decided(args, result) -> int:
    objects = args[0].target.objects
    return len(objects) if result.exists else objects.index(result.witness) + 1


# layer -> (count name, amount read from (args, result)), recorded per call
WORK_COUNTS = {
    "fincat.check_laws": ("morphisms", lambda args, result: len(args[0].morphisms)),
    "adjoint.comma_under": ("objects", lambda args, result: len(result.base.objects)),
    "limits.cones": ("found", lambda args, result: len(result)),
    "adjoint.brute_force_left_adjoint": ("pairs", lambda args, result: len(result.pairs)),
    "adjoint.gaft_decide": ("anchors", _anchors_decided),
}

SPANS_CSV_HEADER = "layer,start_ns,end_ns,parent,instance\n"


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.calls = array("q")
        self.span_layer = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.instance = array("l")
        self.work: Counter = Counter()
        self.current = -1  # instance id stamped on new spans; -1 during set-up
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; keep the wrappers installed."""
        for arr in (self.span_layer, self.start, self.end, self.parent, self.instance):
            del arr[:]
        for i in range(len(self.calls)):
            self.calls[i] = 0
        self.work.clear()
        self.current = -1

    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, layer: str, fn):
        lid = len(self.layers)
        self.layers.append(layer)
        self.calls.append(0)
        calls, span_layer, start, end = self.calls, self.span_layer, self.start, self.end
        parent, instance, stack, clock = self.parent, self.instance, self._stack, time.perf_counter_ns
        tracer = self

        def open_span() -> int:
            sid = len(start)
            span_layer.append(lid)
            parent.append(stack[-1])
            instance.append(tracer.current)
            start.append(0)
            end.append(0)
            stack.append(sid)
            return sid

        if inspect.isgeneratorfunction(fn):

            def steps(gen):
                while True:
                    sid = open_span()
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[sid] = clock()
                        start[sid] = t0
                        stack.pop()
                    yield item

            def wrapper(*args, **kwargs):
                calls[lid] += 1
                return steps(fn(*args, **kwargs))

        else:
            work = WORK_COUNTS.get(layer)

            def wrapper(*args, **kwargs):
                calls[lid] += 1
                sid = open_span()
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[sid] = clock()
                    start[sid] = t0
                    stack.pop()
                if work is not None:
                    tracer.work[f"{layer}.{work[0]}"] += work[1](args, result)
                return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, in seconds, over every recorded span."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        total = [0] * len(self.layers)
        for sid in range(n):
            total[self.span_layer[sid]] += self.end[sid] - self.start[sid] - child[sid]
        return {f"{layer}.self_s": total[i] / 1e9 for i, layer in enumerate(self.layers)}

    def counts(self) -> dict[str, float]:
        """Exact work counts: calls per layer, the recorded work counts, and
        the two ratios built from them."""
        out: dict[str, float] = {f"{layer}.calls": self.calls[i] for i, layer in enumerate(self.layers)}
        out.update({f"{layer}.{name}": self.work[f"{layer}.{name}"] for layer, (name, _) in WORK_COUNTS.items()})
        lid = {layer: i for i, layer in enumerate(self.layers)}
        oracle, verify = lid["adjoint.brute_force_left_adjoint"], lid["adjoint.verify_adjunction"]
        gaft, comma = lid["adjoint.gaft_decide"], lid["adjoint.comma_under"]
        oracle_verifies = commas_in_gaft = 0
        for sid in range(len(self.start)):
            layer = self.span_layer[sid]
            if layer == verify:
                p = self.parent[sid]
                oracle_verifies += p >= 0 and self.span_layer[p] == oracle
            elif layer == comma:
                p = self.parent[sid]
                while p >= 0 and self.span_layer[p] != gaft:
                    p = self.parent[p]
                commas_in_gaft += p >= 0
        pairs = self.work["adjoint.brute_force_left_adjoint.pairs"]
        anchors = self.work["adjoint.gaft_decide.anchors"]
        # pairs found per verify_adjunction call the oracle made
        out["adjoint.brute_force_left_adjoint.hit_ratio"] = pairs / oracle_verifies if oracle_verifies else 0.0
        # commas built under gaft_decide per anchor it decided
        out["adjoint.comma_under.per_anchor"] = commas_in_gaft / anchors if anchors else 0.0
        return out

    def snapshot(self) -> dict[str, float]:
        return {**self.self_seconds(), **self.counts()}

    def write_spans(self, fh, offset: int = 0) -> None:
        """Append the recorded spans as CSV rows (layer, start_ns, end_ns,
        parent, instance); parent is a row index, shifted by `offset` rows
        already in the file, or -1."""
        for sid in range(len(self.start)):
            p = self.parent[sid]
            fh.write(
                f"{self.layers[self.span_layer[sid]]},{self.start[sid]},{self.end[sid]},"
                f"{p + offset if p >= 0 else -1},{self.instance[sid]}\n"
            )
