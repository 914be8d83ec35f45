"""Outside-in per-layer tracing of cwrsim, installed from the benchmark.

`Tracer` wraps, for as long as it is entered, every public function and
method of each cwrsim module (one module = one layer), and every callback
handed to `EventQueue.schedule` as a `dispatch.<label>` span, so the
engine's own dispatch cost separates from the handlers it runs. Every call
is counted; a call that crosses from one layer into another also gets a
timing span, while a call within a layer is timed as part of its caller.
Nothing under `src/` is edited; the wrappers are removed on exit.

A span's self time is its duration minus the time its child spans cover;
the tracer's own bookkeeping is excluded, the cost of entering a wrapper
is not, so self times are inflated and only compare between traced runs.
Self time is accumulated per (layer, label), where the label is that of the
engine event being dispatched ("-" outside any dispatch). Spans are folded
into these totals as they close instead of being stored: a 30 s line-rate
run opens several million of them.
"""
from __future__ import annotations

import functools
import gc
import importlib
import inspect
import time
from types import ModuleType

LAYERS = ("engine", "link", "transport", "scheduling", "traffic", "metrics",
          "simulation", "scenario", "cli")

# Private methods that another layer calls back into; traced so that their
# time is charged to the layer that owns them, not to the caller.
CALLBACKS = {"Node": ("_link_ready", "_gate_room")}

ROOT_LAYER = "bench"
NO_LABEL = "-"
_RAISED = object()


def _layer_of(fn) -> str:
    """Layer owning a scheduled callback: partials and bound methods unwrapped."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    module = getattr(fn, "__module__", None) or ""
    package, _, name = module.rpartition(".")
    return name if package == "cwrsim" and name in LAYERS else ROOT_LAYER


class Tracer:
    """Context manager that traces every cwrsim call made while it is entered.

    After exit:
      self_s[(layer, label)]  self seconds of that layer's spans
      stats[key]              [calls, entries, entries_ok, entry seconds]
                              for key "layer.Class.method", "layer.function"
                              or "dispatch.<label>". An entry is a call from
                              another layer, the only calls given a span;
                              entries_ok counts entries whose result was
                              truthy (e.g. an admitted send), entry seconds
                              is their inclusive time.
      runs                    every RunResult returned by Simulation.run
    """

    def __init__(self) -> None:
        self.self_s: dict[tuple[str, str], float] = {}
        self.stats: dict[str, list] = {}
        self.runs: list = []
        self.label = NO_LABEL
        self._stack: list[list] = [[0.0, ROOT_LAYER]]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _span(self, fn, layer: str, stat: list, label: str | None = None,
              before=None):
        """Wrap fn in a span; `before` may rewrite the positional arguments.

        The wrapper's own bookkeeping is timed as part of the span in its
        parent's accounts, so the tracer's cost never lands in a caller's
        self time; only the bare call into the wrapper does.
        """
        stack = self._stack
        selfs = self.self_s
        perf = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1]
            if parent[1] == layer and label is None and before is None:
                # a call within one layer is counted, and timed as part of
                # the enclosing span of the same layer
                stat[0] += 1
                return fn(*args, **kwargs)
            entered = perf()
            if label is not None:
                outer_label = tracer.label
                tracer.label = label
            if before is not None:
                args = before(args)
            frame = [0.0, layer]
            stack.append(frame)
            result = _RAISED
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                key = (layer, tracer.label)
                selfs[key] = selfs.get(key, 0.0) + (t1 - t0) - frame[0]
                stat[0] += 1
                stat[3] += t1 - t0
                if label is not None:
                    tracer.label = outer_label
                if parent[1] != layer:
                    stat[1] += 1
                    if result is not _RAISED and result:
                        stat[2] += 1
                parent[0] += perf() - entered

        return span

    def _stat(self, key: str) -> list:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = [0, 0, 0, 0.0]
        return stat

    def _traced(self, fn, layer: str, key: str, before=None):
        return functools.update_wrapper(
            self._span(fn, layer, self._stat(key), before=before), fn)

    def _dispatch(self, fn, label: str):
        return self._span(fn, _layer_of(fn), self._stat("dispatch." + label),
                          label)

    # -- install / remove --------------------------------------------------

    def _patch(self, target, name: str, value) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"cwrsim.{layer}")
                   for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(obj, layer)
                elif inspect.isfunction(obj) and not name.startswith("_"):
                    self._patch_function(modules, obj, layer)
        return self

    def _patch_function(self, modules: dict[str, ModuleType], fn,
                        layer: str) -> None:
        traced = self._traced(fn, layer, f"{layer}.{fn.__name__}")
        # `from .x import f` copies the name; patch every binding of it
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, name, traced)

    def _patch_class(self, cls: type, layer: str) -> None:
        extra = CALLBACKS.get(cls.__name__, ())
        for name, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if name.startswith("_") and name not in extra:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            before = None
            if cls.__name__ == "EventQueue" and name == "schedule":
                before = self._dispatch_callback
            elif cls.__name__ == "Simulation" and name == "run":
                value = self._run_wrapper(value)
            self._patch(cls, name, self._traced(value, layer, key, before))

    def _dispatch_callback(self, args: tuple) -> tuple:
        """EventQueue.schedule(queue, fire_time, fn, label): wrap fn."""
        queue, fire_time, fn, *label = args
        label = label[0] if label else "event"
        return (queue, fire_time, self._dispatch(fn, label), label)

    def _run_wrapper(self, run):
        runs = self.runs

        @functools.wraps(run)
        def collecting_run(sim):
            result = run(sim)
            runs.append(result)
            return result

        return collecting_run

    def __exit__(self, *exc) -> None:
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str, label: str | None = None) -> float:
        return sum(s for (lay, lab), s in self.self_s.items()
                   if lay == layer and (label is None or lab == label))

    def calls(self, suffix: str) -> int:
        """Calls of every traced function whose key ends with suffix."""
        return sum(st[0] for key, st in self.stats.items()
                   if key.endswith(suffix))

    def entries(self, suffix: str) -> tuple[int, int]:
        """(entries, truthy entries) of functions whose key ends with suffix."""
        hits = [st for key, st in self.stats.items() if key.endswith(suffix)]
        return sum(st[1] for st in hits), sum(st[2] for st in hits)

    def inclusive_s(self, suffix: str) -> float:
        return sum(st[3] for key, st in self.stats.items()
                   if key.endswith(suffix))


class GcTimer:
    """Host seconds spent in garbage collection while entered."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
