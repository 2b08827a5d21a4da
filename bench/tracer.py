"""Span tracing of hybridnet's layers from outside the program.

The tracer wraps every public module-level function of the traced modules
and rebinds each wrapper under every name that held the original, so a
function that another module imported by name (``engine`` imports
``classify_points`` from ``zoning``) is traced at both bindings. Each call
appends one span (name, start, end, parent) to an in-memory list; nothing
is written until the run ends.

Callables reached only through a container built at import time, such as
``cli.COMMANDS``, keep the original function; their time stays in the
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

TRACED_MODULES = ("zoning", "engine", "channel", "policy", "protocol", "selection", "transport", "config", "cli", "rng")

# Work counts read from a traced call's arguments or result; summed over
# calls, except the quantities in MAX_QUANTITIES, which keep the largest.
COUNTERS = {
    "zoning.classify_points": lambda args, result: {"points": len(result)},
    "zoning.monte_carlo_zone_model": lambda args, result: {"samples": result.sample_count},
    "zoning.plan_grid": lambda args, result: {"ap_count": result.ap_count},
    "engine.femto_sinr_experiment": lambda args, result: {"drops": args[0].drops},
    "engine.simulate_indoor": lambda args, result: {
        "user_ticks": args[0].user_count * int(round(args[0].duration_s / args[0].mobility.tick_s)),
    },
    "protocol.run_handover": lambda args, result: {"failed": int(not result.complete)},
}
MAX_QUANTITIES = {"ap_count"}

ROOT = -1


class Tracer:
    """Owns the span list and the wrappers installed into the package."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counts_by_command: list[dict[str, dict[str, int]]] = []
        self._stack = [ROOT]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"hybridnet.{m}") for m in TRACED_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        counter = COUNTERS.get(name)
        by_command = self.counts_by_command

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()
            if counter is not None:
                _merge(by_command[-1].setdefault(name, {}), counter(args, result))
            return result

        return wrapper

    def begin_command(self) -> None:
        """Attribute work counts from here on to a new command; call before the first traced call."""
        self.counts_by_command.append({})

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the benchmark's own code."""
        name_id = len(self.names)
        self.names.append(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index] = (name_id, start, time.perf_counter_ns(), parent)
            self._stack.pop()

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[name_id]},{start},{end}\n")

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name, traced functions never called included: calls, inclusive
        and self nanoseconds, and work counts.

        A span's self time is its duration minus the durations of its
        direct children; direct children of one span never overlap, so the
        self times of all spans under a root sum to the root's duration.
        """
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent != ROOT:
                child_ns[parent] += end - start
        stats = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            # Inclusive time counts a recursive call (config.deep_merge)
            # once per level; no unit cost is taken from a recursive function.
            entry["total_ns"] += end - start
        for per_command in self.counts_by_command:
            for name, counts in per_command.items():
                _merge(stats[name], counts)
        return stats


def _merge(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = max(into.get(key, 0), value) if key in MAX_QUANTITIES else into.get(key, 0) + value
