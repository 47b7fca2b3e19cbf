"""Bench-side layer trace: timing wrappers installed from outside ``src/``.

:class:`LayerTracer` patches each layer's public functions (see
:data:`TARGETS`) with a wrapper that records one span per call — name,
layer, parent, op id, start/end on **both** clocks (host
``perf_counter_ns`` and the deployment's ``SimClock``).  Self time is a
span's duration minus the part its child spans cover.  Simulated self
time follows ``QueryProfile``'s critical-path rule: under
``SimClock.parallel`` only the slowest leg's subtree counts, under
``SimClock.race`` only the winner's, so the per-layer simulated self
times of a request sum to its simulated latency.

Wrappers must be installed **before** the deployment is built (RPC
endpoints capture bound methods at construction) and stay pass-through
until :meth:`LayerTracer.start`; :meth:`uninstall` restores every
binding.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

# (layer, module, class name or None, function names).  Functions imported
# by name elsewhere are patched at every ``repro.*`` binding.
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("fs.vfs", "repro.fs.vfs", "VirtualFileSystem",
     ("open", "write", "close", "create", "unlink", "rename", "exists",
      "mkdir", "stat", "write_file")),
    ("fs.interceptor", "repro.fs.interceptor", "FileAccessManager",
     ("on_open", "on_close", "on_create", "on_unlink", "on_rename",
      "drain_dirty")),
    ("core.acg", "repro.core.acg", "AccessCausalityGraph",
     ("add_file", "add_causality", "merge")),
    ("cluster.client", "repro.cluster.client", "PropellerClient",
     ("index_path", "index_dirty", "flush_updates", "flush_acg",
      "search_detailed")),
    ("sim.rpc", "repro.sim.rpc", "RpcNetwork",
     ("call", "hedged_call", "multicall")),
    ("cluster.index_node", "repro.cluster.index_node", "IndexNode",
     ("handle_index_update", "handle_search", "handle_search_replica",
      "tick", "make_heartbeat", "checkpoint_to_shared")),
    ("cluster.wal", "repro.cluster.wal", "WriteAheadLog",
     ("append", "append_batch", "replay", "truncate")),
    ("cluster.cache", "repro.cluster.cache", "IndexCache",
     ("add", "commit_due", "commit_for_search", "commit_all")),
    ("indexstructures.btree", "repro.indexstructures.btree", "BPlusTree",
     ("insert", "bulk_insert", "remove", "range", "get")),
    ("indexstructures.hashindex", "repro.indexstructures.hashindex",
     "ExtendibleHashIndex", ("insert", "bulk_insert", "remove", "get")),
    ("indexstructures.postings", "repro.indexstructures.postings",
     "PostingList", ("intersection", "union", "difference")),
    ("indexstructures.postings", "repro.indexstructures.postings", None,
     ("intersect_all",)),
    ("query.parser", "repro.query.parser", None, ("parse_query",)),
    ("query.planner", "repro.query.planner", None,
     ("plan_query", "plan_query_set")),
    ("query.executor", "repro.query.executor", None,
     ("execute", "execute_plans")),
    ("query.summary", "repro.query.summary", None, ("summary_may_match",)),
    ("query.summary", "repro.query.summary", "PartitionSummary",
     ("observe_batch", "rebuild", "snapshot")),
    ("replication", "repro.replication.log", "ReplicationLog",
     ("append", "since", "trim_to")),
    ("replication", "repro.cluster.index_node", "IndexNode",
     ("handle_replicate_apply",)),
    ("replication", "repro.replication.hedging", "HedgePolicy",
     ("delay_s",)),
    ("cluster.segments", "repro.cluster.segments", None,
     ("dump_segment", "load_segment")),
    ("cluster.segments", "repro.cluster.segments", "SegmentView",
     ("search",)),
    ("cluster.segments", "repro.cluster.segments", "SegmentCache",
     ("get", "put")),
    ("sim.objectstore", "repro.sim.objectstore", "SimObjectStore",
     ("put", "get", "delete")),
    ("sim.events", "repro.sim.events", "EventLoop",
     ("run_due", "run_until")),
    ("obs", "repro.obs.tracing", "Tracer", ("span", "_close")),
    ("obs", "repro.obs.journal", "EventJournal", ("emit",)),
    ("obs", "repro.obs.freshness", "FreshnessTracker",
     ("stamp", "visible", "expire")),
    ("obs", "repro.obs.slo", "SloTracker", ("sample_if_due",)),
    ("obs", "repro.obs.health", "HealthMonitor", ("sample_if_due",)),
    ("obs", "repro.obs.metrics", "Histogram", ("observe",)),
)

# PostingList.from_iterable is a classmethod; it is patched separately so
# the wrapper keeps its binding behaviour.
_CLASSMETHODS = (("indexstructures.postings",
                  "repro.indexstructures.postings", "PostingList",
                  "from_iterable"),)


class LayerTracer:
    """Per-layer self-time accounting on two clocks, by monkeypatch."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.active = False
        self.clock = None
        self.keep_spans = keep_spans
        self.op_id = 0
        self.host_self_ns: Dict[str, int] = {}
        self.sim_self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.fn_host_self_ns: Dict[str, int] = {}
        self.fn_calls: Dict[str, int] = {}
        # Spans kept for the .trace.json dump: (name, layer, parent index,
        # op id, host start ns, host end ns, sim start s, sim end s).
        self.spans: List[Tuple[Any, ...]] = []
        # Result hooks: qualified function name -> callable(result).
        self.hooks: Dict[str, Callable[[Any], None]] = {}
        # Open frames: [child host ns, child sim s, span index].
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._handler_patches: List[Tuple[Dict[str, Any], str, Any]] = []

    # -- wrapper factories ----------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], layer: str,
              name: str) -> Callable[..., Any]:
        tracer = self
        stack = self._stack
        host_self = self.host_self_ns
        calls = self.calls
        fn_host = self.fn_host_self_ns
        fn_calls = self.fn_calls
        hooks = self.hooks
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            clock = tracer.clock
            index = -1
            if tracer.keep_spans:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0, 0.0, index]
            parent = stack[-1] if stack else None
            stack.append(frame)
            s0 = clock._now
            h0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                h1 = perf_counter_ns()
                s1 = clock._now
                stack.pop()
                dh = h1 - h0
                ds = s1 - s0
                # ``tracer.sim_self_s`` may have been swapped by the
                # parallel/race wrappers, so re-read it.
                sim = tracer.sim_self_s
                host_self[layer] = host_self.get(layer, 0) + dh - frame[0]
                sim[layer] = sim.get(layer, 0.0) + ds - frame[1]
                calls[layer] = calls.get(layer, 0) + 1
                fn_host[name] = fn_host.get(name, 0) + dh - frame[0]
                fn_calls[name] = fn_calls.get(name, 0) + 1
                if parent is not None:
                    parent[0] += dh
                    parent[1] += ds
                if index >= 0:
                    tracer.spans[index] = (
                        name, layer, parent[2] if parent is not None else -1,
                        tracer.op_id, h0, h1, s0, s1)
            hook = hooks.get(name)
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_generator(self, fn: Callable[..., Any], layer: str,
                        name: str) -> Callable[..., Any]:
        """A generator's work happens inside its consumer's ``next()``
        calls: time each resume and charge it to ``layer`` (one call per
        generator, no per-item span)."""
        tracer = self
        stack = self._stack

        def drive(it: Any) -> Any:
            tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            tracer.fn_calls[name] = tracer.fn_calls.get(name, 0) + 1
            while True:
                clock = tracer.clock
                frame = [0, 0.0, -1]
                parent = stack[-1] if stack else None
                stack.append(frame)
                s0 = clock._now
                h0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dh = perf_counter_ns() - h0
                    ds = clock._now - s0
                    stack.pop()
                    sim = tracer.sim_self_s
                    tracer.host_self_ns[layer] = (
                        tracer.host_self_ns.get(layer, 0) + dh - frame[0])
                    sim[layer] = sim.get(layer, 0.0) + ds - frame[1]
                    tracer.fn_host_self_ns[name] = (
                        tracer.fn_host_self_ns.get(name, 0) + dh - frame[0])
                    if parent is not None:
                        parent[0] += dh
                        parent[1] += ds
                yield item

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            return drive(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _overlap_scope(self):
        """Bookkeeping for one ``parallel``/``race`` call: run each leg
        against a private copy of the simulated totals, then keep only
        the critical leg's contribution."""
        tracer = self
        parent = self._stack[-1] if self._stack else None
        base_sim = self.sim_self_s
        base_cover = parent[1] if parent is not None else 0.0
        legs: List[Tuple[Dict[str, float], float]] = []

        def leg(thunk: Callable[[], Any]) -> Callable[[], Any]:
            def run() -> Any:
                tracer.sim_self_s = {}
                if parent is not None:
                    parent[1] = 0.0
                try:
                    return thunk()
                finally:
                    legs.append((tracer.sim_self_s,
                                 parent[1] if parent is not None else 0.0))
                    tracer.sim_self_s = base_sim
                    if parent is not None:
                        parent[1] = base_cover
            return run

        def keep(index: int) -> None:
            if not 0 <= index < len(legs):
                return
            delta, cover = legs[index]
            for layer, seconds in delta.items():
                base_sim[layer] = base_sim.get(layer, 0.0) + seconds
            if parent is not None:
                parent[1] += cover

        return leg, keep

    def _wrap_parallel(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def parallel(clock: Any, thunks: Any) -> list:
            if not tracer.active:
                return fn(clock, thunks)
            leg, keep = tracer._overlap_scope()
            durations: List[float] = []

            def timed(thunk: Callable[[], Any]) -> Callable[[], Any]:
                run = leg(thunk)

                def go() -> Any:
                    t0 = clock._now
                    try:
                        return run()
                    finally:
                        durations.append(clock._now - t0)
                return go

            results = fn(clock, [timed(t) for t in thunks])
            if durations:
                keep(durations.index(max(durations)))
            return results

        return parallel

    def _wrap_race(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def race(clock: Any, primary: Any, secondary: Any,
                 secondary_delay_s: float) -> Any:
            if not tracer.active:
                return fn(clock, primary, secondary, secondary_delay_s)
            leg, keep = tracer._overlap_scope()
            outcome = fn(clock, leg(primary), leg(secondary),
                         secondary_delay_s)
            winner = 1 if (outcome.launched
                           and outcome.secondary_end < outcome.primary_end) \
                else 0
            keep(winner)
            return outcome

        return race

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target binding.  Call before building a deployment."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        for layer, module_name, cls_name, names in TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                for fn_name in names:
                    original = cls.__dict__[fn_name]
                    self._patch(cls, fn_name, self._wrap(
                        original, layer, f"{cls_name}.{fn_name}"))
                continue
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapped = self._wrap(original, layer, fn_name)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("repro"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        for layer, module_name, cls_name, fn_name in _CLASSMETHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[fn_name]
            self._patch(cls, fn_name, classmethod(self._wrap(
                original.__func__, layer, f"{cls_name}.{fn_name}")))
        from repro.sim.clock import SimClock
        self._patch(SimClock, "parallel",
                    self._wrap_parallel(SimClock.__dict__["parallel"]))
        self._patch(SimClock, "race",
                    self._wrap_race(SimClock.__dict__["race"]))

    def wrap_endpoint(self, endpoint: Any, layer: str) -> None:
        """Wrap every handler registered on one ``RpcEndpoint`` (the
        Master's handlers are only reachable through its endpoint)."""
        handlers = endpoint._handlers
        for method, handler in list(handlers.items()):
            self._handler_patches.append((handlers, method, handler))
            handlers[method] = self._wrap(handler, layer,
                                          f"{endpoint.name}.{method}")

    def unwrap_endpoints(self) -> None:
        """Restore every handler :meth:`wrap_endpoint` replaced."""
        for handlers, method, original in reversed(self._handler_patches):
            handlers[method] = original
        self._handler_patches.clear()

    def uninstall(self) -> None:
        """Restore every patched binding."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.unwrap_endpoints()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- recording ------------------------------------------------------------

    def start(self, clock: Any) -> None:
        """Begin recording against ``clock``."""
        self.clock = clock
        self._stack.clear()
        self.active = True

    def stop(self) -> None:
        self.active = False

    def host_self_s(self, layer: str) -> float:
        return self.host_self_ns.get(layer, 0) / 1e9

    def fn_host_self_s(self, name: str) -> float:
        return self.fn_host_self_ns.get(name, 0) / 1e9

    def write_spans(self, path: str) -> None:
        """Dump the kept spans (written once, at the end of the run)."""
        fields = ["name", "layer", "parent", "op", "host_start_ns",
                  "host_end_ns", "sim_start_s", "sim_end_s"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields,
                       "spans": [s for s in self.spans if s is not None]},
                      fh)
