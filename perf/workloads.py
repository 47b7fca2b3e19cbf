"""The four workloads.  Each says, in its docstring, which layers it
works and which it bypasses — that is why it exists.

A workload is built from ``--seed`` and nothing else: the namespace, the
query pool, Zipf draws, Poisson gaps and trace specs all flow from it.
``window`` measures either for a host-time budget (recording how many
ops each phase completed) or, given those counts back, for exactly that
many ops — which is how the traced pass repeats the untraced one.
"""

from __future__ import annotations

import gc
import random
from dataclasses import replace
from time import perf_counter, process_time_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.workloads.apps import (GIT_SPEC, LINUX_SPEC, THRIFT_SPEC,
                                  CompileApplication, scaled_spec)
from repro.workloads.replay import replay_trace
from repro.workloads.zipf import ZipfSampler

from perf.harness import (Deployment, Meter, OpFailure, StepResult,
                          build_deployment, calibration_loop,
                          do_churn, do_rewrite, do_search,
                          frozen_vs_live_mismatches, knee_rate, preload,
                          run_open_loop, timed)
from perf.layers import Observer

Limits = Optional[Sequence[int]]


class Workload:
    """Common shape: timed set-up, a measured window, oracle queries."""

    name = ""
    fresh_per_rep = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.rng = random.Random(seed)
        self.setup_cpu_s: List[float] = []
        self.setup_calib: List[float] = []  # yardstick after each set-up
        self.steps: List[StepResult] = []  # ladder steps (open loop only)
        self.failed = 0
        self.write_closes = 0
        self.dirty_drained = 0
        # Set by the runner: brackets each deployment's measured work
        # (counter snapshots; span recording in the traced pass).
        self.observer = Observer()
        self.tracing = False

    def scale(self, full: int, quick: int) -> int:
        return quick if self.quick else full

    def setup(self) -> Deployment:
        raise NotImplementedError

    def fresh_deployment(self) -> Deployment:
        """``setup`` with its CPU time filed under ``setup_s``."""
        t0 = process_time_ns()
        dep = self.setup()
        self.setup_cpu_s.append((process_time_ns() - t0) / 1e9)
        self.setup_calib.append(calibration_loop())
        return dep

    def samples(self, meter: Meter, dep: Deployment) -> Dict[str, List[float]]:
        """The simulated-clock samples this run's end-to-end figures are
        taken from: per-call ``search`` and ``update`` latencies and
        close→search-visible ``freshness``."""
        return {"search": meter.sim["search"], "update": meter.sim["update"],
                "freshness": dep.freshness.samples}

    def update_meter(self, meter: Meter) -> Meter:
        """The meter whose update calls carry the host update metrics."""
        return meter

    def throughput(self, meter: Meter) -> float:
        """``sim_ops_per_s``: closed loop, ops ÷ simulated seconds inside
        calls."""
        return meter.ops / meter.busy_sim_s()

    def extra_oracle(self, dep: Deployment, queries: Sequence[str]) -> int:
        """Workload-specific answer checks beyond the brute-force oracle;
        returns the number of disagreements."""
        return 0

    def window(self, dep: Optional[Deployment], meter: Meter, seconds: float,
               limits: Limits = None) -> List[int]:
        raise NotImplementedError

    def oracle_queries(self, dep: Deployment, count: int) -> List[str]:
        raise NotImplementedError

    # -- shared op helpers -------------------------------------------------

    def search(self, dep: Deployment, meter: Meter, query: str,
               expect: Optional[str] = None) -> None:
        """One metered search; ``expect`` is a path the answer must hold
        (read-your-writes).  A degraded, partial or wrong answer is a
        failed op."""
        try:
            paths = timed(meter, dep.clock, "search",
                          lambda: do_search(dep, query))
            meter.results += len(paths)
            if expect is not None and expect not in paths:
                self.failed += 1
        except OpFailure:
            self.failed += 1

    def rewrite(self, dep: Deployment, meter: Meter, path: str) -> None:
        saves = 2 if self.rng.random() < 0.25 else 1
        self.write_closes += saves
        self.dirty_drained += timed(
            meter, dep.clock, "update", lambda: do_rewrite(dep, path, saves))


def _budget(seconds: float, limit: Optional[int]) -> Callable[[int], bool]:
    """Stop rule for one phase: an op count when given, else host time."""
    if limit is not None:
        return lambda n: n >= limit
    deadline = perf_counter() + seconds
    return lambda n: perf_counter() >= deadline


# -- query pool ------------------------------------------------------------------

# Query type by pool rank, so each type's share of the Zipf traffic is the
# same for every seed: 8 selective, 5 keyword, 4 broad, 3 conjunction per 20.
_TYPE_PATTERN = "SKBSCSKSBKSCSBKSKBSC"
WARM_QUERIES = 100


def build_query_pool(dep: Deployment, rng: random.Random,
                     size: int) -> List[str]:
    """``size`` distinct queries over the preloaded namespace.

    * **S** selective range — an mtime window holding 0.5–2 % of the
      files; files were created in path order, so zone maps prune it to
      a few partitions.
    * **K** keyword lookup — one file-stem token (hash index + Bloom).
    * **B** broad range — ``size`` above the 80th–95th percentile:
      5–20 % of all files come back, so the merge dominates.
    * **C** conjunction — ``size & mtime & keyword`` over a directory
      token (posting intersection).
    """
    stat = dep.service.vfs.stat
    inodes = [stat(p) for p in dep.paths]
    sizes = sorted(i.size for i in inodes)
    mtimes = sorted(i.mtime for i in inodes)
    n = len(inodes)

    def stem(path: str) -> str:
        name = path.rsplit("/", 1)[1].rsplit(".", 1)[0]
        return name.replace("-", " ").split()[-1].lower()

    def make(kind: str) -> str:
        if kind == "S":
            width = max(1, int(n * rng.uniform(0.005, 0.02)))
            start = rng.randrange(0, n - width)
            return (f"mtime>={mtimes[start]:.9f} & "
                    f"mtime<{mtimes[start + width]:.9f}")
        if kind == "K":
            return f"keyword:{stem(rng.choice(dep.paths))}"
        if kind == "B":
            return f"size>{sizes[int(n * rng.uniform(0.80, 0.95))]}"
        directory = rng.choice(dep.paths).rsplit("/", 2)[1]
        return (f"size>{sizes[int(n * rng.uniform(0.3, 0.7))]} & "
                f"mtime>={mtimes[int(n * rng.uniform(0.1, 0.5))]:.9f} & "
                f"keyword:{directory}")

    pool: List[str] = []
    seen = set()
    while len(pool) < size:
        query = make(_TYPE_PATTERN[len(pool) % len(_TYPE_PATTERN)])
        if query not in seen:
            seen.add(query)
            pool.append(query)
    return pool


def oracle_sample(pool: Sequence[str], seed: int, count: int) -> List[str]:
    """``count`` pool queries, the same number of each type."""
    rng = random.Random(seed ^ 0xACE)
    by_type: Dict[str, List[str]] = {}
    for rank, query in enumerate(pool):
        by_type.setdefault(_TYPE_PATTERN[rank % len(_TYPE_PATTERN)],
                           []).append(query)
    sample: List[str] = []
    for kind in sorted(by_type):
        sample.extend(rng.sample(by_type[kind], count // len(by_type)))
    return sample


def warm_pool(wl: "Workload", dep: Deployment, pool: Sequence[str]) -> None:
    """Issue the head of the pool once (untimed) so the result caches
    hold what a long-running deployment's would."""
    warm = Meter(calibrate=False)
    for query in pool[:WARM_QUERIES]:
        wl.search(dep, warm, query)


# -- 1. ingest-apps --------------------------------------------------------------

class IngestApps(Workload):
    """Closed loop, one client, ≥95 % updates: seeded compile traces
    (thrift ×2 builds, git, a 3 % linux — a repetition is sized to about
    one CPU-second so a run holds a dozen) replayed through
    ``replay_trace`` into an empty 4-node RF=1 deployment, one
    read-your-writes probe search per 256 updates.

    *Works:* ``fs.interceptor``, ``core.acg``, the client batcher,
    ``cluster.wal``, ``cluster.cache`` and the bulk apply in
    ``indexstructures`` — the paper's inline-indexing path with real
    per-process open/close causality.  *Bypasses:* the query stack
    (the probes are < 1 % of ops), replication, tiering.
    """

    name = "ingest-apps"
    fresh_per_rep = True

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        specs = [replace(THRIFT_SPEC, rebuilds=2), GIT_SPEC,
                 scaled_spec(LINUX_SPEC, 0.03)]
        if quick:
            specs = [scaled_spec(replace(THRIFT_SPEC, rebuilds=1), 0.2),
                     scaled_spec(GIT_SPEC, 0.2)]
        self.specs = [replace(s, seed=seed * 31 + i)
                      for i, s in enumerate(specs)]
        self.traces: List[Tuple[CompileApplication, list]] = []
        self.last_dep: Optional[Deployment] = None
        self.first_rep: Dict[str, List[float]] = {}
        self.probe_every = self.scale(256, 64)
        self.rep_digest: Optional[tuple] = None

    def setup(self) -> Deployment:
        self.traces = []
        for spec in self.specs:
            app = CompileApplication(spec)
            self.traces.append((app, app.trace()))
        return build_deployment(nodes=4, tracing=self.tracing,
                                watch_all_pids=True)

    def _metered(self, dep: Deployment, meter: Meter, events: list,
                 path_of: Callable[[int], str]) -> Any:
        """Yield the trace to ``replay_trace``, timing what it does with
        each event; first touches and writes are index updates."""
        clock = dep.clock
        seen = set()
        updates = 0
        for event in events:
            is_update = event.write or event.file_id not in seen
            seen.add(event.file_id)
            meter.next_op()
            s0 = clock.now()
            c0 = process_time_ns()
            yield event
            c1 = process_time_ns()
            meter.record("update" if is_update else "read",
                         c1 - c0, clock.now() - s0)
            if not is_update:
                continue
            updates += 1
            if event.write:
                self.write_closes += 1
            if updates % self.probe_every == 0:
                # Read-your-writes: the file just indexed must be findable.
                path = path_of(event.file_id)
                token = path.rsplit("/", 1)[1].split(".")[0]
                self.search(dep, meter, f"keyword:{token}", expect=path)

    def _replay(self, dep: Deployment, meter: Meter) -> None:
        for index, (app, events) in enumerate(self.traces):
            root = f"/build{index}"

            def path_of(file_id: int, app: Any = app, root: str = root) -> str:
                return root + app.path_of(file_id)

            s0, c0 = dep.clock.now(), process_time_ns()
            before = meter.total_cpu_ns(), meter.total_sim_s()
            replay_trace(dep.service, dep.client,
                         self._metered(dep, meter, events, path_of), path_of)
            # What replay_trace did after the last event (final flush of
            # the update batch and of the ACG) is update-path time too.
            cpu = (process_time_ns() - c0) - (meter.total_cpu_ns() - before[0])
            sim = (dep.clock.now() - s0) - (meter.total_sim_s() - before[1])
            meter.record("update", max(0, cpu), max(0.0, sim), ops=0)

    def window(self, dep: Optional[Deployment], meter: Meter, seconds: float,
               limits: Limits = None) -> List[int]:
        reps = 0
        began = perf_counter()
        # One repetition is one chunk: a cut every CHUNK_NS would fall at a
        # different place in the traces each time, and the chunks' medians
        # would compare a thrift build with a kernel's.
        meter.auto_chunk = False
        while True:
            rep_began = perf_counter()
            # Every repetition starts from the same heap: the previous
            # deployment freed now, not by a collection inside the replay.
            dep = self.last_dep = None
            gc.collect()
            dep = self.fresh_deployment()
            first = {k: len(meter.sim[k]) for k in meter.sim}
            self.observer.begin(dep)
            self._replay(dep, meter)
            meter.close_chunk()
            self.observer.end(dep)
            # Every repetition replays the same traces into an empty
            # deployment: its simulated timeline must repeat bit for bit.
            digest = (dep.clock.now(),
                      *(tuple(meter.sim[k][first[k]:]) for k in sorted(first)))
            if self.rep_digest is None:
                self.rep_digest = digest
                self.first_rep = {
                    "search": meter.sim["search"][first["search"]:],
                    "update": meter.sim["update"][first["update"]:],
                    "freshness": list(dep.freshness.samples)}
            elif digest != self.rep_digest:
                self.failed += 1
            self.last_dep = dep
            reps += 1
            if limits is not None:
                if reps >= limits[0]:
                    break
            else:
                # Stop when half of another rep would overshoot.
                now = perf_counter()
                if (now - began) + (now - rep_began) / 2 >= seconds:
                    break
        return [reps]

    def samples(self, meter: Meter, dep: Deployment) -> Dict[str, List[float]]:
        # Repetitions are bit-identical, so one of them is the sample;
        # pooling however many fit the window would only add duplicates.
        return self.first_rep

    def oracle_queries(self, dep: Deployment, count: int) -> List[str]:
        rng = random.Random(self.seed ^ 0xACE)
        paths = [p for p, _ in dep.service.vfs.namespace.files("/")]
        queries = []
        for _ in range(count):
            token = rng.choice(paths).rsplit("/", 1)[1].split(".")[0]
            queries.append(f"keyword:{token}")
        return queries


# -- 2. search-fanout ------------------------------------------------------------

class SearchFanout(Workload):
    """Closed loop, read-only window, everything fits in RAM: 4 nodes,
    RF=1, 1000-file partitions, the standard three indices, committed and
    warmed.  Queries are drawn Zipf(1) from a seeded pool of distinct
    strings (40 % selective ranges, 25 % keyword lookups, 20 % broad
    ranges, 15 % conjunctions), so head queries hit each node's
    256-entry result cache and tail queries miss.

    *Works:* parser / planner / executor, B+tree range, postings,
    summary pruning, result cache, client fan-out and merge.
    *Bypasses:* WAL, index cache, interceptor, ACG — a write-path change
    must show no change in this workload's search and throughput
    metrics.  The update metrics here come from rounds of rewrites made
    *after* the read-only window has closed, on a meter of their own.
    """

    name = "search-fanout"
    POOL = 400
    # Post-window rewrites: one round is one chunk of the update meter,
    # so the host figure is a median over UPDATE_ROUNDS and one garbage
    # collection or pre-emption landing in a round cannot move it.
    UPDATE_ROUNDS = 16
    ROUND_FILES = 512

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.files = self.scale(16_000, 2_000)
        self.pool: List[str] = []
        self.zipf: Optional[ZipfSampler] = None
        # Update calls made after the window: the window itself is
        # read-only.
        self.updates = Meter()

    def setup(self) -> Deployment:
        dep = build_deployment(nodes=4, tracing=self.tracing)
        preload(dep, self.files, self.seed)
        self.rng = random.Random(self.seed)
        self.pool = build_query_pool(dep, self.rng, self.scale(self.POOL, 60))
        self.zipf = ZipfSampler(len(self.pool), seed=self.seed)
        warm_pool(self, dep, self.pool)
        return dep

    def window(self, dep: Optional[Deployment], meter: Meter, seconds: float,
               limits: Limits = None) -> List[int]:
        stop = _budget(seconds, limits[0] if limits else None)
        self.observer.begin(dep)
        n = 0
        while not stop(n):
            self.search(dep, meter, self.pool[self.zipf.sample()])
            n += 1
        meter.close_chunk()
        self.observer.end(dep)
        self._update_rounds(dep)
        return [n]

    def _update_rounds(self, dep: Deployment) -> None:
        """The same rewrites however many searches the window fitted:
        each round rewrites ``ROUND_FILES`` distinct files and sends the
        batch."""
        meter = self.updates
        rng = random.Random(self.seed ^ 0xB0057)
        # The layer metrics describe the window, which closed no file.
        closes = self.write_closes, self.dirty_drained
        for _ in range(self.scale(self.UPDATE_ROUNDS, 4)):
            for path in rng.sample(dep.paths, self.scale(self.ROUND_FILES, 32)):
                self.rewrite(dep, meter, path)
            timed(meter, dep.clock, "update", dep.client.flush_updates, ops=0)
            meter.close_chunk()
        self.write_closes, self.dirty_drained = closes
        # Idle past the 5 s commit timeout (checked every 2.5 s), which
        # makes the rewrites search-visible: that is their freshness.
        dep.service.advance(8.0)

    def samples(self, meter: Meter, dep: Deployment) -> Dict[str, List[float]]:
        return {"search": meter.sim["search"],
                "update": self.updates.sim["update"],
                "freshness": dep.freshness.samples}

    def update_meter(self, meter: Meter) -> Meter:
        return self.updates

    def oracle_queries(self, dep: Deployment, count: int) -> List[str]:
        return oracle_sample(self.pool, self.seed, count)


# -- 3. mixed-rw -----------------------------------------------------------------

class MixedRw(Workload):
    """**Open loop on the simulated clock**: 4 nodes, RF=2, preloaded;
    Poisson arrivals of 75 % rewrites (Zipf over partitions, so hot
    partitions always hold pending ops), 20 % searches from the
    ``search-fanout`` pool, 5 % create/rename/unlink churn, offered at a
    ladder of four fixed rates (×2 apart) on one deployment with a drain
    between steps.  Latency counts from each op's due time.

    *Works:* everything at once — commit-on-search, watermark-keyed
    result-cache invalidation, dirty summaries failing open, replication
    acks on the ack path, timers firing between arrivals.  It is the only
    workload with queueing, so a read-side win that taxes writes (or the
    reverse) shows here and nowhere else.
    """

    name = "mixed-rw"
    # Frozen ladder (simulated ops/s): the knee sits between steps 2 and 3.
    RATES = (1000.0, 2000.0, 4000.0, 8000.0)
    # Share of the window each step gets.  Latency and freshness are
    # quoted over the steps at or below the reference rate (the first
    # two), so those get most of the time.
    SHARES = (0.25, 0.35, 0.2, 0.2)
    REFERENCE_STEPS = 2
    DRAIN_S = 6.0

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.files = self.scale(12_000, 2_000)
        self.pool: List[str] = []
        self.step_samples: List[Dict[str, List[float]]] = []

    def setup(self) -> Deployment:
        dep = build_deployment(nodes=4, replication_factor=2, tracing=self.tracing)
        preload(dep, self.files, self.seed)
        self.rng = random.Random(self.seed)
        self.pool = build_query_pool(dep, self.rng, self.scale(400, 60))
        self.query_zipf = ZipfSampler(len(self.pool), seed=self.seed)
        self.partitions = sorted(dep.by_partition)
        self.rng.shuffle(self.partitions)
        self.part_zipf = ZipfSampler(len(self.partitions), seed=self.seed ^ 0x21F)
        warm_pool(self, dep, self.pool)
        return dep

    def next_op(self, dep: Deployment, meter: Meter
                ) -> Tuple[str, Callable[[], Any]]:
        """Draw the next op; returns (kind, thunk).  The thunk is metered
        by the driver, so it calls the raw primitives."""
        roll = self.rng.random()
        if roll < 0.20:
            query = self.pool[self.query_zipf.sample()]

            def search() -> None:
                try:
                    meter.results += len(do_search(dep, query))
                except OpFailure:
                    self.failed += 1
            return "search", search
        if roll < 0.25:
            return "update", lambda: do_churn(dep, self.rng)
        acg = self.partitions[self.part_zipf.sample()]
        path = self.rng.choice(dep.by_partition[acg])
        saves = 2 if self.rng.random() < 0.25 else 1
        self.write_closes += saves

        def rewrite() -> None:
            self.dirty_drained += do_rewrite(dep, path, saves)
        return "update", rewrite

    def window(self, dep: Optional[Deployment], meter: Meter, seconds: float,
               limits: Limits = None) -> List[int]:
        counts = []
        arrivals = random.Random(self.seed ^ 0xA221)
        self._drain(dep)
        self.observer.begin(dep)
        for index, rate in enumerate(self.RATES):
            stop = _budget(seconds * self.SHARES[index],
                           limits[index] if limits else None)
            fresh0 = len(dep.freshness.samples)
            first = {k: len(meter.sim[k]) for k in ("search", "update")}
            step = run_open_loop(dep, meter, rate,
                                 lambda: self.next_op(dep, meter),
                                 arrivals, stop)
            # One unmetered search ends the step, so the last few updates
            # become visible in-step rather than at the idle drain's
            # commit timeout, five simulated seconds later.
            closing = self.pool[0]
            timed(meter, dep.clock, "advance", lambda: do_search(dep, closing))
            timed(meter, dep.clock, "advance", lambda: self._drain(dep))
            meter.close_chunk()
            self.steps.append(step)
            self.step_samples.append({
                "search": meter.sim["search"][first["search"]:],
                "update": meter.sim["update"][first["update"]:],
                "freshness": dep.freshness.samples[fresh0:],
            })
            counts.append(step.ops)
        self.observer.end(dep)
        return counts

    def samples(self, meter: Meter, dep: Deployment) -> Dict[str, List[float]]:
        quoted = self.step_samples[:self.REFERENCE_STEPS]
        return {kind: [x for step in quoted for x in step[kind]]
                for kind in ("search", "update", "freshness")}

    def _drain(self, dep: Deployment) -> None:
        """Between steps: let the backlog empty and the commit, heartbeat
        and checkpoint timers fire, and stop one simulated second after a
        checkpoint.  A step lasts a few simulated seconds and the
        checkpoint period is 30, so no step ever contains one: whether a
        step meets its p99 limit must not depend on where in the
        checkpoint cycle the host's speed happened to start it.  (The
        checkpoints' cost still shows, in the drain's CPU time and in
        ``sim.events``.)"""
        service = dep.service
        checkpoint = next(task for task in service._tasks
                          if task.action == service._checkpoint_all)
        due = [t for t, _, action in service.loop._heap
               if getattr(action, "__self__", None) is checkpoint]
        target = max([dep.clock.now() + self.DRAIN_S] + [t + 1.0 for t in due])
        service.advance(target - dep.clock.now())

    def throughput(self, meter: Meter) -> float:
        """``sim_ops_per_s``: open loop, the interpolated SLO knee."""
        return knee_rate(self.steps)[1]

    def oracle_queries(self, dep: Deployment, count: int) -> List[str]:
        return oracle_sample(self.pool, self.seed, count)


# -- 4. cold-tier ----------------------------------------------------------------

class ColdTier(Workload):
    """Closed loop, 90 % searches / 10 % rewrites, **working set larger
    than the program's own cache**: 2 nodes, 100-file partitions, every
    partition frozen to the simulated object store, each node's segment
    cache budgeted at 25 % of its hydrated bytes, caches dropped.  A
    search looks up one directory of one namespace copy (two keyword
    tokens the Bloom summary pins to about one partition), the partition
    drawn Zipf(1); each write-through rewrite thaws a uniformly drawn
    partition and reads its own write back, and a periodic ``advance``
    lets the partition re-freeze.

    *Works:* ``cluster.segments`` (zlib + PSEG parse), ``SegmentCache``
    admission/LRU and ``sim.objectstore`` — untouched by the other
    three.  It is the "larger than cache" case beside ``search-fanout``'s
    "fits".
    """

    name = "cold-tier"
    FREEZE_AGE_S = 2.0
    REWRITE_SHARE = 0.10
    # Often, so few partitions are thawed (served live, fast) at once: with
    # an advance every 250 ops whether the hottest partition — a fifth of
    # all searches — happened to be thawed moved the mean search latency
    # by 18 % between seeds.
    ADVANCE_EVERY = 50
    ADVANCE_S = 5.0
    CACHE_SHARE = 0.25

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.files = self.scale(8_000, 2_000)
        self.group = self.scale(100, 25)
        self.targets: List[List[str]] = []

    def setup(self) -> Deployment:
        dep = build_deployment(nodes=2, group_size=self.group,
                               tracing=self.tracing)
        preload(dep, self.files, self.seed)
        service = dep.service
        service.set_tiering(True, freeze_age_s=self.FREEZE_AGE_S, min_bytes=1)
        service.advance(3 * self.ADVANCE_S)
        for node in service.index_nodes.values():
            hydrated = sum(f.hydrated_bytes for f in node.frozen.values())
            node.segment_cache.resize(max(1, int(hydrated * self.CACHE_SHARE)))
        service.drop_caches()
        for node in service.index_nodes.values():
            node.drop_caches()
        self.rng = random.Random(self.seed)
        # Popularity rank -> partition: shuffled per node, then the nodes
        # interleaved, so every seed splits the hot set evenly between the
        # two segment caches.
        per_node: Dict[str, List[int]] = {}
        for acg in sorted(dep.by_partition):
            per_node.setdefault(dep.client._route_nodes[acg], []).append(acg)
        for acgs in per_node.values():
            self.rng.shuffle(acgs)
        columns = [per_node[name] for name in sorted(per_node)]
        self.partitions = [acg for i in range(max(map(len, columns)))
                           for col in columns if i < len(col)
                           for acg in (col[i],)]
        self.part_zipf = ZipfSampler(len(self.partitions), seed=self.seed ^ 0x21F)
        # Per partition: the (copy, directory) token pairs found in that
        # partition only — or all of its pairs, if every one straddles.
        pairs = {acg: {tuple(p.split("/")[2:5:2]) for p in paths}
                 for acg, paths in dep.by_partition.items()}
        owners: Dict[Tuple[str, ...], int] = {}
        for found in pairs.values():
            for pair in found:
                owners[pair] = owners.get(pair, 0) + 1
        self.targets = []
        for acg in self.partitions:
            own = sorted(p for p in pairs[acg] if owners[p] == 1)
            self.targets.append([f"keyword:{c} & keyword:{d}"
                                 for c, d in own or sorted(pairs[acg])])
        # Let the segment caches reach their steady state before timing.
        self._ops(dep, Meter(calibrate=False),
                  _budget(0.0, self.scale(300, 60)))
        return dep

    def _ops(self, dep: Deployment, meter: Meter,
             stop: Callable[[int], bool]) -> int:
        n = 0
        while not stop(n):
            if self.rng.random() < self.REWRITE_SHARE:
                # Uniform over partitions, so most targets are frozen.
                acg = self.rng.choice(self.partitions)
                self._rewrite(dep, meter, self.rng.choice(dep.by_partition[acg]))
            else:
                rank = self.part_zipf.sample()
                self.search(dep, meter, self.rng.choice(self.targets[rank]))
            n += 1
            if n % self.ADVANCE_EVERY == 0:
                timed(meter, dep.clock, "advance",
                      lambda: dep.service.advance(self.ADVANCE_S))
        return n

    def _rewrite(self, dep: Deployment, meter: Meter, path: str) -> None:
        """One update op here is a write-through rewrite *and* the
        read-your-write lookup of the file's directory: the write thaws
        the partition and the lookup commits it, so together they are
        what making a cold file's change search-visible costs."""
        saves = 2 if self.rng.random() < 0.25 else 1
        self.write_closes += saves
        copy, directory = path.split("/")[2:5:2]

        def rewrite_and_read_back() -> int:
            queued = do_rewrite(dep, path, saves, write_through=True)
            if path not in do_search(
                    dep, f"keyword:{copy} & keyword:{directory}"):
                raise OpFailure(f"{path} not visible after its rewrite")
            return queued

        try:
            self.dirty_drained += timed(meter, dep.clock, "update",
                                        rewrite_and_read_back)
        except OpFailure:
            self.failed += 1

    def window(self, dep: Optional[Deployment], meter: Meter, seconds: float,
               limits: Limits = None) -> List[int]:
        self.observer.begin(dep)
        n = self._ops(dep, meter, _budget(seconds, limits[0] if limits else None))
        meter.close_chunk()
        self.observer.end(dep)
        return [n]

    def oracle_queries(self, dep: Deployment, count: int) -> List[str]:
        rng = random.Random(self.seed ^ 0xACE)
        return [rng.choice(rng.choice(self.targets)) for _ in range(count)]

    def extra_oracle(self, dep: Deployment, queries: Sequence[str]) -> int:
        return frozen_vs_live_mismatches(dep, queries[:8])


WORKLOADS = {cls.name: cls
             for cls in (IngestApps, SearchFanout, MixedRw, ColdTier)}
