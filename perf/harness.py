"""Deployment builders, op primitives, meters and the two load drivers.

Everything here drives a ``PropellerService`` from one process and one
thread through its public surfaces (VFS, client, ``advance``) and reads
the two clocks around each call: *host* CPU time via
``time.process_time_ns`` and *simulated* time via ``SimClock.now``.
"""

from __future__ import annotations

import functools
import gc
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.bruteforce import BruteForceSearcher
from repro.cluster import PropellerClient, PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.fs.vfs import OpenMode
from repro.indexstructures import IndexKind
from repro.obs.freshness import FreshnessTracker
from repro.workloads.datasets import populate_namespace

STANDARD_INDICES = (
    ("by_size", IndexKind.BTREE, ["size"]),
    ("by_mtime", IndexKind.BTREE, ["mtime"]),
    ("by_kw", IndexKind.HASH, ["keyword"]),
)

# One measured chunk of the window: host medians are taken over chunks.
CHUNK_NS = 400_000_000
# The application's processes: each lives for PROCESS_OPS write ops, then
# exits (which is when the client flushes its ACG) and the next pid of the
# pool starts.  The client watches only these pids — index-node
# checkpoints are written to the same VFS by pid 0 and must not be picked
# up as dirty user files.
APP_PIDS = tuple(range(7000, 7064))
PROCESS_OPS = 32
SYSTEM_PREFIX = "/.propeller/"


# -- statistics ----------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(values: Sequence[float]) -> float:
    """p99, or the highest percentile with ten samples beyond it when the
    sample is too small to support p99 (never below p90)."""
    n = len(values)
    p = 99.0 if n >= 1000 else max(90.0, 100.0 * (1.0 - 10.0 / max(n, 1)))
    return percentile(values, p)


def tail_mean(values: Sequence[float], share: float = 0.25) -> float:
    """Mean of the slowest ``share`` of a non-empty sample (at least one
    value).

    A tail *mean* rather than a percentile, for two reasons.  Update
    calls spike once per 128-update batch flush — rarer than 1 in 100 —
    so a p99 reads the no-flush cost and misses every fsync, while the
    mean of the slowest quarter is still dominated by those spikes.  And
    a single order statistic of a few hundred samples flips between modes
    from seed to seed, where the mean of the worst quarter does not.  A
    quarter rather than a tenth because ``cold-tier`` latencies are a
    discrete mixture (cache hit, one hydration, rarely two): the slowest
    tenth of a window's ~300 updates holds 30 samples, and whether 1 or
    5 of them are double hydrations moved it by 25 % between seeds.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(1, math.ceil(len(ordered) * share)):])


def iqr_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


# -- host yardstick ----------------------------------------------------------------

# This sandbox's speed drifts: identical work was measured up to 1.8x
# apart a quarter of an hour later.  So every run times a yardstick — a
# fixed pure-Python pointer chase through a working set larger than the
# caches — before its first chunk and after every chunk and set-up, and
# reports host times *calibrated*: multiplied by
# (CALIB_REF_S / the run's median yardstick timing) ** CALIB_EXPONENT,
# i.e. in CPU-seconds of a host on which the yardstick takes CALIB_REF_S.
# The exponent is empirical: in four independent slow spells the four
# workloads slowed by the *square* of what the yardstick did (it stays
# partly cache-resident; they do not), e.g. cold-tier 127 -> 231 raw
# ops/s while the yardstick went 41.2 -> 31.9 ms.  Squaring brought the
# medians of two consecutive ten-seed sets within 10 % of each other on
# every workload, where the plain ratio left them 41 % apart.
CALIB_REF_S = 0.030
CALIB_EXPONENT = 2.0
_CALIB_ITEMS = 250_000
_CALIB_STEPS = 40_000


@functools.lru_cache(maxsize=1)
def _calibration_data() -> Tuple[List[Tuple[int, int]], List[int]]:
    items = [(i, i ^ 0x5BD1E995) for i in range(_CALIB_ITEMS)]
    order = [(i * 2654435761 + 12345) % _CALIB_ITEMS
             for i in range(_CALIB_ITEMS)]
    return items, order


def calibration_loop() -> float:
    """CPU-seconds of a fixed pure-Python pointer chase."""
    items, order = _calibration_data()
    t0 = process_time_ns()
    acc = 0
    j = 1
    for _ in range(_CALIB_STEPS):
        j = order[j]
        a, b = items[j]
        acc += a ^ b
    return (process_time_ns() - t0) / 1e9 + acc * 0.0


def host_scale(yardsticks: Sequence[float]) -> float:
    """What one run's host times are multiplied by."""
    return (CALIB_REF_S / statistics.median(yardsticks)) ** CALIB_EXPONENT


# -- deployment ------------------------------------------------------------------

class SampledFreshness(FreshnessTracker):
    """The stock tracker, also keeping every close→visible sample."""

    def __init__(self, registry: Any) -> None:
        super().__init__(registry)
        self.samples: List[float] = []

    def visible(self, node: str, file_id: int, t: float) -> Optional[float]:
        staleness = super().visible(node, file_id, t)
        if staleness is not None:
            self.samples.append(staleness)
        return staleness


@dataclass
class Deployment:
    """One built service plus what the drivers need to address it."""

    service: PropellerService
    client: PropellerClient
    freshness: SampledFreshness
    paths: List[str] = field(default_factory=list)
    # partition id -> paths placed there (rewrite/search targeting)
    by_partition: Dict[int, List[str]] = field(default_factory=dict)
    churned: List[str] = field(default_factory=list)  # files churn created
    write_ops: int = 0  # write ops so far: decides when a process exits

    @property
    def clock(self) -> Any:
        return self.service.clock

    def app_pid(self) -> int:
        """The pid the next write op runs under; every ``PROCESS_OPS``-th
        call the current process exits first."""
        self.write_ops += 1
        generation, position = divmod(self.write_ops, PROCESS_OPS)
        if position == 0:
            self.client.process_finished(
                APP_PIDS[(generation - 1) % len(APP_PIDS)])
        return APP_PIDS[generation % len(APP_PIDS)]


def build_deployment(nodes: int, replication_factor: int = 1,
                     group_size: int = 1000, tracing: bool = False,
                     watch_all_pids: bool = False) -> Deployment:
    """An empty deployment with the standard three indices.  The client
    watches :data:`APP_PIDS` unless ``watch_all_pids`` (trace replay
    brings its own pids)."""
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=group_size * 50,
                                  cluster_target=group_size),
        replication_factor=replication_factor)
    if tracing:
        service.enable_tracing()
    freshness = SampledFreshness(service.registry)
    service.enable_freshness(freshness)
    client = service.make_client(
        pid_filter=None if watch_all_pids else set(APP_PIDS), batch_size=128)
    for name, kind, attrs in STANDARD_INDICES:
        client.create_index(name, kind, attrs)
    return Deployment(service, client, freshness)


def preload(dep: Deployment, files: int, seed: int) -> None:
    """Populate the namespace, index every file, commit and settle."""
    dep.paths = populate_namespace(dep.service.vfs, files, seed=seed)
    dep.client.index_paths(dep.paths, pid=1)
    dep.client.flush_updates()
    dep.service.commit_all()
    dep.service.sync_replication()
    # Let heartbeats carry summaries to the Master, then fetch them.
    dep.service.advance(6.0)
    routes = dep.client._file_routes
    stat = dep.service.vfs.stat
    dep.by_partition = {}
    for path in dep.paths:
        acg = routes.get(stat(path).ino)
        if acg is not None:
            dep.by_partition.setdefault(acg, []).append(path)
    dep.freshness.samples.clear()


def settle(dep: Deployment) -> None:
    """Collect set-up garbage once and park the survivors so cyclic GC
    inside the window only walks objects the window created."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def index_bytes_per_file(dep: Deployment) -> float:
    """(resident + frozen segment + WAL bytes) ÷ indexed files."""
    rows = dep.service.memory_tiers()
    total = sum(r["resident"] + r["frozen"] + r["wal"] for r in rows)
    return total / max(1, dep.service.total_indexed_files())


# -- meter -----------------------------------------------------------------------

OP_KINDS = ("search", "update")


class Meter:
    """Per-op samples on both clocks, cut into host-time chunks.

    ``record(kind, cpu_ns, sim_s)`` files one call: ``search`` and
    ``update`` count as ops; any other kind (reads that only feed the
    ACG, ``advance``, end-of-trace flushes) adds its time to the phase
    without adding an op.  All times are raw; the runner calibrates
    them with :func:`host_scale`.  A meter built with ``calibrate=False``
    keeps samples and totals only (warm-up).
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.sim: Dict[str, List[float]] = {k: [] for k in OP_KINDS}
        self.cpu_ns: Dict[str, int] = {}
        self.sim_s: Dict[str, float] = {}
        self.count: Dict[str, int] = {k: 0 for k in OP_KINDS}
        self.results = 0
        self.chunks: List[Dict[str, float]] = []
        # Yardstick timings: one before the first chunk, one after each.
        self.calib: List[float] = [calibration_loop()] if calibrate else []
        self._chunk = self._new_chunk()
        # Wall time the yardstick took inside the window (not the system's).
        self.yardstick_wall_s = 0.0
        # A LayerTracer, when one is recording: spans carry the op's id.
        self.tracer: Any = None
        self.op_seq = 0
        # False: chunks end only where the workload says (one repetition
        # of identical work per chunk), not every CHUNK_NS.
        self.auto_chunk = True

    def next_op(self) -> None:
        """Mark the start of one metered call."""
        self.op_seq += 1
        if self.tracer is not None:
            self.tracer.op_id = self.op_seq

    @staticmethod
    def _new_chunk() -> Dict[str, float]:
        return {"cpu_ns": 0, "ops": 0, "search_ns": 0, "search_ops": 0,
                "update_ns": 0, "update_ops": 0}

    def record(self, kind: str, cpu_ns: int, sim_s: float,
               latency_s: Optional[float] = None, ops: int = 1) -> None:
        self.cpu_ns[kind] = self.cpu_ns.get(kind, 0) + cpu_ns
        self.sim_s[kind] = self.sim_s.get(kind, 0.0) + sim_s
        chunk = self._chunk
        chunk["cpu_ns"] += cpu_ns
        if kind in self.count and ops:
            self.count[kind] += ops
            self.sim[kind].append(sim_s if latency_s is None else latency_s)
            chunk["ops"] += ops
            chunk[kind + "_ns"] += cpu_ns
            chunk[kind + "_ops"] += ops
        elif kind in self.count:
            chunk[kind + "_ns"] += cpu_ns
        if self.auto_chunk and chunk["cpu_ns"] >= CHUNK_NS:
            self.close_chunk()

    def close_chunk(self) -> None:
        """End the current chunk and time the yardstick beside it."""
        if self._chunk["ops"] and self.calib:
            began = perf_counter()
            self.calib.append(calibration_loop())
            self.yardstick_wall_s += perf_counter() - began
            self.chunks.append(self._chunk)
        self._chunk = self._new_chunk()

    @property
    def ops(self) -> int:
        return self.count["search"] + self.count["update"]

    def total_cpu_ns(self) -> int:
        return sum(self.cpu_ns.values())

    def total_cpu_s(self) -> float:
        return self.total_cpu_ns() / 1e9

    def total_sim_s(self) -> float:
        return sum(self.sim_s.values())

    def busy_sim_s(self) -> float:
        """Simulated seconds inside calls, idle ``advance`` gaps excluded
        (a closed-loop client's think time is not service time)."""
        return self.total_sim_s() - self.sim_s.get("advance", 0.0)

    def chunk_series(self, num: str, den: str, scale: float) -> List[float]:
        """Per-chunk ``scale * num / den`` for chunks where ``den`` > 0."""
        return [scale * c[num] / c[den] for c in self.chunks if c[den]]


def timed(meter: Meter, clock: Any, kind: str, fn: Callable[[], Any],
          due: Optional[float] = None, ops: int = 1) -> Any:
    """Run ``fn`` as one metered call; with ``due`` the simulated latency
    counts from the due time (open loop)."""
    meter.next_op()
    s0 = clock.now()
    c0 = process_time_ns()
    result = fn()
    c1 = process_time_ns()
    s1 = clock.now()
    meter.record(kind, c1 - c0, s1 - s0,
                 latency_s=None if due is None else s1 - due, ops=ops)
    return result


# -- op primitives ---------------------------------------------------------------

class OpFailure(Exception):
    """An op came back degraded/partial or raised."""


def do_search(dep: Deployment, query: str) -> List[str]:
    """One search through the client; degraded or partial answers fail."""
    answer = dep.client.search_detailed(query)
    if answer.degraded or answer.partial:
        raise OpFailure(f"degraded/partial answer for {query!r}")
    return answer.paths


def do_rewrite(dep: Deployment, path: str, saves: int = 1,
               write_through: bool = False) -> int:
    """Rewrite one file ``saves`` times (open/write/close each), then run
    the inline-indexing hook; ``write_through`` also sends the batch now.
    Returns the dirty files it queued."""
    vfs = dep.service.vfs
    pid = dep.app_pid()
    for _ in range(saves):
        fd = vfs.open(path, OpenMode.WRITE, pid=pid)
        vfs.write(fd, 2048)
        vfs.close(fd)
    queued = dep.client.index_dirty(pid=pid)
    if write_through:
        dep.client.flush_updates()
    return queued


def do_churn(dep: Deployment, rng: random.Random) -> None:
    """Namespace churn: create+index a new file, or rename, or unlink one
    this driver created earlier (so preloaded oracle targets survive)."""
    vfs = dep.service.vfs
    created = dep.churned
    pid = dep.app_pid()
    roll = rng.random()
    if roll < 0.5 or not created:
        path = f"/data/churn/c{dep.write_ops:07d}.tmp"
        vfs.mkdir("/data/churn", parents=True)
        vfs.write_file(path, 4096, pid=pid)
        dep.client.index_dirty(pid=pid)
        created.append(path)
    elif roll < 0.75:
        index = rng.randrange(len(created))
        new = f"/data/churn/r{dep.write_ops:07d}.tmp"
        vfs.rename(created[index], new, pid=pid)
        created[index] = new
    else:
        path = created.pop(rng.randrange(len(created)))
        vfs.unlink(path, pid=pid)


# -- open-loop driver ------------------------------------------------------------

@dataclass
class StepResult:
    """One fixed-rate step of the ladder."""

    rate: float
    ops: int
    search_p99_s: float
    update_p99_s: float
    lateness_first_s: float
    lateness_last_s: float
    passed: bool

    @property
    def lateness_growth_s(self) -> float:
        return self.lateness_last_s - self.lateness_first_s

    @property
    def slo_ratio(self) -> float:
        """Worst latency ÷ its limit: < 1 inside the SLO."""
        return max(self.search_p99_s / SEARCH_LIMIT_S,
                   self.update_p99_s / UPDATE_LIMIT_S)


# Below the knee p99 sits at 4-14 simulated ms (a commit or heartbeat
# landing in a step moves it that much); past it, above 80.  The limits
# sit between, so which side a step falls on never depends on luck.
SEARCH_LIMIT_S = 0.025
UPDATE_LIMIT_S = 0.025
BACKLOG_LIMIT_S = 0.025


def run_open_loop(dep: Deployment, meter: Meter, rate: float,
                  next_op: Callable[[], Tuple[str, Callable[[], Any]]],
                  rng: random.Random, stop: Callable[[int], bool]
                  ) -> StepResult:
    """Offer Poisson arrivals at ``rate`` ops per *simulated* second.

    When the clock is ahead of the schedule the driver ``advance``s to
    the due time (so timers fire); when behind, the op starts late and
    its latency still counts from the due time.  ``stop(n)`` ends the
    step after ``n`` ops.
    """
    service, clock = dep.service, dep.clock
    due = clock.now()
    lateness: List[float] = []
    first = {k: len(meter.sim[k]) for k in OP_KINDS}
    n = 0
    while not stop(n):
        due += rng.expovariate(rate)
        now = clock.now()
        if now < due:
            timed(meter, clock, "advance",
                  lambda: service.advance(due - now))
        lateness.append(max(0.0, clock.now() - due))
        kind, fn = next_op()
        timed(meter, clock, kind, fn, due=due)
        n += 1
    searches = meter.sim["search"][first["search"]:]
    updates = meter.sim["update"][first["update"]:]
    decile = max(1, n // 10)
    result = StepResult(
        rate=rate, ops=n,
        search_p99_s=tail_percentile(searches) if searches else 0.0,
        update_p99_s=tail_percentile(updates) if updates else 0.0,
        lateness_first_s=statistics.fmean(lateness[:decile]) if n else 0.0,
        lateness_last_s=statistics.fmean(lateness[-decile:]) if n else 0.0,
        passed=False)
    result.passed = (n > 0 and result.slo_ratio <= 1.0
                     and result.lateness_growth_s <= BACKLOG_LIMIT_S)
    return result


def knee_rate(steps: Sequence[StepResult]) -> Tuple[float, float]:
    """(highest passing ladder rate, interpolated knee).

    The knee is where the worst latency ÷ limit crosses 1, interpolated
    on log-rate between the last passing step and the first failing one;
    it equals the ladder rate when nothing fails above it.
    """
    best: Optional[StepResult] = None
    for step in steps:
        if not step.passed:
            break
        best = step
    if best is None:
        return 0.0, 0.0
    index = steps.index(best)
    if index + 1 >= len(steps):
        return best.rate, best.rate
    nxt = steps[index + 1]
    lo, hi = max(best.slo_ratio, 1e-9), max(nxt.slo_ratio, 1.0 + 1e-9)
    if lo >= 1.0:
        return best.rate, best.rate
    share = (0.0 - math.log(lo)) / (math.log(hi) - math.log(lo))
    return best.rate, best.rate * (nxt.rate / best.rate) ** share


# -- oracle ----------------------------------------------------------------------

def oracle_check(dep: Deployment, queries: Sequence[str]) -> int:
    """Re-issue ``queries`` and compare path sets with a brute-force scan
    of the same VFS.  Returns the number that disagree."""
    dep.service.commit_all()
    brute = BruteForceSearcher(dep.service.vfs)
    mismatches = 0
    for query in queries:
        # Index-node checkpoints live on the same VFS; they are the
        # system's own files, not part of the searchable namespace.
        expected = [p for p in brute.query(query)
                    if not p.startswith(SYSTEM_PREFIX)]
        if dep.client.search(query) != expected:
            mismatches += 1
    return mismatches


def frozen_vs_live_mismatches(dep: Deployment, queries: Sequence[str]) -> int:
    """Cold tier: every frozen partition's answer must equal an exact scan
    of the live replica it was frozen from.  Returns the disagreements."""
    from repro.query.ast import matches
    from repro.query.parser import parse_query

    now = dep.clock.now()
    mismatches = 0
    for query in queries:
        predicate = parse_query(query)
        for node in dep.service.index_nodes.values():
            for acg_id in sorted(node.frozen):
                store = node.replicas[acg_id].store
                live = {f for f in store.file_ids()
                        if matches(predicate, store.attrs(f),
                                   store.keywords(f), now)}
                frozen = node._search_one(acg_id, predicate, None).file_ids
                if set(frozen) != live:
                    mismatches += 1
    return mismatches
