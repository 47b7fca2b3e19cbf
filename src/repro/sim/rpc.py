"""Simulated synchronous RPC.

Propeller's client talks to the Master Node and Index Nodes over RPC.  The
simulation keeps calls synchronous (the paper's request path is
request/response) and charges: request message + handler work (whatever the
handler itself charges) + response message.

Fault tolerance lives at this layer too.  A :class:`RetryPolicy` gives
every call a timeout, exponential backoff with seeded jitter, and a total
virtual-time budget; an attached fault injector (``RpcNetwork.faults``,
see :mod:`repro.chaos.faults`) can drop, delay, or duplicate individual
messages, which is what the retry machinery exists to survive.  Without a
policy and without faults the request path is byte-for-byte the old
two-message exchange.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional

from repro.errors import ClusterError, NodeDown, RpcTimeout
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.sim.network import NetworkModel

Handler = Callable[..., Any]

# Rough serialized size of an RPC envelope plus a typical small payload.
DEFAULT_MSG_BYTES = 256

# What a caller waits before declaring a lost message timed out when no
# RetryPolicy overrides it (a generous same-switch request deadline).
DEFAULT_RPC_TIMEOUT_S = 0.25

# Errors the retry loop treats as transient.  Anything else (unknown
# method, handler bugs) fails immediately — retrying would not help.
_RETRIABLE = (NodeDown, RpcTimeout)


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + capped exponential backoff with jitter for one RPC.

    ``timeout_s`` is how long the caller waits for a reply before giving
    up on one attempt; backoff between attempts grows geometrically from
    ``base_backoff_s`` (capped at ``max_backoff_s``) with up to
    ``jitter_frac`` of itself added from the caller's seeded RNG.
    ``budget_s`` caps the *total* extra virtual time (timeouts plus
    backoff) one logical call may burn before the last error escapes —
    the tail-latency bound a real client would enforce.
    """

    max_attempts: int = 3
    timeout_s: float = DEFAULT_RPC_TIMEOUT_S
    base_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 1.0
    jitter_frac: float = 0.1
    budget_s: float = 5.0

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.max_backoff_s,
                   self.base_backoff_s * self.backoff_multiplier ** (attempt - 1))
        return base * (1.0 + self.jitter_frac * rng.random())


@dataclass
class CallOutcome:
    """One target's result in a :meth:`RpcNetwork.multicall` fan-out.

    Either ``value`` (when ``ok``) or ``error`` (the exception that leg
    hit) is meaningful — never both.  The degraded query executor and the
    heartbeat poller consume this instead of guessing which targets a
    half-failed fan-out actually reached.
    """

    ok: bool
    value: Any = None
    error: Optional[Exception] = None

    @classmethod
    def capture(cls, thunk: Callable[[], Any],
                errors=ClusterError) -> "CallOutcome":
        """Run ``thunk``; its value, or the ``errors`` instance it
        raised, as an outcome (anything else still propagates)."""
        try:
            return cls(ok=True, value=thunk())
        except errors as exc:
            return cls(ok=False, error=exc)

    def unwrap(self) -> Any:
        """The value, or raise the error — for a caller with nothing
        else to tell apart."""
        if not self.ok:
            raise self.error
        return self.value


@dataclass
class HedgedOutcome:
    """Result of :meth:`RpcNetwork.hedged_call`.

    ``primary`` always holds the primary leg's :class:`CallOutcome`;
    ``secondary`` is ``None`` unless the hedge launched (``hedged``).
    End times are absolute virtual timestamps — the caller advances to
    the loser's end only if it must consume the loser's answer.
    """

    primary: CallOutcome
    secondary: Optional[CallOutcome] = None
    primary_end: float = 0.0
    secondary_end: Optional[float] = None
    hedged: bool = False


def scatter(clock, targets: Iterable[str],
            call: Callable[[str], Any]) -> Dict[str, CallOutcome]:
    """Run ``call(target)`` for every target as logically concurrent work.

    The one fan-out shape of the request path: search legs, update
    envelopes, ACG fragments and replication streams all go out as one
    call per node with every node in flight at once, so the caller waits
    for the slowest leg (``SimClock.parallel``), a failed leg's timeout
    burn included.  Work inside one leg stays serial — only distinct
    targets overlap.  Targets run in sorted order (determinism).

    Every :class:`ClusterError` a leg raises comes back as that target's
    outcome instead of escaping: an exception leaving a ``parallel``
    thunk would strand the clock mid-rewind.  The caller decides, once
    all legs are in, which errors degrade and which to re-raise.
    """
    ordered = sorted(targets)
    return dict(zip(ordered, clock.parallel(
        [(lambda t=t: CallOutcome.capture(lambda: call(t)))
         for t in ordered])))


class RpcEndpoint:
    """A named set of RPC handlers living on one machine."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._handlers: Dict[str, Handler] = {}
        self.up = True

    def register(self, method: str, handler: Handler) -> None:
        """Bind a handler to a method name (once)."""
        if method in self._handlers:
            raise ClusterError(f"{self.name}: handler already registered: {method}")
        self._handlers[method] = handler

    def dispatch(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Run a handler directly (no network charge); raises if down."""
        if not self.up:
            raise NodeDown(f"{self.name} is down")
        try:
            handler = self._handlers[method]
        except KeyError:
            raise ClusterError(f"{self.name}: no handler for {method!r}") from None
        return handler(*args, **kwargs)

    def fail(self) -> None:
        """Mark the node failed; subsequent calls raise :class:`NodeDown`."""
        self.up = False

    def recover(self) -> None:
        """Bring a failed node back up."""
        self.up = True


class RpcNetwork:
    """Routes calls between endpoints over a :class:`NetworkModel`.

    ``local=True`` marks calls that never cross the wire (single-node mode,
    used for the MySQL and Spotlight comparisons).

    ``retry_policy`` (optional) makes every call survive transient faults:
    lost messages and down nodes are retried with backoff until the policy
    gives up.  ``faults`` (optional, duck-typed — see
    :class:`repro.chaos.FaultInjector`) decides per-message fates and
    per-node straggler delay.  Both default to off, keeping the
    fault-free request path identical to the historical one.
    ``registry`` receives ``cluster.rpc.*`` counters (a standalone
    network gets its own).
    """

    def __init__(self, network: NetworkModel,
                 retry_policy: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.network = network
        self._endpoints: Dict[str, RpcEndpoint] = {}
        # Observability: spans per call (zero simulated cost; NULL_TRACER
        # by default so uninstrumented deployments pay nothing).
        self.tracer = NULL_TRACER
        self.retry_policy = retry_policy
        self.rng = rng if rng is not None else random.Random(0)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.faults = None

    def add_endpoint(self, endpoint: RpcEndpoint) -> None:
        """Attach a node's endpoint to the network."""
        if endpoint.name in self._endpoints:
            raise ClusterError(f"duplicate endpoint: {endpoint.name}")
        self._endpoints[endpoint.name] = endpoint

    def endpoint(self, name: str) -> RpcEndpoint:
        """Look up an endpoint by name or raise :class:`ClusterError`."""
        try:
            return self._endpoints[name]
        except KeyError:
            raise ClusterError(f"unknown endpoint: {name}") from None

    def _count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).inc(n)

    def _timeout_s(self) -> float:
        if self.retry_policy is not None:
            return self.retry_policy.timeout_s
        return DEFAULT_RPC_TIMEOUT_S

    def _leg(self, nbytes: int, local: bool) -> None:
        """Charge one network leg."""
        if local:
            self.network.send_local(nbytes)
        else:
            self.network.send(nbytes)

    def _attempt(self, endpoint: RpcEndpoint, method: str, args, kwargs,
                 local: bool, request_bytes: int, response_bytes: int) -> Any:
        """One request/response exchange, subject to injected faults."""
        faults = self.faults
        if faults is not None:
            fate = faults.message_fate(endpoint.name, method)
            if fate == "drop":
                # The request (or its reply) never arrives: the caller
                # burns its full timeout waiting, then gives up.
                self.network.clock.charge(self._timeout_s())
                self._count("cluster.rpc.timeouts")
                raise RpcTimeout(
                    f"rpc {method!r} to {endpoint.name} timed out "
                    f"(message lost)")
            if fate == "delay":
                self.network.clock.charge(faults.delay_s)
            straggle = faults.extra_latency_s(endpoint.name)
            if straggle > 0.0:
                self.network.clock.charge(straggle)
            self._leg(request_bytes, local)
            result = endpoint.dispatch(method, *args, **kwargs)
            if fate == "duplicate":
                # At-least-once delivery: the handler runs again on the
                # duplicated request.  Handlers must be idempotent; the
                # chaos invariant checker verifies they are.
                self._count("cluster.rpc.duplicates")
                endpoint.dispatch(method, *args, **kwargs)
            self._leg(response_bytes, local)
            return result
        self._leg(request_bytes, local)
        result = endpoint.dispatch(method, *args, **kwargs)
        self._leg(response_bytes, local)
        return result

    def call(self, target: str, method: str, *args: Any,
             local: bool = False, request_bytes: int = DEFAULT_MSG_BYTES,
             response_bytes: int = DEFAULT_MSG_BYTES, **kwargs: Any) -> Any:
        """Synchronous RPC: charge request, run handler, charge response.

        With a :class:`RetryPolicy` attached, transient failures
        (:class:`NodeDown`, :class:`RpcTimeout`) are retried with backoff
        until attempts or the virtual-time budget run out; the last error
        then escapes.  Non-transient errors always escape immediately.
        """
        endpoint = self.endpoint(target)
        policy = self.retry_policy
        with self.tracer.span(f"rpc:{method}", target=target) as span:
            if policy is None:
                return self._attempt(endpoint, method, args, kwargs,
                                     local, request_bytes, response_bytes)
            spent = 0.0
            attempt = 1
            while True:
                try:
                    return self._attempt(endpoint, method, args, kwargs,
                                         local, request_bytes, response_bytes)
                except _RETRIABLE as exc:
                    if isinstance(exc, RpcTimeout):
                        spent += self._timeout_s()
                    if attempt >= policy.max_attempts or spent >= policy.budget_s:
                        self._count("cluster.rpc.failures")
                        span.set_attribute("attempts", attempt)
                        raise
                    backoff = policy.backoff_s(attempt, self.rng)
                    self.network.clock.charge(backoff)
                    spent += backoff
                    attempt += 1
                    self._count("cluster.rpc.retries")

    def hedged_call(self, primary: str, secondary: str, method: str,
                    hedge_delay_s: float, *args: Any,
                    secondary_method: str, secondary_args: tuple,
                    secondary_kwargs: dict,
                    **kwargs: Any) -> "HedgedOutcome":
        """One logical call raced against a replica after a hedge timer.

        The call goes to ``primary`` first; if it is still outstanding
        after ``hedge_delay_s`` of virtual time the replica's form of it
        (``secondary_method``/``secondary_args``/``secondary_kwargs``)
        is issued to ``secondary``.  The first answer wins and the loser
        is *cancelled* — its remaining work is not waited for, which is
        what collapses the leg's tail.  Both legs run under the normal
        retry policy; transient errors (:class:`NodeDown`,
        :class:`RpcTimeout`) surface as the leg's ``CallOutcome`` instead
        of escaping, so the caller can decide which answers are usable.
        ``cluster.client.hedges`` / ``hedge_wins`` / ``hedge_cancelled``
        count launches, secondary wins, and loser cancellations.
        """
        clock = self.network.clock

        def leg(target: str, m: str, a: tuple, kw: dict) -> CallOutcome:
            return CallOutcome.capture(
                lambda: self.call(target, m, *a, **kw), _RETRIABLE)

        race = clock.race(lambda: leg(primary, method, args, kwargs),
                          lambda: leg(secondary, secondary_method,
                                      secondary_args, secondary_kwargs),
                          hedge_delay_s)
        outcome = HedgedOutcome(
            primary=race.primary_result, secondary=race.secondary_result,
            primary_end=race.primary_end, secondary_end=race.secondary_end,
            hedged=race.launched)
        if race.launched:
            self._count("cluster.client.hedges")
            if race.secondary_end < race.primary_end:
                self._count("cluster.client.hedge_wins")
            self._count("cluster.client.hedge_cancelled")
        return outcome

    def multicall(self, targets: list, method: str, *args: Any,
                  request_bytes: int = DEFAULT_MSG_BYTES,
                  **kwargs: Any) -> Dict[str, CallOutcome]:
        """Parallel fan-out returning a per-target result/error map.

        All requests go out together (network legs overlap — one
        ``fanout`` charge each way) and every target is attempted even
        when earlier ones fail: a dead endpoint surfaces as that target's
        :class:`CallOutcome` with ``ok=False`` instead of masking which
        of the other targets succeeded.  Handler work is charged by the
        handlers themselves — the caller should measure and overlap it if
        it models parallel servers (see ``cluster.service``).
        """
        if not targets:
            return {}
        outcomes: Dict[str, CallOutcome] = {}
        with self.tracer.span(f"rpc_multicall:{method}", targets=len(targets)):
            self.network.fanout([request_bytes] * len(targets))
            for t in targets:
                with self.tracer.span(f"rpc:{method}", target=t) as span:
                    try:
                        value = self.endpoint(t).dispatch(method, *args, **kwargs)
                    except ClusterError as exc:
                        span.mark_error(f"{type(exc).__name__}: {exc}")
                        outcomes[t] = CallOutcome(ok=False, error=exc)
                    else:
                        outcomes[t] = CallOutcome(ok=True, value=value)
            self.network.fanout([DEFAULT_MSG_BYTES] * len(targets))
        return outcomes
