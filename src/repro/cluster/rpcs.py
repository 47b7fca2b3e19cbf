"""The RPC table: every RPC a Propeller server serves, and how each call
is admitted.

Both servers register from it (:func:`serve`), so an RPC with no row
cannot be served, and a row's whole-call stamp is checked before its
handler runs.  Each row names the stamps the call carries, what a stale
stamp earns, and how stale an answer it allows against the acknowledged
writes — *consistent* (reflects every one), *bounded* (trails by a
stated watermark), *eventual* (no bound).

Whole-call stamps, checked by :func:`serve` before dispatch:

* ``term`` — the master term (:meth:`IndexNode._fence_term`), carried
  as the ``term`` keyword; term 0 is unstamped.
* ``acting`` — the Master answering is the acting one
  (:meth:`MasterNode._require_acting`): a standby's state lags, and a
  deposed Master's is stale.

Per-partition and per-record stamps, checked in the handler's own step
so it still answers per batch, stream, partition or record:

* ``route`` — the client's route (:meth:`IndexNode._route_ok`): the
  partition is owned here and, when the request carries its routing
  epoch, no split since moved files out of it.
* ``repl`` — the replication generation (:meth:`IndexNode._fence_repl`).
* ``watermark`` — the commit watermark a requested skip was decided on
  (a summary's, or the stamp of an answer the client holds)
  (:meth:`IndexNode._skip_ok`).
* ``meta_term`` and ``meta_seq`` — a streamed meta-log record's term
  and its sequence number in the sender's log
  (:meth:`MasterNode.meta_apply`).

What a stale stamp earns is an error (raised, or that partition's
outcome) or an in-band answer: the partition is named ``not_owned``,
``searched`` instead of skipped, ``dropped`` or ``omitted`` from the
answer, or the call is ``ignored``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Union

from repro.errors import (NotActingMaster, StaleMasterTerm, StaleReplEpoch,
                          StaleRoute)
from repro.sim.rpc import RpcEndpoint


class Fence(NamedTuple):
    """One row of a server's RPC table."""

    stamps: Dict[str, Union[type, str]]  # stamp kind -> what a stale one earns
    staleness: str                       # how stale an answer the row allows
    handler: str = ""                    # the server's method; "" is handle_<rpc>


_TERM = {"term": StaleMasterTerm}
_CONTROL = "consistent: a deposed Master's command never applies"
INDEX_NODE: Dict[str, Fence] = {
    "index_update": Fence({"route": StaleRoute},
                          "consistent: parked where the file lives now"),
    "search": Fence({"route": "not_owned", "watermark": "searched"},
                    "consistent: pending updates commit first"),
    "explain": Fence({"route": "omitted"}, "consistent"),
    "locate_file": Fence({"route": "omitted"},
                         "consistent: pending updates count"),
    "flush_acg": Fence({"route": "dropped"}, "eventual: the ACG is advisory"),
    "search_replica": Fence({}, "bounded: below the caller's "
                                "read-your-writes sequence it is `lagging`"),
    "replicate_apply": Fence({"repl": StaleReplEpoch},
                             "bounded: a follower trails its primary's log"),
    "install_follower": Fence({"repl": StaleReplEpoch},
                              "bounded: a snapshot at the primary's ack"),
    "set_followers": Fence(dict(_TERM, repl="ignored"), _CONTROL),
    "heartbeat": Fence(_TERM, _CONTROL, "make_heartbeat"),
    **{rpc: Fence(_TERM, _CONTROL) for rpc in (
        "create_index", "compute_split", "extract_partition",
        "install_partition", "drop_partition", "adopt_acg",
        "own_partition", "transfer_out", "finish_migration",
        "cancel_transfer", "checkpoint_acg", "replica_watermark",
        "promote_replica", "drop_follower", "reset_follower_ack")},
}

_ACTING = {"acting": NotActingMaster}
MASTER: Dict[str, Fence] = {rpc: Fence(stamps, staleness, rpc)
                            for rpc, stamps, staleness in (
    ("create_index", _ACTING,
     "consistent: recorded before any Index Node hears it"),
    ("route_table", _ACTING,
     "consistent: the routing epoch of the acting Master's log"),
    ("allocate_partitions", _ACTING,
     "consistent: each grant is recorded before it is returned"),
    ("file_deleted", _ACTING, "eventual: knows only the files a split, "
                              "merge or delete recorded"),
    ("lookup_file", _ACTING, "eventual: names only the files a split, "
                             "merge or delete recorded"),
    ("summary_table", _ACTING, "bounded: each owner's last heartbeat; "
                               "a dirty summary prunes nothing"),
    ("master_lease", _ACTING,
     "consistent: the acting Master's log past the caller's watermark"),
    ("meta_apply", {"meta_term": StaleMasterTerm, "meta_seq": "ignored"},
     "bounded: a standby trails the acting Master's log"),
)}


def serve(endpoint: RpcEndpoint, server: Any, rows: Dict[str, Fence]) -> None:
    """Register each row's handler on ``endpoint`` behind the row's
    whole-call stamp."""
    for rpc, row in rows.items():
        endpoint.register(rpc, _admit(server, rpc, row))


def _admit(server: Any, rpc: str, row: Fence) -> Callable[..., Any]:
    handler = getattr(server, row.handler or f"handle_{rpc}")
    if "term" in row.stamps:
        def fenced(*args: Any, term: int = 0, **kwargs: Any) -> Any:
            server._fence_term(term, rpc)
            return handler(*args, **kwargs)
        return fenced
    if "acting" in row.stamps:
        def acting(*args: Any, **kwargs: Any) -> Any:
            server._require_acting()
            return handler(*args, **kwargs)
        return acting
    return handler
