"""ShardedTransport: hash-ring routing + scatter/gather over N zones.

The router implements the standard :class:`~repro.net.transport.Transport`
interface over a set of named per-node transports, so the gateway (and
every tactic protocol above it) stays oblivious to the topology:

* **Key-routed operations** — document CRUD by ``_id``, and a keyed
  tactic's writes by the key argument they carry: ``doc_id``, else
  ``address``, else ``tag`` — go to the ring owner of that shard key
  (plus replicas when ``replication > 1``).  :data:`KEYED` is the one
  tactic-name set: every other tactic is pinned.
* **Scatter/gather operations** — keyed searches, range scans,
  ``count``, ``all_ids`` — broadcast to every node and the router merges
  by method and reply shape, never by tactic name: an ``eq_query`` or
  ``range_query`` reply is a union (sorted when it holds only ids), or
  first-non-None per slot when the request carries ``addresses``; an
  ``ordered_range`` is an order-merge of ``(key, doc_id)`` pairs; an
  ``aggregate``'s partials go back to the gateway tactic, which folds
  them under the public key it holds.  An ``integrity/<app>`` report
  comes back unmerged, keyed ``{"shard:<node>": result}``.
* **Co-located finds** — ``lookup_fetch`` broadcasts like an id lookup:
  each shard answers its DET/blind-index/OPE/ORE matches *and* the
  documents of its first chunk of them, since doc-keyed entries sit on
  their document's shard; ids union, documents dedupe by ``_id``.
* **Keyed scatters** — ``get_many``/``get_many_proven`` and a filtered
  ``aggregate`` carry many ``doc_ids``: the router slices them per ring
  owner and sends the slices together (:meth:`_keyed_scatter`), so a
  fetch or an aggregate spanning K shards costs one round trip, not K.
* **Pinned services** — every tactic not in :data:`KEYED`: BIEX
  two-level / ZMF (whose cross-anchor tag dedup needs all pairs on one
  node) and unknown tactics — live whole on
  ``replication`` ring-chosen nodes and move only via the generic
  namespace dump/load protocol during node removal.

Reads fail over along the replica chain on an open circuit breaker,
keyed scatters on any link failure of a slice's node
(reusing the PR 2 resilience machinery *below* the router: wrap each
per-node transport in a :class:`~repro.net.resilience.ResilientTransport`
to get per-shard breakers).  During an online reshard the router keeps
the previous ring as a *forwarding table*: reads that miss on the new
owner fall back to the previous owner, so a migration in flight never
makes a document or index entry unreachable.

**One path.**  The router is a batch transport: a lone call is a frame
of one, on every ring size, one node included.
:meth:`ShardedTransport._provision` sends a frame's provisioning slots
to every node first, as one sub-frame per node in slot order, and logs
them in that order for joining nodes to replay.
:meth:`ShardedTransport._route_writes` runs once per frame; each other
slot it leaves loose (reads, scatters) goes to the full router once,
and an error raised there keeps its type in that slot.
:meth:`ShardedTransport._shard_key` is the only place a write's shard
key is derived — for a single write and for each item of a document or
index ``insert_many``, which splits into one piece per owner chain —
:meth:`ShardedTransport._route_writes` groups the slots per owner chain
and :meth:`ShardedTransport._write_chains` sends every
(chain, member) leg of the call in one :meth:`ShardedTransport._overlap`
scatter — the primitive the reads use — so a write touching K shards
(or R replicas) costs one round trip, not K.  Per chain the best-placed
success is the answer, an open breaker on the primary fails over to the
replicas, any other primary error aborts the write (the resilience
layer above redelivers; the idempotency keys minted above the router
keep redeliveries at-most-once per host), and replica errors are
swallowed and counted — a write returns once every reachable replica
has answered.  Per-shard enqueue order is preserved: slots sharing an
owner chain travel in one frame in slot order, and while a migration's
forwarding table is active the loose slots (which include every
document write) run sequentially so forwarding-epoch writes stay
ordered per shard.

Membership changes bump ``topology_epoch``, which the cache tier's
coherence token carries; compiled plans do not depend on it.  Legs are
timed into the operation's sink (:mod:`repro.obs.timing`) as
``Shard:<node>``, once per node per scatter; the router keeps none.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from operator import methodcaller
from typing import Any, Callable, Iterable, Sequence

from repro.crypto.ore import OreCiphertext
from repro.errors import (
    CircuitOpenError,
    RemoteError,
    StoreError,
    TacticError,
    TransportError,
    UnsupportedOperation,
)
from repro.net.latency import NetworkStats, roll_up
from repro.net.rpc import (
    MUTATING_METHODS,
    PROVISIONING_METHODS,
    Request,
    Response,
)
from repro.net.transport import Transport, slot_response
from repro.obs.timing import record_timing
from repro.obs.wire import merged
from repro.shard.config import ShardConfig
from repro.shard.ring import HashRing
from repro.spi.context import service_name

#: Tactics whose entries are independent of one another: each write
#: routes by the key it carries.  Every other tactic is pinned — BIEX,
#: whose tag dedup and counting filter need one node, and any unknown
#: registration, the conservative default for third-party tactics.
KEYED = frozenset((
    "det rnd blind-index ope ore paillier elgamal sophos mitra "
    "sse-stateless"
).split())

#: Concurrent scatter legs **per node**: the leg pool holds
#: ``LEGS_PER_NODE x len(nodes)`` threads (spawned on demand, resized
#: when membership changes), so the gateway's admission bound — not this
#: pool — limits how many operations scatter at once.
LEGS_PER_NODE = 8

#: Thread-name prefix of the scatter pool.  Work that already runs *on*
#: a scatter worker degrades to its serial path instead of submitting
#: nested jobs, so a saturated pool can never deadlock on itself.
_SCATTER_THREAD_PREFIX = "shard-scatter"


def _on_scatter_thread() -> bool:
    return threading.current_thread().name.startswith(
        _SCATTER_THREAD_PREFIX
    )


def _tactic_of(service: str) -> str:
    return service.rsplit("/", 1)[-1]


def _freeze(value: Any) -> Any:
    """A hashable key for wire values (tuples arrive as lists)."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _freeze(item)) for key, item in value.items()
        ))
    return value


def _ride_slot(requests: Sequence[Request]) -> int | None:
    """The slot of the verifier's ``report`` riding a write frame."""
    if not any(r.method in MUTATING_METHODS for r in requests):
        return None
    return next((index for index, r in enumerate(requests)
                 if r.service.startswith("integrity/")
                 and r.method == "report"), None)


def _report_seq(report: Any) -> int:
    seq = report.get("seq") if isinstance(report, dict) else None
    return seq if isinstance(seq, int) else -1


#: A ride-along report that did not cover every leg: no ack.
_NO_RIDE = Response(ok=False, error_type="TransportError",
                    error_message="report slot did not ride every leg")


def _first_seen(results: Iterable[tuple[str, Any]]) -> list:
    """The per-shard lists of a gather, concatenated in node order with
    every repeat (a replica's copy) dropped."""
    merged: dict[Any, Any] = {}
    for _, part in results:
        for item in part or []:
            merged.setdefault(_freeze(item), item)
    return list(merged.values())


class ShardedTransport(Transport):
    """Routes one gateway onto N named per-node transports."""

    def __init__(self, nodes: Iterable[tuple[str, Transport]],
                 config: ShardConfig | None = None):
        self.config = config or ShardConfig()
        self._nodes: dict[str, Transport] = {}
        self._order: list[str] = []
        for name, transport in nodes:
            if name in self._nodes:
                raise TransportError(f"duplicate shard node {name!r}")
            self._nodes[name] = transport
            self._order.append(name)
        if not self._nodes:
            raise TransportError("sharded transport needs at least one node")
        self._ring = HashRing(self._order)
        #: Previous ring while a reshard is in flight (forwarding table).
        self._forward: HashRing | None = None
        self._epoch = 1
        self._lock = threading.RLock()
        self._pool: ThreadPoolExecutor | None = None
        self._failovers = 0
        self._replica_errors = 0
        self._scatters = 0
        #: Provisioning calls replayed onto every joining node.
        self._provision_log: list[Request] = []
        self._pins: dict[str, list[str]] = {}

    # -- topology --------------------------------------------------------------

    def topology_epoch(self) -> int:
        with self._lock:
            return self._epoch

    def node_names(self) -> list[str]:
        with self._lock:
            return list(self._order)

    def node_transport(self, name: str) -> Transport:
        return self._nodes[name]

    def ring_spec(self, self_node: str | None = None) -> dict[str, Any]:
        with self._lock:
            return self._ring.spec(self_node)

    def forwarding_active(self) -> bool:
        with self._lock:
            return self._forward is not None

    @property
    def applications(self) -> list[str]:
        """Provisioned applications, read off the provision log."""
        return list(dict.fromkeys(
            request.kwargs["application"]
            for request in self.provision_log
            if request.method == "provision_application"
            and request.kwargs.get("application")
        ))

    def tactic_services(self) -> dict[str, str]:
        """Provisioned tactic service name -> tactic name, read off the
        provision log."""
        return {
            service_name(request.kwargs.get("application"),
                         request.kwargs["field"],
                         request.kwargs["tactic"]): request.kwargs["tactic"]
            for request in self.provision_log
            if request.method == "provision_tactic"
        }

    @property
    def provision_log(self) -> list[Request]:
        with self._lock:
            return list(self._provision_log)

    def pins(self) -> dict[str, list[str]]:
        with self._lock:
            return {name: list(p) for name, p in self._pins.items()}

    def set_pins(self, service: str, nodes: Sequence[str]) -> None:
        with self._lock:
            self._pins[service] = list(nodes)

    def _topology(self) -> tuple[HashRing, HashRing | None, list[str]]:
        with self._lock:
            return self._ring, self._forward, list(self._order)

    def _replication(self) -> int:
        return max(1, min(self.config.replication, len(self._order)))

    def _may_fan_out(self) -> bool:
        """Whether this thread may put legs on the scatter pool."""
        return self.config.parallel_fanout and not _on_scatter_thread()

    # -- membership (driven by repro.shard.rebalance.Resharder) ----------------

    def begin_join(self, name: str, transport: Transport) -> None:
        """Admit a node: replay provisioning as one frame, then extend
        the ring.  The first failed slot's error raises before the node
        joins.

        The previous ring becomes the forwarding table until
        :meth:`finish_migration`, so reads stay correct while keys move.
        """
        for response in transport.call_batch(self.provision_log):
            response.unwrap()
        with self._lock:
            if name in self._nodes:
                raise TransportError(f"shard node {name!r} already joined")
            self._forward = HashRing.from_spec(self._ring.spec())
            self._nodes[name] = transport
            self._order.append(name)
            self._retire_pool()
            ring = HashRing.from_spec(self._ring.spec())
            ring.add(name)
            self._ring = ring
            self._epoch += 1

    def begin_leave(self, name: str) -> None:
        """Retire a node from the ring but keep its transport reachable
        (forwarded reads and migration still address it)."""
        with self._lock:
            if name not in self._nodes:
                raise TransportError(f"unknown shard node {name!r}")
            if len(self._order) == 1:
                raise TransportError("cannot remove the last shard node")
            self._forward = HashRing.from_spec(self._ring.spec())
            ring = HashRing.from_spec(self._ring.spec())
            ring.remove(name)
            self._ring = ring
            self._epoch += 1

    def finish_migration(self) -> None:
        with self._lock:
            self._forward = None
            self._epoch += 1

    def finish_leave(self, name: str) -> None:
        with self._lock:
            self._forward = None
            self._nodes.pop(name, None)
            if name in self._order:
                self._order.remove(name)
            self._retire_pool()
            self._epoch += 1

    # -- timing / stats --------------------------------------------------------

    @staticmethod
    def _record_parallel_timings(rows: Iterable[tuple[str, float]]) -> None:
        """Attribute one parallel fan-out's wall clock per node.

        Concurrent frames to the same node overlap in time, so summing
        their durations would double-count that node's share in the
        ``Shard:`` planner-report lines; the longest delivery is the
        node's wall-clock contribution for this scatter.
        """
        longest: dict[str, float] = {}
        for name, seconds in rows:
            if seconds > longest.get(name, -1.0):
                longest[name] = seconds
        for name, seconds in longest.items():
            record_timing(f"Shard:{name}", seconds)

    def stats(self) -> NetworkStats:
        return roll_up(self.labeled_stats())

    def labeled_stats(self) -> dict[str, NetworkStats]:
        labeled: dict[str, NetworkStats] = {}
        with self._lock:
            nodes = list(self._nodes.items())
            own = NetworkStats(failovers=self._failovers)
        for name, transport in nodes:
            labeled[f"shard:{name}"] = roll_up(transport.labeled_stats())
        labeled["router"] = own
        return labeled

    def wire_cells(self) -> dict[str, dict]:
        with self._lock:
            nodes = list(self._nodes.items())
        return {f"shard:{name}": merged(transport.wire_cells().values())
                for name, transport in nodes}

    def scatter_count(self) -> int:
        with self._lock:
            return self._scatters

    def failover_count(self) -> int:
        with self._lock:
            return self._failovers

    def replica_error_count(self) -> int:
        with self._lock:
            return self._replica_errors

    def close(self) -> None:
        with self._lock:
            self._retire_pool()
            nodes = list(self._nodes.values())
        for transport in nodes:
            transport.close()

    # -- low-level node calls --------------------------------------------------

    def _timed_call(self, name: str, request: Request) -> Any:
        node = self._nodes[name]
        started = time.perf_counter()
        try:
            return node.call_request(request)
        finally:
            record_timing(f"Shard:{name}", time.perf_counter() - started)

    def _scatter_pool(self) -> ThreadPoolExecutor:
        """The leg pool: :data:`LEGS_PER_NODE` legs per node, threads
        spawned on demand."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(2, LEGS_PER_NODE * len(self._nodes)),
                    thread_name_prefix=_SCATTER_THREAD_PREFIX,
                )
            return self._pool

    def _submit(self, job, *args: Any) -> Future:
        # Under the lock, so a submit never meets a pool that a
        # membership change is retiring.
        with self._lock:
            return self._scatter_pool().submit(job, *args)

    def _retire_pool(self) -> None:
        """Membership changed or the router closed (caller holds the
        lock): the next submit builds a pool of the current size; legs
        already queued still run."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def _overlap(self, one, items: Sequence) -> list:
        """``one(item)`` per item, results in item order: together on
        the scatter pool — the first on the calling thread, so an N-way
        scatter borrows N-1 workers — or one after another when fan-out
        is off or the caller is a scatter worker itself.  ``one`` must
        report failures in its return value, not raise them."""
        with self._lock:
            self._scatters += 1
        if len(items) < 2 or not self._may_fan_out():
            return [one(item) for item in items]
        futures = [self._submit(one, item) for item in items[1:]]
        return [one(items[0]), *(future.result() for future in futures)]

    def _leg(self, name: str, send: Callable[[Transport], Any]
             ) -> tuple[str, Any, float, Exception | None]:
        """One scatter leg, ``send(node)`` — a ``methodcaller`` of
        ``call_request`` for a read, of ``call_batch`` for a write
        frame: ``(node, result, seconds, link error)``."""
        started = time.perf_counter()
        try:
            result = send(self._nodes[name])
            return name, result, time.perf_counter() - started, None
        except TransportError as exc:
            return name, None, time.perf_counter() - started, exc

    # -- chain delivery ----------------------------------------------------------

    def _write_chains(
        self, groups: Sequence[tuple[tuple[str, ...], list[Request]]]
    ) -> tuple[list[Any], list[tuple]]:
        """Deliver each ``(owner chain, frame)`` group to every member
        of its chain — all legs of the call in one :meth:`_overlap`
        scatter — and return the groups' results in order, plus every
        leg's ``(node, result, seconds, error)`` row.

        Per chain the best-placed (lowest position) success is the
        result.  An open breaker on the primary fails over to the
        replicas and is counted; any other primary error aborts the
        write — the resilience layer above owns that redelivery —
        while replica errors are swallowed and counted.  Every leg has
        answered before the first failed chain's error re-raises, and
        each node's wall clock lands in the timing sink once.
        """
        legs = [(index, position, name)
                for index, (chain, _) in enumerate(groups)
                for position, name in enumerate(chain)]
        rows = self._overlap(
            lambda leg: self._leg(
                leg[2], methodcaller("call_batch", groups[leg[0]][1])),
            legs,
        )
        self._record_parallel_timings(
            (name, seconds) for name, _, seconds, _ in rows
        )
        unset = object()
        values: list[Any] = [unset] * len(groups)
        failed: dict[int, Exception] = {}
        aborted: dict[int, Exception] = {}
        failovers = replica_errors = 0
        for (index, position, _), (_, result, _, error) in zip(legs, rows):
            if error is None:
                if values[index] is unset:
                    values[index] = result
                continue
            failed[index] = error
            if position:
                replica_errors += 1
            elif isinstance(error, CircuitOpenError):
                failovers += 1
            else:
                aborted[index] = error
        if failed:
            with self._lock:
                self._failovers += failovers
                self._replica_errors += replica_errors
            for index in sorted(failed):
                if index in aborted or values[index] is unset:
                    raise aborted.get(index, failed[index])
        return values, rows

    def _broadcast(self, request: Request,
                   nodes: Sequence[str] | None = None,
                   skip_broken: bool | None = None,
                   ) -> list[tuple[str, Any]]:
        """Call every target node, returning ``(name, result)`` rows in
        node order.

        A :class:`RemoteError` (application failure) always propagates.
        Link failures propagate too unless ``skip_broken`` — the default
        when replication holds every datum on more than one node, where a
        broken shard's rows exist elsewhere in the gather.
        """
        targets = list(nodes) if nodes is not None else self.node_names()
        if skip_broken is None:
            skip_broken = self._replication() > 1

        send = methodcaller("call_request", request)
        rows = self._overlap(lambda name: self._leg(name, send), targets)
        gathered: list[tuple[str, Any]] = []
        last_error: Exception | None = None
        for name, result, seconds, error in rows:
            record_timing(f"Shard:{name}", seconds)
            if error is not None:
                if skip_broken and not isinstance(error, RemoteError):
                    with self._lock:
                        self._failovers += 1
                    last_error = error
                    continue
                raise error
            gathered.append((name, result))
        if not gathered and last_error is not None:
            raise last_error
        return gathered

    def _attempt_chain(self, names: Sequence[str], request: Request) -> Any:
        """Read along a replica chain: an open breaker moves to the next
        candidate; application errors propagate immediately."""
        last: Exception | None = None
        for name in names:
            try:
                return self._timed_call(name, request)
            except CircuitOpenError as exc:
                last = exc
                with self._lock:
                    self._failovers += 1
        assert last is not None
        raise last

    def _keyed_scatter(self, request: Request, doc_ids: Iterable[str],
                       missed=None, chain_of=None) -> list[Any]:
        """A multi-key read in one overlapped round trip per attempt.

        ``doc_ids`` are sliced by ``chain_of(doc_id)[attempt]`` — the
        nodes that may answer for a key, best first; the ring owners
        unless given — and the slices of ``request`` travel together
        (:meth:`_overlap`); their results come back in node order.  A
        slice that hits a link failure (a :class:`TransportError` that
        is no :class:`RemoteError`) moves to each key's next candidate
        and counts a failover, as do the keys ``missed(ids, result)``
        reports unanswered; a :class:`RemoteError` propagates, and so
        does any failure of the last attempt.
        """
        if chain_of is None:
            chain_of = functools.partial(self._topology()[0].owners,
                                         count=self._replication())
        chains = {doc_id: chain_of(doc_id) for doc_id in doc_ids}
        attempts = max(map(len, chains.values()), default=0)
        remaining = list(chains)
        parts: list[Any] = []
        for attempt in range(attempts):
            groups: dict[str, list[str]] = {}
            for doc_id in remaining:
                if attempt < len(chains[doc_id]):
                    groups.setdefault(chains[doc_id][attempt],
                                      []).append(doc_id)
            if not groups:
                break
            rows = self._overlap(
                lambda name: self._leg(name, methodcaller(
                    "call_request", Request(
                        request.service, request.method,
                        {**request.kwargs, "doc_ids": groups[name]},
                    ))),
                sorted(groups),
            )
            self._record_parallel_timings(
                (name, seconds) for name, _, seconds, _ in rows
            )
            remaining = []
            for name, result, _, error in rows:
                if error is None:
                    parts.append(result)
                    if missed is not None:
                        remaining.extend(missed(groups[name], result))
                elif (isinstance(error, RemoteError)
                        or attempt + 1 == attempts):
                    raise error
                else:
                    with self._lock:
                        self._failovers += 1
                    remaining.extend(groups[name])
        return parts

    def _routed_read(self, key: str | bytes, request: Request) -> Any:
        ring, _, _ = self._topology()
        owners = ring.owners(key, self._replication())
        if len(owners) == 1:
            return self._timed_call(owners[0], request)
        return self._attempt_chain(owners, request)

    def _prev_owner(self, key: str | bytes) -> str | None:
        """The forwarding-table owner, when it differs from the current
        owner and is still reachable."""
        ring, forward, _ = self._topology()
        if forward is None:
            return None
        prev = forward.owner(key)
        if prev == ring.owner(key) or prev not in self._nodes:
            return None
        return prev

    # -- Transport interface ---------------------------------------------------

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        provisions = [index for index, request in enumerate(requests)
                      if request.method in PROVISIONING_METHODS]
        # Provisioning runs first: the writes of the frame may land on
        # the services it stands up.
        answers = self._provision(requests, provisions) if provisions else {}
        responses, loose = self._route_writes(requests)
        # The other slots that need the full router run one at a time,
        # in slot order.  A gateway frame is some deferred writes plus at
        # most one final call, so it brings at most one loose read; the
        # full router already scatters that one across the shards.
        for index in loose:
            responses[index] = (
                answers[index] if index in answers
                else slot_response(self._dispatch, requests[index])
            )
        missing = [i for i, r in enumerate(responses) if r is None]
        if missing:
            raise TransportError(
                f"sharded batch lost responses for slots {missing}"
            )
        return responses

    def _dispatch(self, request: Request) -> Any:
        """The full router for one slot :meth:`_route_writes` left loose."""
        service = request.service
        if service == "admin":
            return self._admin(request)
        if service.startswith("docs/"):
            return self._docs(request)
        if service.startswith("tactic/"):
            return self._tactic(request)
        if service.startswith("integrity/"):
            # Per-shard state reports, keyed like :meth:`labeled_stats`
            # so the ledger's watermarks line up with the traffic rows.
            return {f"shard:{name}": result for name, result
                    in self._broadcast(request, skip_broken=False)}
        # Unknown service class: conservative broadcast, last result.
        return self._broadcast_last(request)

    def _route_writes(self, requests: Sequence[Request],
                      walking: bool = False
                      ) -> tuple[list[Response | None], list[int]]:
        """Deliver every chain-routed slot of ``requests`` — one
        sub-batch frame per owner chain — and return the responses so
        far plus the loose slots left for the full router.

        A write frame's ride-along ``report`` joins every leg, replicas
        included, and is answered ``{"shard:<node>": report}`` (a node
        with several legs keeps its newest), or :data:`_NO_RIDE` when a
        leg failed or a mutating slot is loose (mid-reshard)."""
        responses: list[Response | None] = [None] * len(requests)
        grouped, loose, splits = self._group_slots(requests, walking)
        ride = _ride_slot(requests)
        if ride is not None:
            loose.remove(ride)
            responses[ride] = _NO_RIDE
            if grouped and not any(requests[index].method
                                   in MUTATING_METHODS for index in loose):
                for _, subrequests in grouped.values():
                    subrequests.append(requests[ride])
            else:
                ride = None
        if not grouped and not splits:
            return responses, loose  # nothing to route: reads end here
        assign, finish_splits = self._split_merger(responses, splits)
        if grouped:
            # Every per-chain sub-batch travels together: a write frame
            # touching K shards costs one round trip.
            answers, rows = self._write_chains(
                [(chain, subrequests)
                 for chain, (_, subrequests) in grouped.items()]
            )
            for (tags, _), answered in zip(grouped.values(), answers):
                for tag, response in zip(tags, answered):
                    assign(tag, response)
            if ride is not None:
                responses[ride] = self._ride_answer(rows)
        finish_splits()
        return responses, loose

    @staticmethod
    def _ride_answer(rows: Sequence[tuple]) -> Response:
        """The ride-along report slot's answer from the legs' rows."""
        labeled: dict[str, Any] = {}
        for name, result, _, error in rows:
            reply = result[-1] if error is None and result else None
            if reply is None or not reply.ok:
                return _NO_RIDE
            label = f"shard:{name}"
            if label not in labeled or (_report_seq(reply.result)
                                        > _report_seq(labeled[label])):
                labeled[label] = reply.result
        return Response(ok=True, result=labeled)

    def _group_slots(
        self, requests: Sequence[Request], walking: bool = False
    ) -> tuple[dict[tuple[str, ...], tuple[list, list[Request]]],
               list[int], dict[int, int]]:
        """Split a batch frame into per-owner-chain sub-batches.

        Returns ``(grouped, loose, splits)``: ``grouped`` maps each
        owner chain to its ``(tags, subrequests)`` in slot order, where a
        tag is either a plain slot index or, for a bulk-insert piece,
        ``(slot, positions)`` mapping the piece's returned ids back into
        the original document order; ``loose`` lists the slots that need
        the full router — reads, scatters, provisioning, and every
        document slot while a forwarding table is up unless the caller
        is the mid-migration walk itself (``walking``); ``splits``
        records each split slot's item count.
        """
        grouped: dict[tuple[str, ...], tuple[list, list[Request]]] = {}
        loose: list[int] = []
        splits: dict[int, int] = {}
        ring, forward, _ = self._topology()
        hold_docs = forward is not None and not walking
        replication = self._replication()
        chains: dict[Any, tuple[str, ...]] = {}

        def chain_of(key: Any) -> tuple[str, ...]:
            # Once per key per frame: a bulk write's ids recur in the
            # slot of every tactic service.
            chain = chains.get(key)
            if chain is None:
                chain = chains[key] = tuple(ring.owners(key, replication))
            return chain

        for index, request in enumerate(requests):
            if hold_docs and request.service.startswith("docs/"):
                loose.append(index)
                continue
            split = self._split_insert_many(request, chain_of)
            if split is not None:
                # An ``insert_many`` slot rides the same scatter as the
                # writes it travels with: one piece per owner chain, in
                # slot order, instead of a sequential loose round trip.
                total, pieces = split
                splits[index] = total
                for chain, (positions, sub) in pieces.items():
                    tags, subrequests = grouped.setdefault(
                        chain, ([], [])
                    )
                    tags.append((index, tuple(positions)))
                    subrequests.append(sub)
                continue
            chain = self._chain_route(request, chain_of)
            if chain is None:
                loose.append(index)
            else:
                tags, subrequests = grouped.setdefault(chain, ([], []))
                tags.append(index)
                subrequests.append(request)
        return grouped, loose, splits

    @staticmethod
    def _split_merger(responses: list[Response | None],
                      splits: dict[int, int]):
        """Build the tag-assignment closure pair for one batch dispatch.

        ``assign(tag, response)`` lands a sub-response either directly in
        its slot or into the id-merge buffer of a split ``insert_many``;
        ``finish()`` folds the merge buffers into their final slot
        responses (first error wins per slot).
        """
        merged_ids = {index: [None] * total
                      for index, total in splits.items()}
        merged_error: dict[int, Response] = {}

        def assign(tag, response: Response) -> None:
            if isinstance(tag, tuple):
                slot, positions = tag
                if not response.ok:
                    merged_error.setdefault(slot, response)
                    return
                for position, doc_id in zip(positions,
                                            response.result or []):
                    merged_ids[slot][position] = doc_id
            else:
                responses[tag] = response

        def finish() -> None:
            for slot, ids in merged_ids.items():
                error = merged_error.get(slot)
                responses[slot] = (
                    error if error is not None else Response(
                        ok=True,
                        result=[doc_id for doc_id in ids
                                if doc_id is not None],
                    )
                )

        return assign, finish

    def _chain_route(self, request: Request,
                     chain_of) -> tuple[str, ...] | None:
        """The owner chain of a write that is a pure chain delivery —
        ``chain_of`` maps a shard key to its ring owners; ``None`` sends
        the request through the full router (reads, scatters, ``setup``,
        a write without its shard key)."""
        service, method = request.service, request.method
        if (service.startswith("tactic/") and method in MUTATING_METHODS
                and _tactic_of(service) not in KEYED):
            return tuple(self._pin_nodes(service))
        key = self._shard_key(service, method, request.kwargs)
        return None if key is None else chain_of(key)

    def _shard_key(self, service: str, method: str,
                   kwargs: dict[str, Any]) -> Any:
        """The shard key of one write — the one place it is derived,
        for a single write and for each item of an ``insert_many`` —
        or ``None`` when it has none."""
        if service.startswith("docs/"):
            if method in ("insert", "replace"):
                return (kwargs.get("document") or {}).get("_id") or None
            if method == "delete":
                return kwargs.get("doc_id") or None
        elif service.startswith("tactic/") and method in MUTATING_METHODS:
            if "doc_id" in kwargs:
                return kwargs["doc_id"]
            for field in ("address", "tag"):
                if field in kwargs:
                    return self._address_key(kwargs[field])
        return None

    def _split_insert_many(
        self, request: Request, chain_of
    ) -> tuple[int, dict[tuple[str, ...],
                         tuple[list[int], Request]]] | None:
        """Per-chain pieces of an ``insert_many`` — a document batch or a
        keyed tactic's index entries — or ``None`` for any other request
        and for an item without its shard key.

        Each item routes as the single ``insert`` it stands for.  Each
        piece carries the positions its items occupy in the original
        batch, so the per-chain id lists can be merged back into one
        response in document order.  The derived idempotency key is
        deterministic across retries of the same logical insert_many,
        so the per-host dedup window still applies at-most-once per
        piece (and per chain member — two chains sharing a replica must
        not collide).
        """
        service = request.service
        docs = service.startswith("docs/")
        if request.method != "insert_many" or not (
                docs or (service.startswith("tactic/")
                         and _tactic_of(service) in KEYED)):
            return None
        field = "documents" if docs else "entries"
        items = list(request.kwargs.get(field) or [])
        groups: dict[tuple[str, ...], tuple[list[int], list[Any]]] = {}
        for position, item in enumerate(items):
            single = {"document": item} if docs else item
            key = (self._shard_key(service, "insert", single)
                   if isinstance(item, dict) else None)
            if key is None:
                return None
            positions, members = groups.setdefault(chain_of(key), ([], []))
            positions.append(position)
            members.append(item)
        pieces: dict[tuple[str, ...], tuple[list[int], Request]] = {}
        for chain in sorted(groups):
            positions, members = groups[chain]
            idem = (f"{request.idem}.{'+'.join(chain)}"
                    if request.idem else "")
            pieces[chain] = (positions, Request(
                service, "insert_many",
                {**request.kwargs, field: members}, idem=idem,
            ))
        return len(items), pieces

    # -- provisioning and admin ------------------------------------------------

    def _provision(self, requests: Sequence[Request],
                   slots: list[int]) -> dict[int, Response]:
        """Run a frame's provisioning slots on every node as one
        sub-frame per node, in slot order, and answer each slot with the
        first node's error or else the last node's result.

        Each call is logged before it leaves, so a joining node replays
        the same calls in the same order; ``enable_integrity`` is among
        them, since a joining node must build its trees and register its
        integrity service before migrated entries start landing on it.
        """
        frame = [requests[index] for index in slots]
        with self._lock:
            self._provision_log.extend(
                Request(request.service, request.method,
                        dict(request.kwargs))
                for request in frame
            )
        send = methodcaller("call_batch", frame)
        rows = self._overlap(lambda name: self._leg(name, send),
                             self.node_names())
        answers: dict[int, Response] = {}
        for name, replies, seconds, error in rows:
            record_timing(f"Shard:{name}", seconds)
            if error is not None:
                raise error
            for index, reply in zip(slots, replies):
                if index not in answers or answers[index].ok:
                    answers[index] = reply
        return answers

    def _admin(self, request: Request) -> Any:
        if request.method == "list_services":
            names: set[str] = set()
            for _, result in self._broadcast(request, skip_broken=False):
                names.update(result or [])
            return sorted(names)
        results = self._broadcast(request, skip_broken=False)
        return results[-1][1]

    def _broadcast_last(self, request: Request) -> Any:
        results = self._broadcast(request, skip_broken=False)
        for _, result in reversed(results):
            if result is not None:
                return result
        return results[-1][1]

    # -- document store --------------------------------------------------------

    def _docs(self, request: Request) -> Any:
        method, kwargs = request.method, request.kwargs
        if method in ("insert", "insert_many"):
            return self._write(request)
        if method in ("get_many", "get_many_proven"):
            return self._docs_get_many(request)
        if method in ("lookup_fetch", "lookup_fetch_proven"):
            return self._docs_lookup_fetch(request)
        if method == "replace":
            return self._docs_replace(request)
        if method == "delete":
            return self._docs_delete(request)
        if method == "count":
            return self._docs_count(request)
        if method in ("all_ids", "find_plain"):
            merged = _first_seen(self._broadcast(request))
            limit = kwargs.get("limit")
            if method == "find_plain" and limit is not None:
                return merged[:limit]
            return merged
        if method == "find_text":
            return self._docs_find_text(request)
        return self._broadcast_last(request)

    def _write(self, request: Request) -> Any:
        """Chain-deliver one document write whatever the forwarding
        state: what :meth:`call_batch` held back for the mid-migration
        walk (or for want of an ``_id``)."""
        responses, loose = self._route_writes([request], walking=True)
        if loose:
            raise StoreError("document requires a non-empty string _id")
        return responses[0].unwrap()

    def _docs_replace(self, request: Request) -> Any:
        """A document replace that stays correct mid-migration.

        The current owner answers first; while a forwarding table is up,
        a ``DocumentNotFound`` there falls to the previous owner, and a
        miss *there* re-probes the current owner once: the resharder
        imports before it evicts, so a document that moved between the
        first two probes is on its new owner by the third, and new →
        old → new misses only what no node holds.
        """
        doc_id = (request.kwargs.get("document") or {}).get("_id")
        forwarding = self.forwarding_active()
        try:
            return self._write(request)
        except RemoteError as exc:
            if exc.remote_type != "DocumentNotFound" or not (
                forwarding or self.forwarding_active()
            ):
                raise
        prev = self._prev_owner(doc_id)
        if prev is not None:
            try:
                return self._timed_call(prev, request)
            except RemoteError as exc:
                if exc.remote_type != "DocumentNotFound":
                    raise
        return self._write(request)

    def _docs_delete(self, request: Request) -> bool:
        doc_id = request.kwargs["doc_id"]
        forwarding = self.forwarding_active()
        existed = bool(self._write(request))
        if not existed and (forwarding or self.forwarding_active()):
            # Same new → old → new walk as :meth:`_docs_replace`; a miss
            # is ``False`` here, not an error.
            prev = self._prev_owner(doc_id)
            if prev is not None:
                existed = bool(self._timed_call(prev, request))
            if not existed:
                existed = bool(self._write(request))
        return existed

    def _docs_get_many(self, request: Request) -> list[dict]:
        requested = list(request.kwargs.get("doc_ids") or [])
        found: dict[str, dict] = {}

        def missed(ids: list[str], stored: list[dict]) -> list[str]:
            found.update((item["_id"], item) for item in stored)
            return [doc_id for doc_id in ids if doc_id not in found]

        forwarding = self.forwarding_active()
        self._keyed_scatter(request, requested, missed)
        if forwarding or self.forwarding_active():
            # Mid-migration: what the new owners miss may still sit on
            # the previous owner — one more overlapped leg — and what
            # moved between those two legs is on its new owner by now
            # (import-before-evict), so they get the last word.
            missing = [i for i in requested if i not in found]
            prev = {i: self._prev_owner(i) for i in missing}
            self._keyed_scatter(
                request, [i for i in missing if prev[i] is not None],
                missed, lambda doc_id: [prev[doc_id]],
            )
            self._keyed_scatter(
                request, [i for i in missing if i not in found], missed,
            )
        return [found[i] for i in requested if i in found]

    def _docs_lookup_fetch(self, request: Request) -> dict:
        """A co-located find: every shard resolves the token on its own
        tactic half and answers with its ids and the documents of its
        first chunk of them.  The ids are the union; a document is kept
        on first sight (a replica's copy is dropped).  An id whose
        document no shard carried — its entry and document on different
        shards mid-reshard — is completed by the caller's ``get_many``,
        which walks the forwarding table."""
        ids: set[str] = set()
        docs: dict[str, Any] = {}
        for _, part in self._broadcast(request):
            ids.update(part["ids"])
            for document in part["docs"]:
                docs.setdefault(document["_id"], document)
        return {"ids": sorted(ids), "docs": list(docs.values())}

    def _docs_count(self, request: Request) -> int:
        if self._replication() == 1:
            return sum(
                part or 0 for _, part in self._broadcast(request)
            )
        # Replicated rows would double-count; gather ids and dedupe.
        query = request.kwargs.get("query")
        if query:
            sub = Request(request.service, "find_plain",
                          {"query": query})
        else:
            sub = Request(request.service, "all_ids", {})
        ids: set[str] = set()
        for _, part in self._broadcast(sub):
            ids.update(part or [])
        return len(ids)

    def _docs_find_text(self, request: Request) -> list[list]:
        limit = request.kwargs.get("limit", 10)
        best: dict[str, float] = {}
        for _, part in self._broadcast(request):
            for doc_id, score in part or []:
                if doc_id not in best or score > best[doc_id]:
                    best[doc_id] = score
        ranked = sorted(best.items(), key=lambda hit: (-hit[1], hit[0]))
        return [[doc_id, score] for doc_id, score in ranked[:limit]]

    # -- tactic services -------------------------------------------------------

    @staticmethod
    def _address_key(value: Any) -> str | bytes:
        if isinstance(value, (str, bytes)):
            return value
        return repr(value)

    def _pin_nodes(self, service: str) -> list[str]:
        with self._lock:
            pins = self._pins.get(service)
            if pins is None:
                pins = self._ring.owners(service, self._replication())
                self._pins[service] = pins
            return list(pins)

    def _tactic(self, request: Request) -> Any:
        """A loose tactic slot: a pinned service's chain, else a keyed
        read routed by its method and what the request carries."""
        service, method, kwargs = (request.service, request.method,
                                   request.kwargs)
        if method == "insert_many":
            # A caller's mistake, not a link failure: never retried.
            raise TacticError("sharded index writes need a key per entry")
        if _tactic_of(service) not in KEYED:
            return self._attempt_chain(self._pin_nodes(service), request)
        if method == "retrieve" and "doc_id" in kwargs:
            result = self._routed_read(kwargs["doc_id"], request)
            if result is None:
                prev = self._prev_owner(kwargs["doc_id"])
                if prev is not None:
                    result = self._timed_call(prev, request)
            return result
        if method in ("eq_query", "range_query"):
            results = self._broadcast(request)
            if "addresses" in kwargs:
                # Address slots align across shards: the owning shard
                # answers its slot, the rest return None.
                merged: list[Any] = []
                for _, part in results:
                    part = part or []
                    while len(merged) < len(part):
                        merged.append(None)
                    for index, payload in enumerate(part):
                        if merged[index] is None:
                            merged[index] = payload
                return merged
            return self._merge_concat(results)
        if method == "ordered_range":
            return self._ordered_range(request)
        if method == "aggregate":
            return self._aggregate(request)
        return self._broadcast_last(request)

    # -- scatter merges --------------------------------------------------------

    def _merge_concat(self, results: list[tuple[str, Any]]) -> list:
        """Union-merge of per-shard id/entry lists.

        Pure-string results (DET/blind-index/OPE/ORE id sets, Sophos
        chains) come back sorted — the answer a single node holding all
        entries would give; other payloads (RND's id/blob pairs, the
        stateless SSE's posting pairs) keep node-order concat.  Node
        order puts older nodes first, so entries still on a migration
        source precede entries written to the new owner: a gateway's
        tombstone scan over a posting list sees causal order.
        """
        merged = _first_seen(results)
        if all(isinstance(item, str) for item in merged):
            return sorted(merged)
        return merged

    def _ordered_range(self, request: Request) -> list[str]:
        kwargs = request.kwargs
        limit = kwargs.get("limit")
        descending = bool(kwargs.get("descending", False))
        keyed_kwargs: dict[str, Any] = {
            "low": kwargs.get("low"),
            "high": kwargs.get("high"),
            "descending": descending,
        }
        if limit is not None:
            # Each shard returns its own first ``limit`` in direction;
            # the global answer is within the union of those prefixes.
            keyed_kwargs["limit"] = limit
        keyed = Request(request.service, "ordered_range_keyed",
                        keyed_kwargs)
        # The ``(key, doc_id)`` order each shard's sorted index keeps;
        # ORE keys travel as bytes and compare once parsed, OPE keys are
        # ints.
        pairs = sorted(
            (OreCiphertext.from_bytes(key) if isinstance(key, bytes)
             else key, doc_id)
            for _, part in self._broadcast(keyed)
            for key, doc_id in part or []
        )
        if descending:
            pairs.reverse()
        # A replicated entry arrives once per owner: keep its first.
        ids = list(dict.fromkeys(doc_id for _, doc_id in pairs))
        return ids if limit is None else ids[:limit]

    def _aggregate(self, request: Request) -> list[dict]:
        """The per-shard partials, in node order; the gateway tactic's
        ``resolve_aggregate`` folds them (an empty shard's partial is
        the identity with ``count`` 0)."""
        doc_ids = request.kwargs.get("doc_ids")
        if doc_ids is not None:
            replies = self._keyed_scatter(request, doc_ids)
        elif self._replication() > 1:
            # A caller's mistake, not a link failure: nothing above the
            # router may retry it or count it against a breaker.
            raise UnsupportedOperation(
                "an aggregate without doc_ids would count every "
                "replica's copy; name the documents"
            )
        else:
            replies = [reply for _, reply in self._broadcast(request)]
        return [part for reply in replies for part in reply]
