"""The simulated network: one link law per ordered process pair.

:class:`Network` glues together the kernel, the link models and the
observability layer.  A protocol process never touches links directly —
it calls ``send``/``broadcast`` and the network consults the policy of
the ordered pair (an object shared by every pair under the same law,
told which link it is serving), schedules the delivery event, and dispatches
the event to its :class:`~repro.obs.ObserverHub`.  The hub is **the**
single dispatch point of the repository: metrics, traces, timeliness
inspection and run recording are all just observers attached to it
(see ``docs/OBSERVABILITY.md``).

Crash semantics: a message addressed to a process that is down *at
delivery time* is silently dropped (recorded as ``dst_crashed``), and a
crashed process can never send.  Under crash-recovery, each send is
stamped with the sender's incarnation; a message still in flight when
its sender crashes and recovers is dropped at delivery time as
``stale_incarnation`` — the new incarnation did not send it, mirroring
the connection reset a real restart causes.  Runs that never recover a
process skip the stale check entirely.

Hot path
--------
``send``/``broadcast`` are the busiest functions in the repository
(every heartbeat of every process crosses them), so they avoid
re-deriving anything per call:

* Nothing is stored per pair unless the pair differs: an installed
  :class:`~repro.sim.topology.LinkMap` is kept as its base law (every
  pair inside ``range(n)``) plus its overrides, and ``_links`` holds
  only the pairs someone set — a map's overrides, :meth:`set_link`,
  a pair under link faults.  What each message needs lives in **flat
  arrays indexed by ``src * stride + dst``** (``stride`` = highest pid
  + 1): the route table caches each ordered link's ``(policy,
  rng_stream)`` pair in one slot, so the per-message lookup is an
  integer multiply and a list index instead of a tuple hash.  Policies
  are shared per law, so under ``link_rng="src"`` the n² slots point at
  a handful of interned tuples.  The arrays are (re)built lazily on
  first use after a registration or a new map; :meth:`set_link`
  clears just the affected slot, so fault injection still takes effect
  immediately.
* ``broadcast`` is **one pass per fan-out**: wire size is computed once
  per message, and all delivery events are bulk-posted through a
  single ``post_batch()`` kernel call instead of n−1 independent
  ``send()``s.  Each sender keeps a lazily built fan-out record
  (destinations, rng streams, the one law its out-links share, if they
  do, and the span of the link faults on them); when they do and
  nothing needs a per-copy step before the plan — no link fault open,
  no per-copy send/packet observer — the whole fan-out is planned by
  **one** ``policy.plan_many`` call.  Its link tokens are
  computed from the destinations as it iterates, and under
  ``link_rng="src"`` its streams are the sender's one stream repeated,
  so the record stores neither n−1 tokens nor n−1 stream references.
  Every other broadcast plans copy by copy, and ``send`` plans its one
  copy: through ``plan`` on a bare law, and through the nemesis'
  :func:`~repro.sim.nemesis.apply_link_faults` on a pair under link
  faults.  Observer and ordering semantics are
  bit-for-bit those of the send loop both replace — see
  :meth:`Network.broadcast`.
* A message in flight is **one** :class:`_InFlight` record per fan-out
  (per unicast send), not one closure per copy: sender, message, send
  time, incarnation and the destinations in firing order — an
  ``array`` for a fan-out, the one pid (once per copy) for a unicast.
  What remains per copy is the delay draw at send time, one ``(time,
  seq, record)`` calendar entry (its time float and seq int included),
  one destination slot, and at delivery one call of the record — which
  reads fields, not properties.
* Observer dispatch iterates the hub's precomputed per-event callback
  tuples — an empty tuple (no observer overrides that hook) costs one
  truthiness check, exactly like the old lazy-trace guard.
"""

from __future__ import annotations

import random
from array import array
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from repro.obs.observer import Observer, ObserverHub, attach_captured
from repro.sim.engine import Simulation
from repro.sim.links import LinkPolicy, TimelyLink
from repro.sim.messages import Message
from repro.sim.metrics import MetricsCollector
from repro.sim.nemesis import PerturbedLink
from repro.sim.packets import DEFAULT_MTU, packet_count
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.process import Process
    from repro.sim.topology import LinkMap

__all__ = ["Network", "NetworkError"]


class NetworkError(RuntimeError):
    """Raised on network misuse (unknown process, sending while crashed...)."""


#: Link token of the ordered pair: ``src << _LINK_SHIFT | dst``.  Unlike
#: the flat table index it survives a late ``register`` (which changes
#: the stride), so a shared policy's per-link state stays with its link.
_LINK_SHIFT = 32


class _LinkTokens:
    """A sender's out-link tokens, computed from its destinations on each
    pass: what ``plan_many`` reads (length, one iteration) without n−1
    stored ints per sender."""

    __slots__ = ("base", "dsts")

    def __init__(self, src: int, dsts: tuple[int, ...]) -> None:
        self.base = src << _LINK_SHIFT
        self.dsts = dsts

    def __len__(self) -> int:
        return len(self.dsts)

    def __iter__(self) -> Iterator[int]:
        return map(self.base.__or__, self.dsts)


class _Repeated:
    """One rng stream ``count`` times: a sender's out-link streams under
    ``link_rng="src"``, without n−1 stored references to it."""

    __slots__ = ("stream", "count")

    def __init__(self, stream: random.Random, count: int) -> None:
        self.stream = stream
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[random.Random]:
        return repeat(self.stream, self.count)


class _Fanout(NamedTuple):
    """What ``broadcast`` needs to know about one sender, computed once."""

    dsts: tuple[int, ...]
    links: _LinkTokens
    #: One stream per out-link (``link_rng="pair"``), or the sender's one
    #: stream repeated (``"src"``).
    rngs: tuple[random.Random, ...] | _Repeated
    #: The law every out-link shares under any link faults, or None if
    #: they differ.
    policy: LinkPolicy | None
    #: ``[first start, last end)`` of the link faults on the out-links
    #: (empty without any): inside it the fan-out plans copy by copy.
    faulted: tuple[float, float]


class _InFlight:
    """The copies of one message from one sender that are still on the
    wire: one record per fan-out, and one per unicast send.

    The kernel holds one calendar entry ``(time, seq, record)`` per copy,
    every one pointing at this record.  The copies are posted in ``(time,
    copy index)`` order, so the kernel, which runs entries in ``(time,
    seq)`` order, fires them in the order of ``dsts``: each call delivers
    the next destination's copy.
    """

    __slots__ = ("network", "src", "message", "sent_at", "incarnation",
                 "dsts", "fired")

    def __init__(self, network: "Network", src: int, message: Message,
                 sent_at: float, incarnation: int,
                 dsts: Sequence[int]) -> None:
        self.network = network
        self.src = src
        self.message = message
        self.sent_at = sent_at
        self.incarnation = incarnation
        #: Destinations in firing order (a copy per entry; a duplicated
        #: copy appears once per delivery).
        self.dsts = dsts
        self.fired = 0

    def __call__(self) -> None:
        # Once per copy: read fields, not the now/crashed/started properties.
        fired = self.fired
        dst = self.dsts[fired]
        self.fired = fired + 1
        network = self.network
        processes = network._processes
        receiver = processes[dst]
        now = network.sim._now
        hub = network.hub
        src = self.src
        message = self.message
        if (network._any_recovered
                and processes[src].incarnation != self.incarnation):
            # The sending incarnation died while this message was in
            # flight; its successor never sent it.
            for callback in hub.drop_cbs:
                callback(now, src, dst, message.kind, "stale_incarnation")
            return
        if receiver._crashed or not receiver._started:
            # Crash-stop processes receive nothing; a not-yet-started
            # process has no open endpoint either (staggered boots).
            reason = "dst_crashed" if receiver._crashed else "dst_not_started"
            for callback in hub.drop_cbs:
                callback(now, src, dst, message.kind, reason)
            return
        deliver_cbs = hub.deliver_cbs
        if deliver_cbs:
            kind = message.kind
            sent_at = self.sent_at
            for callback in deliver_cbs:
                callback(now, src, dst, kind, sent_at)
        packet_cbs = hub.packet_deliver_cbs
        if packet_cbs:
            kind = message.kind
            size = message.wire_size()
            packets = packet_count(size, network.mtu)
            for callback in packet_cbs:
                callback(now, src, dst, kind, size, packets)
        receiver.deliver(message)


class Network:
    """Message fabric between registered processes.

    Determinism: given the same :class:`Simulation` seed, the same
    registrations and the same sequence of ``send`` calls, deliveries,
    drops and delays are bit-for-bit identical — each ordered link draws
    from its own named RNG stream, so runs do not depend on dict order or
    wall clock.  Observers are passive; attaching or detaching any
    number of them never changes a run.  All times are seconds of
    simulated time.

    Parameters
    ----------
    sim:
        The simulation kernel that owns time.
    observers:
        Observers to attach to the network's hub at construction.
        ``None`` (the default) attaches a fresh
        :class:`~repro.sim.metrics.MetricsCollector`, preserving the
        historical behaviour of ``Network(sim)``; pass an explicit
        empty tuple for a truly bare network.
    link_rng:
        Granularity of the link RNG streams.  ``"pair"`` (the default,
        and the historical behaviour) derives one independent stream per
        ordered pair — n² Mersenne states, which dominates setup cost
        beyond n ≈ 512.  ``"src"`` derives one stream per *sender*,
        consumed by all of that sender's out-links in deterministic
        (ascending-dst) order: statistically each message still gets an
        independent draw, but setup is n streams, which is what makes
        the n=1024 sweeps affordable.  The two settings produce
        different (each internally deterministic) delay sequences, so
        changing it changes a run the way changing the seed does.

    A pair that neither an installed map nor :meth:`set_link` covers
    gets one shared :class:`TimelyLink`, made on first need.
    """

    #: A message's encoded bytes (:mod:`repro.wire`) become packets at
    #: this size; only a packet observer asks.
    mtu = DEFAULT_MTU

    def __init__(
        self,
        sim: Simulation,
        observers: Iterable[Observer] | None = None,
        link_rng: str = "pair",
    ) -> None:
        self.sim = sim
        self.hub = ObserverHub()
        if observers is None:
            self.hub.attach(MetricsCollector())
        else:
            for observer in observers:
                self.hub.attach(observer)
        attach_captured(self.hub, self)
        if link_rng not in ("pair", "src"):
            raise NetworkError(
                f"link_rng must be 'pair' or 'src', got {link_rng!r}")
        self.link_rng = link_rng
        self._default_policy: LinkPolicy | None = None
        self._processes: dict[int, "Process"] = {}
        # The installed map's base law and the pids it covers; _links
        # holds only the pairs someone set (see the module docstring).
        self._base_pids = range(0)
        self._base_law: LinkPolicy | None = None
        self._links: dict[tuple[int, int], LinkPolicy] = {}
        # Whether any process ever recovered: gates the per-delivery
        # stale-incarnation check so crash-stop runs never pay for it.
        self._any_recovered = False
        # Hot-path caches; see the module docstring.  The flat route
        # table is rebuilt lazily after registrations (stride changes);
        # None marks "not built yet".
        self._pid_tuple: tuple[int, ...] = ()
        self._stride = 0
        self._route_table: list[tuple[LinkPolicy, random.Random] | None] | None = None
        # link_rng="src": each sender's stream, looked up once per sender,
        # and its routes interned — a sender's out-links under one law
        # are one ``(policy, stream)`` tuple, not n−1 equal ones.
        self._src_streams: dict[int, random.Random] = {}
        self._src_routes: dict[tuple[LinkPolicy, random.Random],
                               tuple[LinkPolicy, random.Random]] = {}
        # Per-sender fan-out records, built on a sender's first broadcast;
        # dropped with the route they were derived from.
        self._fanouts: dict[int, _Fanout] = {}

    # ------------------------------------------------------------------
    # Observer accessors
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsCollector:
        """The first attached :class:`MetricsCollector`.

        Raises :class:`NetworkError` if none is attached (only possible
        on networks built with an explicit bare ``observers=()``).
        """
        collector = self.hub.first(MetricsCollector)
        if collector is None:
            raise NetworkError(
                "no MetricsCollector attached to this network; pass one in "
                "Network(observers=...) or network.hub.attach(...) it")
        return collector

    @property
    def trace(self) -> TraceLog:
        """The first attached :class:`TraceLog`.

        If none is attached, a *disabled* one is attached lazily and
        returned, so ``network.trace.enabled = True`` keeps working on
        networks built without tracing — and networks that never touch
        ``.trace`` pay nothing for it.
        """
        log = self.hub.first(TraceLog)
        if log is None:
            log = self.hub.attach(TraceLog(enabled=False))
        return log

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def register(self, process: "Process") -> None:
        """Attach a process; its pid must be a unique nonnegative int.

        (Nonnegative because pids index the flat per-pair arrays; the
        tables are sized by the highest pid, so keep pids dense.)
        """
        pid = process.pid
        if not isinstance(pid, int) or isinstance(pid, bool) or pid < 0:
            raise NetworkError(f"pids must be nonnegative ints, got {pid!r}")
        if pid in self._processes:
            raise NetworkError(f"duplicate pid {pid}")
        self._processes[pid] = process
        self._pid_tuple = tuple(sorted(self._processes))
        self._route_table = None  # stride may change; rebuild lazily
        self._fanouts.clear()

    def process(self, pid: int) -> "Process":
        """The registered process with this pid."""
        try:
            return self._processes[pid]
        except KeyError:
            raise NetworkError(f"unknown pid {pid}") from None

    @property
    def pids(self) -> list[int]:
        """All registered pids, sorted."""
        return list(self._pid_tuple)

    def set_link(self, src: int, dst: int, policy: LinkPolicy) -> None:
        """Install the policy for the ordered pair ``src -> dst``."""
        if src == dst:
            raise NetworkError("no self-links in the model")
        self._links[(src, dst)] = policy
        self._clear_route(src, dst)

    def set_link_map(self, links: "LinkMap") -> None:
        """Install a :class:`~repro.sim.topology.LinkMap` without writing
        it out pair by pair.

        The map's base law covers every ordered pair of distinct pids in
        ``range(links.n)`` and its overrides go in as explicit links;
        every covered pair loses what it had (an explicit
        :meth:`set_link`, the link faults scheduled on it, an earlier
        map), exactly as one ``set_link`` per pair of the map would
        leave it.  Cached routes and fan-out records are dropped.
        """
        covered = range(links.n)
        kept = {(src, dst): policy for (src, dst), policy in self._links.items()
                if src not in covered or dst not in covered}
        wider = self._base_pids
        if len(wider) > len(covered):
            # An earlier, wider map: the pairs this one leaves alone
            # keep its base law, now written out.
            for src in wider:
                for dst in wider:
                    if src != dst and (src not in covered or dst not in covered):
                        kept.setdefault((src, dst), self._base_law)
        self._links = kept
        self._base_pids, self._base_law = covered, links.default
        self._route_table = None
        self._fanouts.clear()
        for (src, dst), policy in links.overrides.items():
            self.set_link(src, dst, policy)

    def link(self, src: int, dst: int) -> LinkPolicy:
        """The policy for ``src -> dst``: the pair's own (a map override,
        :meth:`set_link`, a :class:`~repro.sim.nemesis.PerturbedLink`
        under link faults), else the installed map's
        base law, else the network default (instantiated lazily).

        Nothing is stored by asking.  The object may serve other pairs
        too: to change one pair, :meth:`set_link` a new policy rather
        than mutating this one.
        """
        policy = self._links.get((src, dst))
        if policy is None:
            base = self._base_pids
            if src != dst and src in base and dst in base:
                return self._base_law
            policy = self._default_policy
            if policy is None:
                policy = self._default_policy = TimelyLink()
        return policy

    def _route_table_now(self) -> list[tuple[LinkPolicy, random.Random] | None]:
        """The flat route table, (re)building it if registrations changed."""
        table = self._route_table
        if table is None:
            self._stride = (self._pid_tuple[-1] + 1) if self._pid_tuple else 0
            table = self._route_table = [None] * (self._stride * self._stride)
        return table

    def _clear_route(self, src: int, dst: int) -> None:
        self._fanouts.pop(src, None)
        table = self._route_table
        if table is not None and src < self._stride and dst < self._stride:
            table[src * self._stride + dst] = None

    def _route(self, src: int, dst: int) -> tuple[LinkPolicy, random.Random]:
        """Cached ``(policy, rng_stream)`` for the ordered pair.

        The RNG stream object is owned by the fabric and continues its
        sequence across cache invalidations, so caching it here changes
        nothing about determinism.
        """
        table = self._route_table_now()
        index = src * self._stride + dst
        route = table[index]
        if route is None:
            route = table[index] = self._new_route(src, dst)
        return route

    def _new_route(self, src: int, dst: int) -> tuple[LinkPolicy, random.Random]:
        policy = self.link(src, dst)
        if self.link_rng == "pair":
            return (policy, self.sim.rng.stream("link", src, dst))
        stream = self._src_streams.get(src)
        if stream is None:
            stream = self._src_streams[src] = self.sim.rng.stream(
                "linksrc", src)
        route = (policy, stream)
        return self._src_routes.setdefault(route, route)

    def _fanout(self, src: int) -> _Fanout:
        """The sender's fan-out record, (re)built if a route changed."""
        fanout = self._fanouts.get(src)
        if fanout is None:
            dsts = tuple(dst for dst in self._pid_tuple if dst != src)
            routes = [self._route(src, dst) for dst in dsts]
            policies = {policy for policy, _ in routes}
            faults = [fault for policy in policies
                      if type(policy) is PerturbedLink
                      for fault in policy.faults]
            laws = {policy.inner if type(policy) is PerturbedLink else policy
                    for policy in policies} if faults else policies
            shared = laws.pop() if len(laws) == 1 else None
            faulted = ((min(fault.start for fault in faults),
                        max(fault.end for fault in faults))
                       if faults else (0.0, 0.0))
            if self.link_rng == "src":
                rngs = _Repeated(routes[0][1], len(dsts)) if routes else ()
            else:
                rngs = tuple(rng for _, rng in routes)
            fanout = self._fanouts[src] = _Fanout(
                dsts, _LinkTokens(src, dsts), rngs, shared, faulted)
        return fanout

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst`` through their link."""
        if src == dst:
            raise NetworkError("processes do not send to themselves")
        processes = self._processes
        sender = processes.get(src)
        if sender is None:
            raise NetworkError(f"unknown pid {src}")
        if dst not in processes:
            raise NetworkError(f"unknown pid {dst}")
        now = self.sim._now
        kind = message.kind
        hub = self.hub
        if sender._crashed:
            # Crash-stop: a dead process cannot emit.  Reaching this point
            # indicates a protocol bug (e.g. a timer surviving a crash),
            # so it is recorded loudly rather than ignored.
            for callback in hub.drop_cbs:
                callback(now, src, dst, kind, "src_crashed")
            raise NetworkError(f"crashed process {src} attempted to send")

        send_cbs = hub.send_cbs
        if send_cbs:
            for callback in send_cbs:
                callback(now, src, dst, kind)
        packet_cbs = hub.packet_send_cbs
        if packet_cbs:
            # A message is encoded only here, so runs without a packet
            # observer never pay for the accounting.
            size = message.wire_size()
            packets = packet_count(size, self.mtu)
            for callback in packet_cbs:
                callback(now, src, dst, kind, size, packets)

        policy, rng = self._route(src, dst)
        link = src << _LINK_SHIFT | dst
        if type(policy) is PerturbedLink:
            # Link faults may cut, shed or duplicate.
            delays, reason = policy.plan_copies(message, now, rng, link)
        else:
            delay = policy.plan(message, now, rng, link)
            delays = () if delay is None else (delay,)
            reason = "link"
        if not delays:
            for callback in hub.drop_cbs:
                callback(now, src, dst, kind, reason)
            return
        # Deliveries are never cancelled, so use the handle-free path.
        # Every copy goes to dst, so any firing order is dsts' order.
        record = _InFlight(self, src, message, now, sender.incarnation,
                           (dst,) * len(delays))
        post_after = self.sim.post_after
        for delay in delays:
            post_after(delay, record)

    def broadcast(self, src: int, message: Message) -> None:
        """Send ``message`` from ``src`` to every other registered process.

        Semantically identical to calling :meth:`send` once per other
        pid in ascending order — same observer callbacks (per
        destination, in the same order), same RNG draws, same delivery
        event ordering — but executed as one pass: wire size is computed
        once, and all delivery events are scheduled through a single
        :meth:`~repro.sim.engine.Simulation.post_batch` call.  When the
        sender's out-links share one law and nothing must be done per
        copy ahead of its plan (no link fault open on them, no per-copy
        send or packet observer), the delays come from one
        :meth:`~repro.sim.links.LinkPolicy.plan_many` call; otherwise
        from one ``plan`` per copy.  The only observable difference is
        opt-in: observers overriding
        :meth:`~repro.obs.Observer.on_send_batch` get one batched call
        instead of n−1 ``on_send`` calls.
        """
        sender = self._processes.get(src)
        if sender is None:
            raise NetworkError(f"unknown pid {src}")
        if sender.crashed:
            # Delegate to send() for the first destination so the
            # loud-failure path (drop record + NetworkError) is exactly
            # the unbatched one.
            for dst in self._pid_tuple:
                if dst != src:
                    self.send(src, dst, message)
            return
        now = self.sim.now
        kind = message.kind
        hub = self.hub
        fanout = self._fanout(src)
        dsts = fanout.dsts
        for callback in hub.send_batch_cbs:
            callback(now, src, dsts, kind)
        send_cbs = hub.send_only_cbs
        packet_cbs = hub.packet_send_cbs
        if packet_cbs:
            size = message.wire_size()
            packets = packet_count(size, self.mtu)
        drop_cbs = hub.drop_cbs
        # The copies that survive their plan: destination and time, in
        # copy order (a duplicated copy appears once per delivery).
        targets: list[int] = []
        times: list[float] = []
        shared = fanout.policy
        faulted = fanout.faulted
        if shared is not None and not (send_cbs or packet_cbs) and not (
                faulted[0] <= now < faulted[1]):
            # Nothing to do per copy before its plan, and a fault that
            # is not open draws nothing: one call plans the fan-out
            # (same draws, same streams, same order).
            delays = shared.plan_many(message, now, fanout.rngs, fanout.links)
            for dst, delay in zip(dsts, delays):
                if delay is None:
                    for callback in drop_cbs:
                        callback(now, src, dst, kind, "link")
                else:
                    targets.append(dst)
                    times.append(now + delay)
        else:
            # _fanout() filled every slot of this sender's table row.
            table = self._route_table
            base = src * self._stride
            token = src << _LINK_SHIFT
            for dst in dsts:
                if send_cbs:
                    for callback in send_cbs:
                        callback(now, src, dst, kind)
                if packet_cbs:
                    for callback in packet_cbs:
                        callback(now, src, dst, kind, size, packets)
                policy, rng = table[base + dst]
                if type(policy) is PerturbedLink:
                    delays, reason = policy.plan_copies(message, now, rng,
                                                        token | dst)
                    if not delays:
                        for callback in drop_cbs:
                            callback(now, src, dst, kind, reason)
                        continue
                    for delay in delays:
                        targets.append(dst)
                        times.append(now + delay)
                else:
                    delay = policy.plan(message, now, rng, token | dst)
                    if delay is None:
                        for callback in drop_cbs:
                            callback(now, src, dst, kind, "link")
                        continue
                    targets.append(dst)
                    times.append(now + delay)
        if not times:
            return
        # Post in (time, copy index) order.  The batch takes the block of
        # seqs a copy-order post would, and within it the kernel's (time,
        # seq) order is still (time, copy index) — so the schedule is the
        # copy-order one, and the record's k-th firing is its k-th dst.
        order = sorted(range(len(times)), key=times.__getitem__)
        record = _InFlight(self, src, message, now, sender.incarnation,
                           array("I", map(targets.__getitem__, order)))
        times.sort()
        self.sim.post_batch(zip(times, repeat(record)))

    # ------------------------------------------------------------------
    # Lifecycle bookkeeping (called by Process.crash / Process.recover)
    # ------------------------------------------------------------------

    def note_crash(self, pid: int) -> None:
        """Dispatch a crash to the observers (the process handles its own state)."""
        self.hub.crash(self.sim.now, pid)

    def note_recover(self, pid: int, incarnation: int) -> None:
        """Record a recovery: arm the stale-incarnation check and dispatch."""
        self._any_recovered = True
        self.hub.recover(self.sim.now, pid, incarnation)
