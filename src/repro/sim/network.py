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
  :meth:`perturb_link`.  What each message needs lives in **flat
  arrays indexed by ``src * stride + dst``** (``stride`` = highest pid
  + 1): the route table caches each ordered link's ``(policy,
  rng_stream)`` pair in one slot, so the per-message lookup is an
  integer multiply and a list index instead of a tuple hash.  Policies
  are shared per law, so under ``link_rng="src"`` the n² slots point at
  a handful of interned tuples.  The arrays are (re)built lazily on
  first use after a registration or a new map; :meth:`set_link` /
  :meth:`perturb_link` clear just the affected slot, so fault injection
  still takes effect immediately.
* ``broadcast`` is **one pass per fan-out**: partition membership is
  resolved once, wire size is computed once per message, and all
  delivery events are bulk-posted through a single ``post_batch()``
  kernel call instead of n−1 independent ``send()``s.  Each sender
  keeps a lazily built fan-out record (destinations, link tokens, rng
  streams, and the one policy its out-links share, if they do); when
  they do and nothing needs a per-copy callback before the plan — no
  active partition, no per-copy send/packet observer — the whole
  fan-out is planned by **one** ``policy.plan_many`` call.  Every other
  broadcast plans copy by copy, and ``send`` plans its one copy, through
  ``plan`` directly on links that keep the default one-copy
  ``plan_all``.  Observer and ordering semantics are bit-for-bit those
  of the send loop both replace — see :meth:`Network.broadcast`.
* What remains per copy — the delay draw at send time, ``_deliver`` at
  delivery time — reads fields, not properties, and under
  ``link_rng="src"`` a sender's stream is looked up once, not per link.
* Observer dispatch iterates the hub's precomputed per-event callback
  tuples — an empty tuple (no observer overrides that hook) costs one
  truthiness check, exactly like the old lazy-trace guard.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.obs.observer import Observer, ObserverHub, attach_captured
from repro.sim.engine import Simulation
from repro.sim.links import DegradedWindow, LinkPolicy, PerturbedLink, TimelyLink
from repro.sim.messages import Message
from repro.sim.metrics import MetricsCollector
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


class _Fanout(NamedTuple):
    """What ``broadcast`` needs to know about one sender, computed once."""

    dsts: tuple[int, ...]
    links: tuple[int, ...]
    rngs: tuple[random.Random, ...]
    #: The one-copy policy every out-link shares, or None if they differ
    #: (or the shared one can duplicate).
    policy: LinkPolicy | None


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
    default_link:
        Factory of the law for every ordered pair that neither an
        installed map nor :meth:`set_link` covers, called once on first
        need; defaults to one shared :class:`TimelyLink`.
    mtu:
        Packet size used to convert modeled wire bytes into packet
        counts (see :mod:`repro.sim.packets`).  Only consulted when a
        packet observer is attached; the default run pays nothing.
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
    """

    def __init__(
        self,
        sim: Simulation,
        default_link: Callable[[], LinkPolicy] = TimelyLink,
        observers: Iterable[Observer] | None = None,
        mtu: int = DEFAULT_MTU,
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
        if mtu <= 0:
            raise NetworkError("mtu must be positive")
        if link_rng not in ("pair", "src"):
            raise NetworkError(
                f"link_rng must be 'pair' or 'src', got {link_rng!r}")
        self.mtu = mtu
        self.link_rng = link_rng
        self._default_link = default_link
        self._default_policy: LinkPolicy | None = None
        self._processes: dict[int, "Process"] = {}
        # The installed map's base law and the pids it covers; _links
        # holds only the pairs someone set (see the module docstring).
        self._base_pids = range(0)
        self._base_law: LinkPolicy | None = None
        self._links: dict[tuple[int, int], LinkPolicy] = {}
        self._partitions: list[tuple[float, float, tuple[frozenset[int], ...]]] = []
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
        :meth:`set_link`, a :meth:`perturb_link` overlay, an earlier
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
        :meth:`set_link`, :meth:`perturb_link`), else the installed map's
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
                policy = self._default_policy = self._default_link()
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
            shared = None
            if len(policies) == 1:
                (policy,) = policies
                if type(policy).plan_all is LinkPolicy.plan_all:
                    shared = policy
            base = src << _LINK_SHIFT
            fanout = self._fanouts[src] = _Fanout(
                dsts, tuple(base | dst for dst in dsts),
                tuple(rng for _, rng in routes), shared)
        return fanout

    def perturb_link(self, src: int, dst: int, window: DegradedWindow) -> None:
        """Overlay a :class:`DegradedWindow` on the ``src -> dst`` policy.

        The pair's current policy is wrapped in a
        :class:`~repro.sim.links.PerturbedLink` on first use; further
        windows accumulate on the same wrapper.  This is the hook the
        nemesis subsystem uses for loss storms, delay storms, flapping
        and duplication without disturbing the base synchrony model.
        """
        if src == dst:
            raise NetworkError("no self-links in the model")
        self.process(src)
        self.process(dst)
        policy = self.link(src, dst)
        if not isinstance(policy, PerturbedLink):
            policy = PerturbedLink(policy)
            self._links[(src, dst)] = policy
            self._clear_route(src, dst)
        policy.add_window(window)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def add_partition(self, start: float, end: float,
                      groups: "Sequence[Iterable[int]]") -> None:
        """Partition the network into ``groups`` during ``[start, end)``.

        Messages whose source and destination fall into different groups
        (or outside every group) during the interval are dropped at send
        time with reason ``"partition"``.  A partition is simply a burst
        of correlated message loss, which every lossy link type permits;
        note that partitioning an *eventually timely* link after its GST
        steps outside the model — tests that do so are probing behaviour
        beyond the paper's assumptions, deliberately.
        """
        if end <= start:
            raise NetworkError("partition must have positive duration")
        frozen = tuple(frozenset(group) for group in groups)
        seen: set[int] = set()
        for group in frozen:
            overlap = seen & group
            if overlap:
                raise NetworkError(
                    f"partition groups must be pairwise disjoint; "
                    f"{sorted(overlap)} appear in more than one group")
            for pid in group:
                if pid not in self._processes:
                    raise NetworkError(
                        f"partition references unknown pid {pid}; "
                        f"registered: {self.pids}")
            seen |= group
        self._partitions.append((start, end, frozen))

    def partitioned(self, src: int, dst: int, now: float) -> bool:
        """Whether ``src -> dst`` is currently severed by a partition."""
        for start, end, groups in self._partitions:
            if not start <= now < end:
                continue
            same_side = any(src in group and dst in group for group in groups)
            if not same_side:
                return True
        return False

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
            # Wire size is computed only here, so runs without a packet
            # observer never pay for the accounting model.
            size = message.wire_size()
            packets = packet_count(size, self.mtu)
            for callback in packet_cbs:
                callback(now, src, dst, kind, size, packets)

        if self._partitions and self.partitioned(src, dst, now):
            for callback in hub.drop_cbs:
                callback(now, src, dst, kind, "partition")
            return

        policy, rng = self._route(src, dst)
        link = src << _LINK_SHIFT | dst
        if type(policy).plan_all is LinkPolicy.plan_all:
            # One-copy link: skip plan_all's list round trip.
            delay = policy.plan(message, now, rng, link)
            delays = () if delay is None else (delay,)
        else:
            # Perturbed links may duplicate.
            delays = policy.plan_all(message, now, rng, link)
        if not delays:
            for callback in hub.drop_cbs:
                callback(now, src, dst, kind, "link")
            return
        # Deliveries are never cancelled, so use the handle-free path.
        post_after = self.sim.post_after
        deliver = self._deliver
        incarnation = sender.incarnation
        for delay in delays:
            post_after(delay,
                       partial(deliver, src, dst, message, now, incarnation))

    def broadcast(self, src: int, message: Message) -> None:
        """Send ``message`` from ``src`` to every other registered process.

        Semantically identical to calling :meth:`send` once per other
        pid in ascending order — same observer callbacks (per
        destination, in the same order), same RNG draws, same delivery
        event ordering — but executed as one pass: partition membership
        is resolved once, wire size is computed once, and all delivery
        events are scheduled through a single
        :meth:`~repro.sim.engine.Simulation.post_batch` call.  When the
        sender's out-links share one policy and nothing must be called
        per copy ahead of its plan (no active partition, no per-copy
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
        # Resolve the partition picture once for the whole fan-out:
        # src's group in each active partition (an empty group = src is
        # outside every group, severed from everyone).
        src_groups: list[frozenset[int]] = []
        for start, end, groups in self._partitions:
            if start <= now < end:
                for group in groups:
                    if src in group:
                        src_groups.append(group)
                        break
                else:
                    src_groups.append(frozenset())
        deliver = self._deliver
        incarnation = sender.incarnation
        items: list[tuple[float, partial]] = []
        append = items.append
        shared = fanout.policy
        if shared is not None and not (send_cbs or packet_cbs or src_groups):
            # Nothing to call per copy before its plan: one call plans
            # the fan-out (same draws, same streams, same order).
            delays = shared.plan_many(message, now, fanout.rngs, fanout.links)
            for dst, delay in zip(dsts, delays):
                if delay is None:
                    for callback in drop_cbs:
                        callback(now, src, dst, kind, "link")
                else:
                    append((now + delay,
                            partial(deliver, src, dst, message, now,
                                    incarnation)))
            if items:
                self.sim.post_batch(items)
            return
        # _fanout() filled every slot of this sender's table row.
        table = self._route_table
        base = src * self._stride
        default_plan_all = LinkPolicy.plan_all
        for dst, link in zip(dsts, fanout.links):
            if send_cbs:
                for callback in send_cbs:
                    callback(now, src, dst, kind)
            if packet_cbs:
                for callback in packet_cbs:
                    callback(now, src, dst, kind, size, packets)
            if src_groups and any(dst not in group for group in src_groups):
                for callback in drop_cbs:
                    callback(now, src, dst, kind, "partition")
                continue
            policy, rng = table[base + dst]
            if type(policy).plan_all is default_plan_all:
                # One-copy link: skip plan_all's list round trip.
                delay = policy.plan(message, now, rng, link)
                if delay is None:
                    for callback in drop_cbs:
                        callback(now, src, dst, kind, "link")
                    continue
                append((now + delay,
                        partial(deliver, src, dst, message, now, incarnation)))
            else:
                delays = policy.plan_all(message, now, rng, link)
                if not delays:
                    for callback in drop_cbs:
                        callback(now, src, dst, kind, "link")
                    continue
                for delay in delays:
                    append((now + delay,
                            partial(deliver, src, dst, message, now,
                                    incarnation)))
        if items:
            self.sim.post_batch(items)

    def _deliver(self, src: int, dst: int, message: Message, sent_at: float,
                 sent_incarnation: int = 0) -> None:
        # Once per copy: read fields, not the now/crashed/started properties.
        receiver = self._processes[dst]
        now = self.sim._now
        hub = self.hub
        if (self._any_recovered
                and self._processes[src].incarnation != sent_incarnation):
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
            for callback in deliver_cbs:
                callback(now, src, dst, kind, sent_at)
        packet_cbs = hub.packet_deliver_cbs
        if packet_cbs:
            kind = message.kind
            size = message.wire_size()
            packets = packet_count(size, self.mtu)
            for callback in packet_cbs:
                callback(now, src, dst, kind, size, packets)
        receiver.deliver(message)

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
