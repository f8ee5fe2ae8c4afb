"""MPI-3 shared-memory window with passive-target lock polling.

Implements the *local work queue* substrate: a per-node window created
with ``MPI_Win_allocate_shared``, accessed by the node's ranks under
``MPI_Win_lock(MPI_LOCK_EXCLUSIVE)`` / ``MPI_Win_unlock`` plus
``MPI_Win_sync`` memory barriers — exactly the primitives the paper's
Section 3 describes.

The decisive behaviour (paper Sections 5-6): ``MPI_Win_lock`` is
implemented with **lock polling** (Zhao, Balaji & Gropp [38]).  A rank
that fails to acquire re-issues a lock-attempt message only after a
polling interval, so under contention each hand-off costs a large
fraction of that interval, and the number of lock-attempt messages
grows with the number of simultaneous requesters.  This is why fine
grained intra-node techniques (``X+SS``) perform poorly under the
MPI+MPI approach while coarse ones are unaffected.

Failed pollers are *parked*, not stepped poll by poll.  A rank whose
attempt fails pushes itself onto the window's heap of parked pollers
and blocks on a gate the engine never reschedules.  While the lock is
held every later attempt of a parked rank fails too, so its polls need
no engine events: the window steps them itself, in per-window
chronological order, when :meth:`SharedWindow.unlock` releases the lock
(and before any locality-penalty charge, so the window's penalty sum
accrues in event order).  A step either draws the poll wait from the
window's own jitter stream or issues the next attempt, accruing poll
wait, attempt overhead and penalty exactly as a per-poll loop would.
Only the pollers that may try first after a release are woken, through
:meth:`~repro.sim.engine.Simulator.schedule_at` at their absolute
next-step time; one that loses the race parks again.  Jitter draws,
every float sum and ``n_events`` (each realised step counts the engine
event a per-poll loop would have taken) are bit-identical to stepping
every poll.  A crash-stop (:meth:`SharedWindow.crash_stop`) realises the
window's polls up to the crash, drops the victim and wakes every other
parked rank, so the lease-break branch of :meth:`SharedWindow.lock`
runs on real attempts.

The window tracks contention statistics (attempts, acquisitions, poll
wait time) that the benchmarks report and the ablation sweeps.
"""

from __future__ import annotations

import heapq
from itertools import count
from math import inf as _INF
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.engine import BatchedDraws
from repro.sim.primitives import Delay, Overhead, OverheadOnce, SimEvent
from repro.sim.resources import Lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Process
    from repro.smpi.world import MpiWorld, RankCtx


def _poll_jitters(rng: np.random.Generator, size: int) -> np.ndarray:
    """Lock-poll jitter factors, ``uniform(0.5, 1.5)``, in draw order."""
    return rng.uniform(0.5, 1.5, size)


class _Port:
    """What one rank's calls on one shared window cost.

    The (rank, window) locality tier is fixed until the window is
    re-homed, so each rank resolves its penalties, its lock-attempt cost
    and the delays its calls yield once, on first use;
    :meth:`SharedWindow.fail_over` drops every port.
    """

    __slots__ = (
        "load_penalty", "atomic_penalty", "attempt_cost", "attempt",
        "access3", "unlock",
    )

    def __init__(self, mpi: Any, load_penalty: float, atomic_penalty: float):
        self.load_penalty = load_penalty
        self.atomic_penalty = atomic_penalty
        #: seconds per lock-attempt message, and the delay it yields
        self.attempt_cost = mpi.shm_lock_attempt + atomic_penalty
        self.attempt = Overhead(self.attempt_cost)
        #: ``access(n=3)``, the queue protocol's head-pointer touch
        self.access3 = Overhead(3 * (mpi.shm_access + load_penalty))
        self.unlock = Overhead(mpi.shm_unlock + atomic_penalty)


class _PollGate(SimEvent):
    """What a parked poller yields: an event that is never triggered.

    The engine hands the blocked process to :meth:`add_waiter`, which
    records it for the window; the window later resumes it directly
    with :meth:`~repro.sim.engine.Simulator.schedule_at`.  One gate
    serves a whole ``lock()`` call and counts the failed attempts
    realised on its behalf.
    """

    __slots__ = (
        "process", "cost", "penalty", "attempts", "waiting", "issued_at",
        "before_issue",
    )

    def __init__(self, sim: Any, cost: float, penalty: float):
        super().__init__(sim, name="shm-poll")
        self.process: Optional["Process"] = None
        #: seconds per lock-attempt message (base cost + penalty)
        self.cost = cost
        #: the locality-penalty share of ``cost``
        self.penalty = penalty
        #: attempts issued while parked (realised by the window)
        self.attempts = 0
        #: phase of the parked entry: True while its poll wait runs
        #: (the key is the wait's end, when the next attempt is
        #: issued), False while an attempt is in flight (the key is its
        #: landing, where it fails against the held lock)
        self.waiting = False
        #: when the in-flight attempt is (or was) issued, and the
        #: poller's overhead seconds just before it
        self.issued_at = 0.0
        self.before_issue = 0.0

    def add_waiter(self, process: "Process") -> None:
        """Record the parked process; nothing ever triggers the gate."""
        self.process = process


class SharedWindow:
    """A node-local shared-memory window with named cells + free state.

    ``cells`` hold named integers (counters, flags) accessed through
    :meth:`load`/:meth:`store` at per-access cost.  ``state`` is a
    free-form dict for structured queue contents (chunk range lists);
    callers charge access costs explicitly through :meth:`access` —
    keeping the cost model honest without forcing byte-level encoding.

    All mutating accesses must happen while holding the window lock;
    violations raise immediately (they would be data races on real
    hardware).
    """

    def __init__(
        self,
        world: "MpiWorld",
        node,
        cells: Dict[str, int],
        home_rank: Optional[int] = None,
    ):
        self.world = world
        #: window key: node index, or any hashable for finer-grained
        #: windows (e.g. ``(node, socket)`` for a socket-level queue)
        self.node = node
        self.cells: Dict[str, int] = dict(cells)
        #: free-form structured contents (the queue's chunk ranges)
        self.state: Dict[str, Any] = {}
        # int keys keep their historical stream names so per-node
        # windows (and thus every two-level run) stay bit-identical
        tag = (
            str(node)
            if not isinstance(node, tuple)
            else "-".join(str(part) for part in node)
        )
        self.sim = world.sim
        self._lock = Lock(world.sim, name=f"shmwin@node{tag}")
        #: batched lock-poll jitter, shared by every poller of the window
        self.jitter = BatchedDraws(
            world.sim.rng(f"shm-lockpoll.node{tag}"), _poll_jitters
        )
        #: parked pollers: ``(time, park_order, gate)``, ``time`` being
        #: the poller's next step (see :attr:`_PollGate.waiting`)
        self._parked: List[Tuple[float, int, _PollGate]] = []
        self._park_order = count()
        #: gates of woken pollers whose resume is still pending
        self._awake: Dict["Process", _PollGate] = {}
        world.sim.parking_lots.append(self)
        #: rank whose NUMA domain physically hosts the window's pages.
        #: Default: the lowest rank of the tier group the key names
        #: (first-touch allocation by the group leader); a placement
        #: plan may override it with any group member via ``home_rank``.
        #: Accesses from other ranks pay the locality-tier penalties of
        #: the cost model; None for free-form keys, which stay
        #: distance-blind.
        self.home_rank: Optional[int] = (
            home_rank if home_rank is not None else self._home_of(world, node)
        )
        #: per-rank ports (see :class:`_Port`), resolved on first use
        self._ports: Dict[int, _Port] = {}
        self._sync: Delay = Overhead(world.costs.mpi.shm_win_sync)
        # statistics
        self.n_acquisitions = 0
        self.n_attempts = 0
        self.total_poll_wait = 0.0
        self.max_attempts_per_acquire = 0
        self.n_syncs = 0
        #: leases broken after their holder crash-stopped mid-epoch
        self.n_leases_broken = 0
        #: times the window was re-homed after its home rank died
        self.n_failovers = 0
        #: accumulated locality-tier penalty seconds actually charged on
        #: this window (lock attempts, unlocks, loads, accesses,
        #: atomics) — the distance-priced share of its traffic, which is
        #: what queue *placement* can change.  Zero with default knobs.
        self.total_penalty_s = 0.0

    @staticmethod
    def _home_of(world: "MpiWorld", key) -> Optional[int]:
        """Lowest rank of the tier group ``key`` names, or None."""
        placement = world.placement
        try:
            if isinstance(key, int):
                members = placement.ranks_on_node(key)
            elif isinstance(key, tuple) and len(key) == 2:
                members = placement.ranks_on_socket(*key)
            elif isinstance(key, tuple) and len(key) == 3:
                members = placement.ranks_on_numa(*key)
            else:
                return None
        except (TypeError, IndexError):
            return None
        return members[0] if members else None

    def _port(self, ctx: "RankCtx") -> _Port:
        """``ctx``'s port on this window, resolved once per rank (hot
        callers probe ``_ports`` inline first)."""
        port = self._ports.get(ctx.rank)
        if port is None:
            if self.home_rank is None:
                penalties = (0.0, 0.0)
            else:
                net = self.world.interconnect
                penalties = (
                    net.load_penalty(ctx.rank, self.home_rank),
                    net.atomic_penalty(ctx.rank, self.home_rank),
                )
            port = self._ports[ctx.rank] = _Port(self.world.costs.mpi, *penalties)
        return port

    # ------------------------------------------------------------------
    # locking (the expensive part)
    # ------------------------------------------------------------------
    def lock(self, ctx: "RankCtx"):
        """``MPI_Win_lock(MPI_LOCK_EXCLUSIVE)`` with polling retries.

        Each attempt costs one lock-attempt message; failed attempts
        retry after ``shm_poll_interval`` (jittered +-50% so pollers do
        not stay phase-locked forever).  Polling time is accounted as
        *overhead* — the CPU is busy re-issuing attempts.  A failed
        poller parks on the window until an unlock realises its retries
        (see the module docstring).
        """
        owner = ctx.owner
        # each lock-attempt message travels to the window's home NUMA
        # domain, so remote-NUMA/cross-socket requesters pay the tier
        # penalty per attempt (zero with default knobs)
        port = self._ports.get(ctx.rank) or self._port(ctx)
        atomic_penalty = port.atomic_penalty
        attempt = port.attempt
        attempts = 1
        if atomic_penalty:
            self._charge(atomic_penalty)
        yield attempt
        gate = None
        while not self._lock.try_acquire(owner):
            faults = self.world.faults
            if faults is not None and self._owner_is_dead():
                # Lease break: the exclusive lock is held by a rank that
                # crash-stopped mid-epoch.  Wait out one lease timeout
                # (the failure detector's confirmation window),
                # re-confirm, then force the lock open and retry
                # immediately.  Never taken when faults is None, so the
                # fault-free event stream is untouched.
                yield OverheadOnce(faults.lease_timeout)
                if self._owner_is_dead():
                    self._lock.force_release()
                    self.n_leases_broken += 1
                attempts += 1
                if atomic_penalty:
                    self._charge(atomic_penalty)
                yield attempt
                continue
            if gate is None:
                gate = _PollGate(self.sim, port.attempt_cost, atomic_penalty)
            gate.waiting = False
            heapq.heappush(
                self._parked, (self.sim.now, next(self._park_order), gate)
            )
            yield gate
            del self._awake[gate.process]
            if gate.waiting:
                # woken as a poll wait ends: issue the next attempt
                attempts += 1
                if atomic_penalty:
                    self._charge(atomic_penalty)
                yield attempt
        if gate is not None:
            attempts += gate.attempts
        self.n_attempts += attempts
        self.n_acquisitions += 1
        self.max_attempts_per_acquire = max(self.max_attempts_per_acquire, attempts)

    def unlock(self, ctx: "RankCtx"):
        """``MPI_Win_unlock`` (epoch close: one more message home)."""
        port = self._require_held(ctx)
        if port.atomic_penalty:
            self._charge(port.atomic_penalty)
        yield port.unlock
        self._lock.release()
        if self._parked:
            self._wake_first()

    def crash_stop(self, victim: "Process") -> None:
        """Settle the parked pollers before ``victim`` crash-stops now.

        Realises every parked poll step due by the crash (the victim's
        included: it was polling until now), drops the victim's entry
        and wakes every other parked rank at its next step, so the polls
        after the crash run as real events — the lease-break branch of
        :meth:`lock` needs them when the victim holds the lock.  Call it
        *before* killing the victim.
        """
        parked = self._parked
        if not parked and not self._awake:
            return
        now = self.sim.now
        self._realise(now)
        # the victim may be parked, or woken but not yet resumed
        victim_gate = self._awake.pop(victim, None)
        entries = sorted(parked)
        parked.clear()
        for time, _order, gate in entries:
            if gate.process is victim:
                victim_gate = gate
            elif gate.process.alive:
                self._wake(gate, time)
        if (
            victim_gate is not None
            and not victim_gate.waiting
            and victim_gate.issued_at > now
        ):
            # the attempt issued ahead of time never happens
            victim.overhead_time = victim_gate.before_issue
            victim_gate.attempts -= 1
            if victim_gate.cost > 0.0:
                self.sim.n_events_processed -= 1

    @property
    def n_parked(self) -> int:
        """Live ranks currently parked on this window's lock."""
        return sum(1 for _, _, gate in self._parked if gate.process.alive)

    @property
    def name(self) -> str:
        """The window's lock name (``shmwin@node<key>``), for diagnostics."""
        return self._lock.name

    def _charge(self, penalty: float) -> None:
        """Add a non-zero locality penalty charged now to
        :attr:`total_penalty_s` (zero charges are skipped: exact no-ops).

        Parked pollers' attempt penalties are realised late, so the
        charge first realises every poll step due by now: the float sum
        then accrues in the same order as stepping each poll.
        """
        if self._parked:
            self._realise(self.sim.now)
        self.total_penalty_s += penalty

    def _wake(self, gate: _PollGate, time: float) -> None:
        """Resume a parked poller at its next (already counted) step."""
        self.sim.schedule_at(gate.process, time)
        self._awake[gate.process] = gate
        # the step's event was counted when it was realised; the real
        # resume counts it again
        self.sim.n_events_processed -= 1

    def _wake_first(self) -> None:
        """After a release: realise the polls due by now, then wake the
        pollers that may try first.

        The earliest entry is woken; an entry still in its poll wait
        only tries one attempt message later, so every entry due before
        the earliest try is woken too.  The rest stay parked: they fail
        against whoever acquires and are realised at its unlock.
        """
        sim = self.sim
        self._realise(sim.now)
        parked = self._parked
        first_try = _INF
        woken = 0
        while parked and parked[0][0] <= first_try:
            time, _order, gate = heapq.heappop(parked)
            process = gate.process
            if not process.alive:
                continue
            tries_at = time + gate.cost if gate.waiting else time
            if tries_at < first_try:
                first_try = tries_at
            # _wake, inlined: this runs at every contended unlock
            sim.schedule_at(process, time)
            self._awake[process] = gate
            woken += 1
        sim.n_events_processed -= woken

    def _realise(self, until: float) -> None:
        """Realise every parked poll step due by ``until``.

        Heap order is the per-window chronological order in which the
        per-poll loop stepped, so jitter draws, the window's sums and
        each rank's overhead accrue in exactly its order.  A landed
        attempt fails against the held lock and draws its poll wait; an
        ended wait issues the next attempt.  Each step counts the event
        the per-poll loop resumed for it: the end of the wait, and the
        attempt's landing when attempt messages take time (zero-length
        delays resume inline).
        """
        parked = self._parked
        poll = self.world.costs.mpi.shm_poll_interval
        jitter = self.jitter
        buf, idx = jitter._buf, jitter._idx
        replace = heapq.heapreplace
        poll_wait = self.total_poll_wait
        events = 0
        while parked:
            time, order, gate = parked[0]
            if time > until:
                break
            process = gate.process
            if not process.alive:
                heapq.heappop(parked)
                continue
            if gate.waiting:
                self.total_penalty_s += gate.penalty
            else:
                # the attempt failed: draw and charge the poll wait
                try:
                    wait = poll * buf[idx]
                except IndexError:
                    buf = jitter._refill()
                    idx = 0
                    wait = poll * buf[0]
                idx += 1
                poll_wait += wait
                process.overhead_time += wait
                events += 1
                time += wait
                if gate.penalty:
                    # a penalised issue must wait its turn in the
                    # window's penalty sum
                    gate.waiting = True
                    replace(parked, (time, order, gate))
                    continue
                if time > until:
                    # penalty-free issues touch only the poller, so
                    # one due later is made now; a crash before it is
                    # due takes it back (see crash_stop)
                    gate.before_issue = process.overhead_time
            # the wait ended: issue the next attempt
            cost = gate.cost
            process.overhead_time += cost
            gate.attempts += 1
            gate.waiting = False
            gate.issued_at = time
            if cost > 0.0:
                events += 1
            replace(parked, (time + cost, order, gate))
        jitter._idx = idx
        self.total_poll_wait = poll_wait
        self.sim.n_events_processed += events

    def sync(self, ctx: "RankCtx"):
        """``MPI_Win_sync`` memory barrier."""
        self.n_syncs += 1
        yield self._sync

    def _owner_is_dead(self) -> bool:
        """True when the lock is held by a crash-stopped rank."""
        owner = self._lock.owner
        if owner is None or not owner.startswith("rank"):
            return False
        try:
            rank = int(owner[4:])
        except ValueError:
            return False
        return not self.world.rank_alive(rank)

    def fail_over(self, new_home: int) -> None:
        """Re-home the window on ``new_home`` after its home rank died.

        Coordinator failover: the next live rank of the tier group
        adopts the window (re-first-touching its pages), so locality
        penalties are re-priced against the new home.  Instantaneous in
        simulated time — the recovery protocol's latency is charged by
        the fault injector, not here.
        """
        self.home_rank = new_home
        self._ports.clear()
        self.n_failovers += 1

    @property
    def locked(self) -> bool:
        return self._lock.locked

    def _require_held(self, ctx: "RankCtx") -> _Port:
        """The *calling rank* must own the exclusive lock; returns its port.

        Merely checking that the lock is held is not enough: rank A
        mutating the window while rank B holds the lock is exactly the
        data race ``MPI_Win_lock`` exists to prevent.
        """
        if self._lock.owner != ctx.owner:
            if not self._lock.locked:
                raise RuntimeError(
                    f"shared window on node {self.node} accessed without "
                    "holding MPI_Win_lock — this is a data race"
                )
            raise RuntimeError(
                f"shared window on node {self.node} accessed by {ctx.owner} "
                f"while {self._lock.owner} holds MPI_Win_lock — this is a "
                "data race"
            )
        return self._ports.get(ctx.rank) or self._port(ctx)

    # ------------------------------------------------------------------
    # data access (cheap, but must hold the lock)
    # ------------------------------------------------------------------
    def load(self, ctx: "RankCtx", cell: str):
        """Read one named cell (generator; requires the calling rank's lock)."""
        penalty = self._require_held(ctx).load_penalty
        self._check_cell(cell)
        if penalty:
            self._charge(penalty)
        yield Overhead(self.world.costs.mpi.shm_access + penalty)
        return self.cells[cell]

    def store(self, ctx: "RankCtx", cell: str, value: int):
        """Write one named cell (generator; requires the calling rank's lock)."""
        penalty = self._require_held(ctx).load_penalty
        self._check_cell(cell)
        if penalty:
            self._charge(penalty)
        yield Overhead(self.world.costs.mpi.shm_access + penalty)
        self.cells[cell] = value

    def access(self, ctx: "RankCtx", n: int = 1):
        """Charge ``n`` shared-memory accesses for :attr:`state` reads/writes.

        The structured queue contents live in :attr:`state` as Python
        objects; models mutate them directly but must account the
        touches through this method (and hold the lock).
        """
        port = self._require_held(ctx)
        penalty = port.load_penalty
        if penalty:
            self._charge(n * penalty)
        if n == 3:
            yield port.access3
        else:
            yield Overhead(n * (self.world.costs.mpi.shm_access + penalty))

    def atomic_fetch_add(self, ctx: "RankCtx", cell: str, value: int):
        """Lock-free shared atomic (``MPI_Fetch_and_op`` on the local
        window) — does *not* require holding the window lock."""
        self._check_cell(cell)
        penalty = self._port(ctx).atomic_penalty
        if penalty:
            self._charge(penalty)
        yield Overhead(self.world.costs.mpi.shm_atomic + penalty)
        old = self.cells[cell]
        self.cells[cell] = old + value
        return old

    def _check_cell(self, cell: str) -> None:
        if cell not in self.cells:
            raise KeyError(f"shared window has no cell {cell!r}")

    def peek(self, cell: str) -> int:
        """Zero-cost read for tests/assertions (not a simulated op)."""
        self._check_cell(cell)
        return self.cells[cell]

    # ------------------------------------------------------------------
    @property
    def mean_attempts_per_acquire(self) -> float:
        if self.n_acquisitions == 0:
            return 0.0
        return self.n_attempts / self.n_acquisitions

    def contention_stats(self) -> Dict[str, float]:
        """Lock-contention counters of this window (waits in seconds)."""
        return {
            "acquisitions": self.n_acquisitions,
            "attempts": self.n_attempts,
            "mean_attempts": self.mean_attempts_per_acquire,
            "max_attempts": self.max_attempts_per_acquire,
            "total_poll_wait": self.total_poll_wait,
            "syncs": self.n_syncs,
            "total_penalty_s": self.total_penalty_s,
        }
