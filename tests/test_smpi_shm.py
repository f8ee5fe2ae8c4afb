"""Tests for shared-memory windows with lock polling (local work queue)."""

import pytest

from repro.cluster.costs import CostModel, MpiCosts
from repro.cluster.machine import homogeneous
from repro.sim import Compute, ProcessFailure, Simulator, Timeout
from repro.sim.engine import DRAW_BATCH, BatchedDraws, drain
from repro.smpi import MpiWorld
from repro.smpi.shm import _poll_jitters


def make_world(n_nodes=1, cores=4, ppn=4, seed=0, costs=None):
    return MpiWorld(
        Simulator(seed=seed),
        homogeneous(n_nodes, cores),
        ppn=ppn,
        costs=costs or CostModel(),
    )


def test_lock_provides_mutual_exclusion():
    world = make_world()
    shm = world.create_shared_window(0, {"counter": 0})
    critical = []

    def main(ctx):
        for _ in range(5):
            yield from shm.lock(ctx)
            value = yield from shm.load(ctx, "counter")
            critical.append(("in", ctx.rank))
            yield Compute(1e-6)
            yield from shm.store(ctx, "counter", value + 1)
            critical.append(("out", ctx.rank))
            yield from shm.unlock(ctx)

    world.run(main)
    # no lost updates
    assert shm.peek("counter") == 20
    # strictly alternating in/out (no nesting = mutual exclusion)
    for i in range(0, len(critical), 2):
        assert critical[i][0] == "in"
        assert critical[i + 1][0] == "out"
        assert critical[i][1] == critical[i + 1][1]


def test_unlocked_access_raises_data_race():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.load(ctx, "c")
        else:
            yield Compute(0.0)

    with pytest.raises(ProcessFailure, match="data race"):
        world.run(main)


def test_store_requires_lock_too():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.store(ctx, "c", 1)
        else:
            yield Compute(0.0)

    with pytest.raises(ProcessFailure, match="data race"):
        world.run(main)


def test_access_requires_lock_ownership_not_just_held():
    """Rank B mutating the window while rank A holds the lock is a data
    race even though *a* lock is held — the ownership check must compare
    against the calling rank."""
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.lock(ctx)
            yield Compute(1e-3)  # hold the lock while rank 1 intrudes
            yield from shm.unlock(ctx)
        elif ctx.rank == 1:
            yield Compute(1e-4)  # let rank 0 acquire first
            assert shm.locked  # held — but not by us
            yield from shm.store(ctx, "c", 42)
        else:
            yield Compute(0.0)

    with pytest.raises(ProcessFailure, match="rank1 while rank0 holds"):
        world.run(main)


def test_unlock_requires_ownership():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.lock(ctx)
            yield Compute(1e-3)
            yield from shm.unlock(ctx)
        elif ctx.rank == 1:
            yield Compute(1e-4)
            yield from shm.unlock(ctx)  # not ours to release
        else:
            yield Compute(0.0)

    with pytest.raises(ProcessFailure, match="data race"):
        world.run(main)


def test_require_held_raises_both_errors():
    """The ownership check that gates access/unlock through the rank's
    port still tells an unheld lock from one held by another rank."""
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})
    rank0, rank1 = world.contexts[0], world.contexts[1]
    with pytest.raises(RuntimeError, match="without holding MPI_Win_lock"):
        shm._require_held(rank0)
    assert shm._lock.try_acquire(rank0.owner)
    assert shm._require_held(rank0) is shm._port(rank0)
    with pytest.raises(RuntimeError, match="by rank1 while rank0 holds"):
        shm._require_held(rank1)
    with pytest.raises(RuntimeError, match="by rank1 while rank0 holds"):
        next(shm.access(rank1, n=3))


def test_contention_inflates_poll_wait_and_attempts():
    """Under contention the polling model must show (a) retries and
    (b) nonzero poll wait — the root cause of the paper's X+SS result."""
    costs = CostModel().with_overrides(**{"mpi.shm_poll_interval": 50e-6})
    world = make_world(cores=8, ppn=8, costs=costs)
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        for _ in range(20):
            yield from shm.lock(ctx)
            value = yield from shm.load(ctx, "c")
            yield Compute(2e-6)  # hold the lock a while
            yield from shm.store(ctx, "c", value + 1)
            yield from shm.unlock(ctx)

    world.run(main)
    assert shm.peek("c") == 160
    stats = shm.contention_stats()
    assert stats["acquisitions"] == 160
    assert stats["attempts"] > stats["acquisitions"]  # retries happened
    assert stats["total_poll_wait"] > 0.0
    assert stats["max_attempts"] >= 2


def test_uncontended_lock_is_cheap():
    world = make_world(cores=1, ppn=1)
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        for _ in range(10):
            yield from shm.lock(ctx)
            yield from shm.unlock(ctx)

    world.run(main)
    stats = shm.contention_stats()
    assert stats["attempts"] == stats["acquisitions"] == 10
    assert stats["total_poll_wait"] == 0.0


def test_poll_interval_scales_contention_cost():
    """Doubling the polling interval should slow a contended run."""
    times = {}
    for label, interval in (("short", 10e-6), ("long", 200e-6)):
        costs = CostModel().with_overrides(**{"mpi.shm_poll_interval": interval})
        world = make_world(cores=8, ppn=8, seed=1, costs=costs)
        shm = world.create_shared_window(0, {"c": 0})

        def main(ctx):
            for _ in range(10):
                yield from shm.lock(ctx)
                yield Compute(2e-6)
                yield from shm.unlock(ctx)

        world.run(main)
        times[label] = world.sim.now
    assert times["long"] > times["short"]


def test_win_sync_charges_cost_and_counts():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        if ctx.rank == 0:
            yield from shm.sync(ctx)
        else:
            yield Compute(0.0)

    procs = world.run(main)
    assert shm.n_syncs == 1
    assert procs[0].overhead_time == pytest.approx(world.costs.mpi.shm_win_sync)


def test_atomic_fetch_add_without_lock():
    world = make_world()
    shm = world.create_shared_window(0, {"step": 0})
    olds = []

    def main(ctx):
        old = yield from shm.atomic_fetch_add(ctx, "step", 1)
        olds.append(old)

    world.run(main)
    assert sorted(olds) == [0, 1, 2, 3]
    assert shm.peek("step") == 4


def test_state_dict_with_access_charging():
    world = make_world()
    shm = world.create_shared_window(0, {"n_ranges": 0})
    shm.state["queue"] = []

    def main(ctx):
        yield from shm.lock(ctx)
        yield from shm.access(ctx, n=2)
        shm.state["queue"].append((ctx.rank, ctx.rank + 10))
        yield from shm.store(ctx, "n_ranges", len(shm.state["queue"]))
        yield from shm.unlock(ctx)

    world.run(main)
    assert len(shm.state["queue"]) == 4
    assert shm.peek("n_ranges") == 4


def test_one_shared_window_per_node():
    world = make_world()
    world.create_shared_window(0, {"a": 0})
    with pytest.raises(RuntimeError, match="already exists"):
        world.create_shared_window(0, {"b": 0})


def test_lock_polling_is_deterministic_given_seed():
    def run(seed):
        costs = CostModel().with_overrides(**{"mpi.shm_poll_interval": 50e-6})
        world = make_world(cores=8, ppn=8, seed=seed, costs=costs)
        shm = world.create_shared_window(0, {"c": 0})

        def main(ctx):
            for _ in range(10):
                yield from shm.lock(ctx)
                yield Compute(1e-6)
                yield from shm.unlock(ctx)

        world.run(main)
        return world.sim.now

    assert run(3) == run(3)
    assert run(3) != run(4)  # different jitter draws


# ----------------------------------------------------------------------
# parked lock pollers
# ----------------------------------------------------------------------


def test_schedule_at_resumes_at_the_exact_absolute_time():
    """``schedule_at`` lands on ``time`` itself, not ``now + (time - now)``."""
    sim = Simulator()
    now, time = 0.3, 0.9
    assert now + (time - now) != time  # the rounding schedule_at avoids
    gate = sim.event("gate")
    resumed = []

    def sleeper():
        yield gate  # never triggered: only schedule_at resumes it
        resumed.append(sim.now)

    def waker(process):
        yield Timeout(now)
        sim.schedule_at(process, time)
        with pytest.raises(ValueError, match="before now"):
            sim.schedule_at(process, now / 2)

    process = sim.spawn(sleeper())
    sim.spawn(waker(process))
    sim.run()
    assert resumed == [time]


def _poll_reference(world, n_ranks, hold, kill=None, home=0):
    """Replay the lock protocol of ``_hold_then_release`` poll by poll.

    A plain event loop that steps every failed poll as its own event,
    ordered by (time, push order) like the engine, and draws the poll
    jitter from the window's named stream of a fresh simulator with the
    same seed.  Attempts and unlocks pay each rank's locality penalty
    towards the window's ``home`` rank.  ``kill=(rank, time)``
    crash-stops one rank at ``time``.  Returns (per-rank overhead,
    attempts, total poll wait, total penalty).
    """
    import heapq

    mpi = world.costs.mpi
    jitter = Simulator(seed=world.sim.seed).rng("shm-lockpoll.node0")
    penalty = [world.interconnect.atomic_penalty(r, home) for r in range(n_ranks)]
    overhead = [0.0] * n_ranks
    attempts = [0] * n_ranks
    poll_wait = penalty_sum = 0.0
    heap, seq = [], 0
    holder = None

    def push(time, kind, rank):
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, rank))
        seq += 1

    def issue(now, rank):
        nonlocal penalty_sum
        cost = mpi.shm_lock_attempt + penalty[rank]
        overhead[rank] += cost
        attempts[rank] += 1
        penalty_sum += penalty[rank]
        push(now + cost, "land", rank)

    def unlock(now, rank):
        nonlocal penalty_sum
        cost = mpi.shm_unlock + penalty[rank]
        overhead[rank] += cost
        penalty_sum += penalty[rank]
        push(now + cost, "release", rank)

    for rank in range(n_ranks):  # everyone issues a first attempt at t=0
        issue(0.0, rank)
    if kill is not None:
        push(kill[1], "kill", kill[0])
    dead = set()
    while heap:
        now, _, kind, rank = heapq.heappop(heap)
        if rank in dead:
            continue
        if kind == "kill":
            dead.add(rank)
        elif kind == "land" and holder is None:
            holder = rank
            if rank == 0:
                push(now + hold, "unlock", rank)
            else:
                unlock(now, rank)
        elif kind == "land":
            wait = mpi.shm_poll_interval * float(jitter.uniform(0.5, 1.5))
            poll_wait += wait
            overhead[rank] += wait
            push(now + wait, "issue", rank)
        elif kind == "issue":
            issue(now, rank)
        elif kind == "unlock":
            unlock(now, rank)
        else:  # release
            holder = None
    return overhead, attempts, poll_wait, penalty_sum


def _hold_then_release(shm, hold):
    """Rank 0 holds the lock for ``hold`` seconds; the rest take it once."""

    def main(ctx):
        yield from shm.lock(ctx)
        if ctx.rank == 0:
            yield Compute(hold)
        yield from shm.unlock(ctx)

    return main


def test_parked_waiters_match_a_poll_by_poll_replay():
    """N ranks parked under a long critical section: attempt counts,
    poll wait and every rank's overhead equal a per-poll replay of the
    window's jitter stream, bit for bit."""
    n_ranks, hold = 8, 2e-3  # ~33 polls per waiter before the release
    world = make_world(cores=n_ranks, ppn=n_ranks, seed=5)
    shm = world.create_shared_window(0, {"c": 0})
    processes = world.run(_hold_then_release(shm, hold))
    overhead, attempts, poll_wait, _ = _poll_reference(world, n_ranks, hold)
    assert shm.n_attempts == sum(attempts) > 30 * (n_ranks - 1)
    assert shm.max_attempts_per_acquire == max(attempts)
    assert shm.total_poll_wait == poll_wait
    assert [p.overhead_time for p in processes] == overhead


@pytest.mark.parametrize("seed", range(4))
def test_penalised_parked_waiters_match_a_poll_by_poll_replay(seed):
    """Locality penalties on a two-socket, four-domain node: attempt
    messages across sockets cost a third of a poll interval, so after a
    release a poller still in its wait can be overtaken by one already
    in flight.  The window lives on the far socket from the long holder,
    so three distinct penalties — the pollers' and the holder's unlock —
    interleave in the window's penalty sum."""
    n_ranks, hold = 8, 0.6e-3
    costs = CostModel().with_overrides(
        **{"mpi.cross_socket_penalty": 23.1e-6, "mpi.remote_numa_atomic_penalty": 3.3e-6}
    )
    world = MpiWorld(
        Simulator(seed=seed),
        homogeneous(1, n_ranks, sockets_per_node=2, numa_per_socket=2),
        ppn=n_ranks,
        costs=costs,
    )
    home = n_ranks - 1
    shm = world.create_shared_window(0, {"c": 0}, home_rank=home)
    processes = world.run(_hold_then_release(shm, hold))
    overhead, attempts, poll_wait, penalty_sum = _poll_reference(
        world, n_ranks, hold, home=home
    )
    assert shm.n_attempts == sum(attempts)
    assert shm.total_poll_wait == poll_wait
    assert shm.total_penalty_s == penalty_sum > 0.0
    assert [p.overhead_time for p in processes] == overhead


def test_killed_parked_waiter_draws_no_jitter_after_its_death():
    n_ranks, hold, victim, when = 6, 2e-3, 3, 0.7e-3
    world = make_world(cores=n_ranks, ppn=n_ranks, seed=2)
    shm = world.create_shared_window(0, {"c": 0})
    processes = world.launch(_hold_then_release(shm, hold))

    def crash():
        yield Timeout(when)
        shm.crash_stop(processes[victim])
        world.sim.kill(processes[victim])

    world.sim.spawn(crash())
    drain(world.sim, processes)
    overhead, _, poll_wait, _ = _poll_reference(
        world, n_ranks, hold, kill=(victim, when)
    )
    assert shm.total_poll_wait == poll_wait
    assert [p.overhead_time for p in processes] == overhead
    # the kill matters: without it the victim keeps polling
    no_kill_overhead, _, no_kill_poll_wait, _ = _poll_reference(world, n_ranks, hold)
    assert poll_wait < no_kill_poll_wait
    assert overhead[victim] < no_kill_overhead[victim]


def test_drain_names_a_window_never_released_and_its_parked_ranks():
    world = make_world()
    shm = world.create_shared_window(0, {"c": 0})

    def main(ctx):
        yield from shm.lock(ctx)  # rank 0 returns still holding it

    with pytest.raises(RuntimeError) as info:
        world.run(main)
    message = str(info.value)
    assert "3 processes still alive" in message
    assert "shmwin@node0 still has 3 rank(s) parked" in message


def test_batched_jitter_equals_sequential_scalar_draws():
    """Block draws are bit-identical to one-at-a-time draws and leave
    the generator in the same state (across a block boundary)."""
    batched = BatchedDraws(Simulator(seed=9).rng("s"), _poll_jitters)
    scalar = Simulator(seed=9).rng("s")
    values = batched._refill() + batched._refill()
    assert len(values) == 2 * DRAW_BATCH
    assert values == [float(scalar.uniform(0.5, 1.5)) for _ in values]
    assert batched._rng.uniform(0.5, 1.5) == scalar.uniform(0.5, 1.5)


@pytest.mark.parametrize("interval", [0.0, -1e-6])
def test_non_positive_poll_interval_is_rejected(interval):
    with pytest.raises(ValueError, match="shm_poll_interval must be > 0"):
        CostModel().with_overrides(**{"mpi.shm_poll_interval": interval})
    with pytest.raises(ValueError, match="shm_poll_interval must be > 0"):
        MpiCosts(shm_poll_interval=interval)
