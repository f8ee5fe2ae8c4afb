"""The four benchmark workloads.

Every workload builds its inputs from the run's seed in :meth:`setup`,
runs timed *units* in :meth:`measure`, checks the program's outputs in
:meth:`check` and reports per-unit layer counts for the traced run.
All calls into the simulator go through public entry points:
``run_hierarchical``, ``run_figure``, ``GridRunner.sweep``,
``create_server`` plus HTTP, and (for probes and checks) ``MpiWorld``,
``get_technique``, ``cell_key``/``workload_fingerprint``, ``CellCache``
and ``simulate_cell``.

A unit is the repeatable piece of work one timed phase is made of:

* ``contended-2k`` / ``cohort-10k``: one simulated cell;
* ``figure-sweep``: one round of five grid sweeps;
* ``service-mix``: one block of three request phases from both clients.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing
import os
import random
import resource
import statistics
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import probes
from tracing import Spans


class Ledger:
    """Calls and checks attempted, and those that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def expect(self, condition: bool, problem: str) -> None:
        self.ok() if condition else self.fail(problem)


def rss_mb() -> float:
    """Peak resident set (MB) of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def more_units(elapsed: float, walls: List[float], seconds: float) -> bool:
    """Whether another unit ends nearer to ``seconds`` than stopping now."""
    return not walls or elapsed + statistics.median(walls) / 2 < seconds


def drive(run_unit: Callable[[], None], seconds: float) -> Tuple[float, List[float]]:
    """Run whole units for about ``seconds`` (see :func:`more_units`).

    At least one unit always runs.  Returns the phase's elapsed time and
    the wall time of each unit.
    """
    start = time.perf_counter()
    walls: List[float] = []
    while True:
        unit_start = time.perf_counter()
        run_unit()
        walls.append(time.perf_counter() - unit_start)
        elapsed = time.perf_counter() - start
        if not more_units(elapsed, walls, seconds):
            return elapsed, walls


class Scenario:
    """Base class: one workload's inputs, timed units and checks."""

    name = ""
    #: what one timed unit is (see the module docstring)
    unit = ""

    def __init__(self, seed: int, spans: Spans, work_dir: str):
        self.seed = seed
        self.spans = spans
        self.work_dir = work_dir
        self.ledger = Ledger()
        #: one dict per finished unit: ``phase``, ``wall`` and counts
        self.units: List[dict] = []
        self._first_unit_rss_mb: Optional[float] = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, phase: str) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, phase: str) -> Tuple[float, List[float]]:
        """Timed phase: units for about ``seconds``; (elapsed, unit walls)."""

        def unit() -> None:
            self.run_unit(phase)
            if self._first_unit_rss_mb is None:
                self._first_unit_rss_mb = rss_mb()

        return drive(unit, seconds)

    def peak_rss_mb(self) -> float:
        """Peak resident memory (MB) of the process that simulates.

        Read when the first unit ends: the allocator's later growth
        depends on how many units fit in the run, not on the workload.
        """
        return self._first_unit_rss_mb

    def check(self) -> None:
        """Correctness checks on everything the timed phases produced."""

    def end_to_end(self, phase: str) -> dict:
        """One phase's ``cell_walls`` and ``latencies`` (s), and ``rates``:
        cells delivered per second in each unit."""
        raise NotImplementedError

    def layer_counts(self) -> Dict[str, float]:
        """Per-unit layer counters and rates (see ``run.PER_LAYER``).

        Read from the untraced reference phase of a traced run: counts
        do not depend on tracing, and rates and latencies must not
        carry the profiler's overhead.
        """
        return {}

    def probe(self) -> Dict[str, float]:
        """Outside-in probe metrics for this workload's shapes."""
        return {}

    def close(self) -> None:
        """Stop servers and pools (idempotent); the caller removes ``work_dir``."""

    def _units(self, phase: str) -> List[dict]:
        return [unit for unit in self.units if unit["phase"] == phase]


# ---------------------------------------------------------------------------
# contended-2k / cohort-10k: one large deterministic mpi+mpi SS+GSS cell
# ---------------------------------------------------------------------------
class ContendedCell(Scenario):
    """One deterministic mpi+mpi ``SS+GSS`` cell, repeated.

    ``uniform_workload(20000, 5e-5, 2e-3, seed)`` on ``homogeneous(nodes,
    64)`` without noise.  Repeats of the same cell must agree exactly.
    """

    unit = "cell"
    N_ITERATIONS = 20000
    PPN = 64
    INTER, INTRA = "SS", "GSS"

    def __init__(self, seed, spans, work_dir, name: str, nodes: int, engine: str):
        super().__init__(seed, spans, work_dir)
        self.name = name
        self.nodes = nodes
        self.engine = engine
        self.first_result = None

    def _build_inputs(self):
        from repro.cluster.machine import homogeneous
        from repro.workloads import uniform_workload

        workload = uniform_workload(self.N_ITERATIONS, 5e-5, 2e-3, seed=self.seed)
        return workload, homogeneous(self.nodes, self.PPN)

    def setup(self) -> None:
        from repro.api import run_hierarchical
        from repro.cluster.noise import NO_NOISE

        self.workload, self.cluster = self._build_inputs()
        self._run = run_hierarchical
        self._noise = NO_NOISE

    def run_unit(self, phase: str) -> None:
        with self.spans.span("run_hierarchical", phase=phase, engine=self.engine) as span:
            try:
                result = self._run(
                    self.workload, self.cluster, inter=self.INTER,
                    intra=self.INTRA, approach="mpi+mpi", ppn=self.PPN,
                    seed=self.seed, noise=self._noise, collect_chunks=False,
                    engine=self.engine,
                )
            except Exception as error:  # a scheduling bug raises here
                result, problem = None, f"{type(error).__name__}: {error}"
        wall = span["end"] - span["start"]
        if result is None:
            self.ledger.fail(f"{self.name} cell: {problem}")
            self.units.append({"phase": phase, "wall": wall, "digest": None})
            return
        self.ledger.ok()
        if self.first_result is None:
            self.first_result = result
        counters = result.counters
        # only counts and a digest are kept per unit: holding every
        # RunResult would grow memory with the number of units
        finish = " ".join(float(w.finish_time).hex() for w in result.metrics.workers)
        self.units.append({
            "phase": phase,
            "wall": wall,
            "events": result.n_events,
            "parallel_time": result.parallel_time,
            "lock_attempts": sum(s["attempts"] for s in counters["lock_stats"].values()),
            "lock_acquisitions": counters["lock_acquisitions"],
            "poll_wait": counters["total_poll_wait"],
            "global_atomics": counters["global_atomics"],
            "digest": hashlib.sha256(
                f"{result.parallel_time.hex()} {float(counters['total_poll_wait']).hex()} "
                f"{finish}".encode()).hexdigest(),
        })

    def _done(self, phase: Optional[str] = None) -> List[dict]:
        """Units whose cell ran, of one phase or of all."""
        return [u for u in (self._units(phase) if phase else self.units)
                if u["digest"] is not None]

    def check(self) -> None:
        done = self._done()
        if not done:
            return
        keys = ("digest", "events", "lock_attempts", "lock_acquisitions", "global_atomics")
        for unit in done[1:]:
            self.ledger.expect(
                all(unit[k] == done[0][k] for k in keys),
                f"{self.name}: a repeat of the same seeded cell gave a different result",
            )
        # the makespan can beat neither the perfectly balanced share of
        # the work nor the single most expensive iteration
        costs = self.workload.costs
        ranks = self.nodes * self.PPN
        lower = max(float(costs.sum()) / ranks, float(costs.max()))
        self.ledger.expect(
            done[0]["parallel_time"] >= lower * (1 - 1e-12),
            f"{self.name}: parallel_time {done[0]['parallel_time']} below the "
            f"lower bound {lower}",
        )
        self.ledger.expect(
            done[0]["lock_acquisitions"] > 0 and done[0]["global_atomics"] > 0,
            f"{self.name}: an mpi+mpi run reported no lock acquisitions or atomics",
        )

    def end_to_end(self, phase: str) -> dict:
        walls = [unit["wall"] for unit in self._units(phase)]
        return {"cell_walls": walls, "latencies": walls, "rates": [1 / w for w in walls]}

    def layer_counts(self) -> Dict[str, float]:
        done = self._done("ref")
        if not done:
            return {}
        mean = lambda key: statistics.fmean(u[key] for u in done)  # noqa: E731
        attempts, acquisitions = mean("lock_attempts"), mean("lock_acquisitions")
        events_key = "cohorts.macro_events" if self.engine == "cohort" else "engine.events"
        return {
            events_key: mean("events"),
            "smpi.lock_attempts": attempts,
            "smpi.lock_acquisitions": acquisitions,
            "smpi.lock_success_ratio": acquisitions / attempts if attempts else 0.0,
            "smpi.poll_wait_sim_s": mean("poll_wait"),
            "smpi.global_atomics": mean("global_atomics"),
            "sim.parallel_time_s": mean("parallel_time"),
            "engine.events_per_s": (
                0.0 if self.engine == "cohort"
                else sum(u["events"] for u in done) / sum(u["wall"] for u in done)
            ),
        }

    def probe(self) -> Dict[str, float]:
        from repro.experiments import Cell

        metrics = {
            "cluster.world_build_s": probes.world_build_s(self.cluster, self.PPN),
            "core.unroll_cold_s": probes.unroll_cold_s([
                (self.INTER, self.N_ITERATIONS, self.nodes),
                (self.INTRA, self.N_ITERATIONS, self.PPN),
            ]),
            "experiments.cell_key_ms": probes.cell_key_ms(
                self.workload, self.cluster, "mpi+mpi", self.INTER, self.INTRA,
                self.nodes, self.PPN, self.seed,
            ),
            "workloads.build_s": probes.median_seconds(self._build_inputs),
        }
        done = self._done()
        if done:
            result = self.first_result
            cell = Cell(
                approach="mpi+mpi", inter=self.INTER, intra=self.INTRA,
                nodes=self.nodes, time=result.parallel_time,
                overhead_fraction=result.metrics.overhead_fraction,
                idle_fraction=result.metrics.idle_fraction,
                cov=result.metrics.cov_finish, n_events=result.n_events,
                wall_seconds=done[0]["wall"],
            )
            root = tempfile.mkdtemp(prefix="cache-probe-", dir=self.work_dir)
            metrics["cache.put_ms"], metrics["cache.get_ms"] = probes.cache_ms(cell, root)
        return metrics


# ---------------------------------------------------------------------------
# figure-sweep: the paper's figure grids plus NUMA, dCC and faulted grids
# ---------------------------------------------------------------------------
#: ``GridRunner.sweep`` approaches: mpi+mpi for every intra stack
MPI_MPI_ONLY = [("mpi+mpi", lambda intra: True)]


class FigureSweep(Scenario):
    """``GridRunner`` breadth: many small cells, one process, no cache.

    A round is ``run_figure("fig5a")`` and ``run_figure("fig7b")`` at
    ``quick`` scale (default mild noise, so the scalar engine), then a
    depth-4 NUMA grid, a dCC grid and a grid with seeded crash faults on
    cost vectors drawn from the seed.
    """

    name = "figure-sweep"
    unit = "round"
    SCALE = "quick"
    FIGURES = ("fig5a", "fig7b")
    SYNTHETIC_N = 8192
    N_CRASHES = 2

    def _build_inputs(self):
        from repro.cluster.faults import FaultModel
        from repro.experiments.workloads import clear_cache, figure_workload
        from repro.workloads import bimodal_workload, uniform_workload

        clear_cache()
        figures = [figure_workload(app, self.SCALE) for app in ("mandelbrot", "psia")]
        numa = bimodal_workload(self.SYNTHETIC_N, 2e-5, 4e-4, 0.15, seed=self.seed)
        flat = uniform_workload(self.SYNTHETIC_N, 2e-5, 1e-4, seed=self.seed)
        faults = FaultModel.random_crashes(
            self.N_CRASHES, 4, 8, (1e-3, 4e-3), seed=self.seed,
        )
        return figures, numa, flat, faults

    def setup(self) -> None:
        from repro.cluster.machine import minihpc
        from repro.experiments import GridRunner, run_figure

        _figures, self.numa_wl, self.flat_wl, self.faults = self._build_inputs()
        self._run_figure = run_figure
        self._minihpc = minihpc
        self._grid_runner = GridRunner

    def _grids(self) -> List[Tuple[str, Callable[[], object]]]:
        """The round's five grid calls, each returning ``(cells, checks)``."""
        seed, minihpc, GridRunner = self.seed, self._minihpc, self._grid_runner

        def figure(figure_id: str):
            result = self._run_figure(figure_id, scale=self.SCALE, seed=seed)
            return result.cells, [(c.passed, f"{figure_id} shape check failed: "
                                   f"{c.description} {c.detail}") for c in result.checks]

        def numa():
            runner = GridRunner(
                workload=self.numa_wl, ppn=8, node_counts=(2, 4), seed=seed,
                cluster_factory=lambda n: minihpc(n, 8, sockets_per_node=2,
                                                  numa_per_socket=2),
            )
            return runner.sweep("GSS", ["FAC2+FAC2+STATIC", "FAC2+FAC2+SS"],
                                MPI_MPI_ONLY), []

        def dcc():
            runner = GridRunner(workload=self.flat_wl, ppn=16, node_counts=(2, 4),
                                seed=seed, dcc=True)
            return runner.sweep("GSS", ["SS", "FAC2"], MPI_MPI_ONLY), []

        def faulted():
            runner = GridRunner(workload=self.flat_wl, ppn=8, node_counts=(4,),
                                seed=seed, faults=self.faults)
            cells = runner.sweep("FAC2", ["SS", "GSS"], MPI_MPI_ONLY)
            return cells, [(c.n_failures == self.N_CRASHES,
                            f"faulted grid: {c.label} saw {c.n_failures} of "
                            f"{self.N_CRASHES} injected crashes") for c in cells]

        grids = [(fid, lambda fid=fid: figure(fid)) for fid in self.FIGURES]
        return grids + [("numa-depth4", numa), ("dcc", dcc), ("faulted", faulted)]

    def run_unit(self, phase: str) -> None:
        start = time.perf_counter()
        round_cells: Dict[str, list] = {}
        for grid_id, call in self._grids():
            with self.spans.span("sweep", phase=phase, grid=grid_id):
                try:
                    cells, checks = call()
                except Exception as error:  # verify=True raises on lost iterations
                    cells, checks = None, [(False, f"{grid_id}: {type(error).__name__}: {error}")]
            failures = [problem for passed, problem in checks if not passed]
            if cells is not None and not failures:
                self.ledger.ok()
            else:
                self.ledger.fail("; ".join(failures))
            round_cells[grid_id] = cells or []
        self.units.append({"phase": phase, "cells": round_cells,
                           "wall": time.perf_counter() - start})

    def check(self) -> None:
        # every round re-runs the same seeded grids: results must repeat
        first = self.units[0]["cells"] if self.units else {}
        for unit in self.units[1:]:
            for grid_id, cells in unit["cells"].items():
                same = len(cells) == len(first.get(grid_id, [])) and all(
                    a.same_result(b) for a, b in zip(cells, first[grid_id])
                )
                self.ledger.expect(same, f"{grid_id}: a repeated round gave different cells")

    def _cells(self, phase: str) -> list:
        return [cell for unit in self._units(phase)
                for cells in unit["cells"].values() for cell in cells]

    def end_to_end(self, phase: str) -> dict:
        cells = self._cells(phase)
        return {
            "cell_walls": [cell.wall_seconds for cell in cells],
            # a request is one round, regenerating every grid.  Per cell,
            # p90 falls on the gap below the largest figure cells; per
            # sweep call, p50 is the time of one small seeded grid
            "latencies": [unit["wall"] for unit in self._units(phase)],
            "rates": [sum(map(len, unit["cells"].values())) / unit["wall"]
                      for unit in self._units(phase)],
        }

    def layer_counts(self) -> Dict[str, float]:
        units = self._units("ref")
        cells = self._cells("ref")
        if not units or not cells:
            return {}
        events = sum(cell.n_events for cell in cells)
        return {
            "engine.events": events / len(units),
            "engine.events_per_s": events / sum(cell.wall_seconds for cell in cells),
            "sim.parallel_time_s": sum(cell.time for cell in cells) / len(units),
        }

    def probe(self) -> Dict[str, float]:
        from repro.core.techniques import PAPER_TECHNIQUES
        from repro.experiments.workloads import figure_workload

        workload = figure_workload("mandelbrot", self.SCALE)
        largest = self._minihpc(16, 16)
        cells = self._cells("ref") or self._cells("traced")
        metrics = {
            "cluster.world_build_s": probes.world_build_s(largest, 16),
            "core.unroll_cold_s": probes.unroll_cold_s(
                [(t, workload.n, 16) for t in PAPER_TECHNIQUES]
            ),
            "experiments.cell_key_ms": probes.cell_key_ms(
                workload, largest, "mpi+mpi", "GSS", "SS", 16, 16, self.seed,
            ),
            "workloads.build_s": probes.median_seconds(self._build_inputs, repeats=3),
        }
        if cells:
            root = tempfile.mkdtemp(prefix="cache-probe-", dir=self.work_dir)
            metrics["cache.put_ms"], metrics["cache.get_ms"] = probes.cache_ms(cells[0], root)
        return metrics


# ---------------------------------------------------------------------------
# service-mix: two closed-loop clients against an in-process SweepServer
# ---------------------------------------------------------------------------
#: the request shapes of ``benchmarks/bench_service.py``, the repository's
#: own service load generator: a core grid every client shares, plus one
#: private technique column per client in its overlapping phase
CORE_INTRAS = ("STATIC", "SS", "GSS", "FAC2")
PRIVATE_INTRAS = ("TSS", "mFSC", "FISS", "VISS", "TFSS", "GSS+STATIC")
#: one block: the three phases of ``bench_service.py``, in its order
PHASES = ("dup", "warm", "cold")


class ServiceMix(Scenario):
    """``bench_service.py``'s three phases, repeated by two closed-loop clients.

    A block runs the phases of the repository's service load generator
    on a fresh simulation seed, each phase released to both clients at
    once by a barrier:

    * ``dup`` (its ``cold_identical``): both clients post the same core
      grid; each cell simulates once and the other poster attaches;
    * ``warm`` (``warm_identical``): the same grid again, all cache reads;
    * ``cold`` (``cold_overlapping``): the core grid plus a private
      technique column per client; the core is read from the cache, the
      private column simulates and is written to it.
    """

    name = "service-mix"
    unit = "block"
    CLIENTS = 2
    #: pool workers (at most two, one per core of a 2-core box)
    JOBS = min(2, os.cpu_count() or 1)
    SAMPLED_CELLS = 2
    TIMEOUT_S = 120.0

    def __init__(self, seed, spans, work_dir):
        super().__init__(seed, spans, work_dir)
        self.server = None
        self.thread = None
        #: one dict per request: phase, block, kind, spec, status and
        #: body (the NDJSON bytes, or the error text when status is None)
        self.responses: List[dict] = []
        self.blocks_started = 0
        #: the server's ``GET /metrics`` document, read by check()
        self.final_metrics: dict = {}
        rng = random.Random(self.seed)
        #: pre-warm simulates on this seed, block ``b`` on ``+ 1 + b``
        self.seed_base = rng.randrange(2 ** 30)
        #: private columns in a seeded order; each run of three blocks
        #: sends every one once, so every seed asks for the same work
        self.private = rng.sample(PRIVATE_INTRAS, len(PRIVATE_INTRAS))

    # -- inputs -------------------------------------------------------------
    @staticmethod
    def _spec(intras: List[str], sim_seed: int) -> dict:
        """A ``bench_service.py`` sweep payload."""
        return {
            "workload": {"app": "mandelbrot", "scale": "tiny"},
            "cluster": {"ppn": 4},
            "inter": "GSS",
            "intras": intras,
            "approaches": ["mpi+mpi"],
            "node_counts": [2, 4],
            "seed": sim_seed,
        }

    def _request(self, kind: str, block: int, client: int) -> dict:
        """What ``client`` posts in phase ``kind`` of ``block``."""
        core = list(CORE_INTRAS)
        sim_seed = self.seed_base + 1 + block
        if kind != "cold":
            return self._spec(core, sim_seed)
        column = self.private[(block * self.CLIENTS + client) % len(self.private)]
        return self._spec(core + [column], sim_seed)

    # -- HTTP ---------------------------------------------------------------
    def _post(self, spec: dict) -> Tuple[Optional[int], object]:
        """POST one sweep; (status, NDJSON body bytes) or (None, error text)."""
        host, port = self.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=self.TIMEOUT_S)
        try:
            connection.request("POST", "/sweep", json.dumps(spec),
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            return None, f"{type(error).__name__}: {error}"
        finally:
            connection.close()

    def _get(self, path: str) -> dict:
        host, port = self.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=self.TIMEOUT_S)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def setup(self) -> None:
        from repro.service import create_server

        self.cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=self.work_dir)
        self.server = create_server(
            port=0, jobs=self.JOBS, cache_dir=self.cache_dir,
            quiet=True,
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="sweep-server", daemon=True,
        )
        self.thread.start()
        # starts the pool workers, so the first block does not pay for it
        spec = self._spec(list(CORE_INTRAS), self.seed_base)
        status, body = self._post(spec)
        self.responses.append({"phase": "setup", "block": None, "kind": "prewarm",
                               "spec": spec, "status": status, "body": body})
        if status != 200:
            raise RuntimeError(f"pre-warm request failed: {status} {body!r}")

    # -- timed phase --------------------------------------------------------
    def measure(self, seconds: float, phase: str) -> Tuple[float, List[float]]:
        start = time.perf_counter()
        marks: List[float] = []
        state = {"go": True, "block": 0}

        def next_block() -> None:  # barrier action: runs once per block
            now = time.perf_counter()
            marks.append(now)
            walls = [b - a for a, b in zip(marks, marks[1:])]
            state["go"] = more_units(now - start, walls, seconds)
            state["block"] = self.blocks_started
            self.blocks_started += state["go"]

        barrier = threading.Barrier(self.CLIENTS, action=next_block, timeout=self.TIMEOUT_S)
        in_block = threading.Barrier(self.CLIENTS, timeout=self.TIMEOUT_S)
        errors: List[str] = []

        def client(index: int) -> None:
            try:
                while True:
                    barrier.wait()
                    if not state["go"]:
                        return
                    block = state["block"]
                    for kind in PHASES:
                        if kind != PHASES[0]:
                            in_block.wait()
                        spec = self._request(kind, block, index)
                        with self.spans.span("request", phase=phase, kind=kind):
                            status, body = self._post(spec)
                        self.responses.append({"phase": phase, "block": block, "kind": kind,
                                               "spec": spec, "status": status, "body": body})
            except threading.BrokenBarrierError:
                errors.append(f"client {index}: barrier broken")
            except BaseException as error:
                errors.append(f"client {index}: {type(error).__name__}: {error}")
                barrier.abort()
                in_block.abort()
                raise

        clients = [threading.Thread(target=client, args=(i,), name=f"client-{i}")
                   for i in range(self.CLIENTS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(self.TIMEOUT_S + seconds)
            if thread.is_alive():
                errors.append(f"{thread.name} did not finish")
        for problem in errors:
            self.ledger.fail(f"service client: {problem}")
        walls = [b - a for a, b in zip(marks, marks[1:])]
        first_block = self.blocks_started - len(walls)
        for offset, wall in enumerate(walls):
            self.units.append({"phase": phase, "wall": wall, "block": first_block + offset})
        return (marks[-1] if marks else time.perf_counter()) - start, walls

    # -- checks -------------------------------------------------------------
    def _parse(self, status, body, expected: int) -> Tuple[Optional[list], Optional[str]]:
        if status != 200:
            return None, f"HTTP {status}: {body!r}"[:300]
        try:
            lines = [json.loads(line) for line in body.splitlines()]
        except ValueError as error:
            return None, f"unparseable NDJSON: {error}"
        if not lines or not lines[-1].get("done"):
            return None, "stream ended without a done trailer"
        trailer, cells = lines[-1], lines[:-1]
        if trailer.get("errors") or any("error" in line for line in cells):
            return None, "error line: " + next(
                (line["error"] for line in cells if "error" in line), "trailer counts errors")
        if trailer.get("cells") != expected or sorted(l["index"] for l in cells) != list(range(expected)):
            return None, f"expected {expected} cells, got {len(cells)}"
        return cells, None

    def _expected_keys(self, spec: dict) -> List[Tuple[str, tuple]]:
        """``(cell_key, grid coordinates)`` per index, in the service's order."""
        from repro.cluster.machine import minihpc
        from repro.experiments.parallel import cell_key, workload_fingerprint
        from repro.experiments.workloads import figure_workload

        fingerprint = workload_fingerprint(
            figure_workload(spec["workload"]["app"], spec["workload"]["scale"]))
        ppn = spec["cluster"]["ppn"]
        out = []
        for approach in spec["approaches"]:
            for intra in spec["intras"]:
                for nodes in spec["node_counts"]:
                    coords = (approach, spec["inter"], intra, nodes)
                    out.append((cell_key(fingerprint, minihpc(nodes, ppn),
                                         *coords, ppn, spec["seed"]), coords))
        return out

    def check(self) -> None:
        from repro.cluster.machine import minihpc
        from repro.experiments import Cell, simulate_cell
        from repro.experiments.workloads import figure_workload

        by_key: Dict[str, Tuple[object, dict, tuple]] = {}
        for row in self.responses:
            expected = self._expected_keys(row["spec"])
            row["lines"], problem = self._parse(row["status"], row["body"], len(expected))
            for line in row["lines"] or ():
                key, coords = expected[line["index"]]
                cell = Cell.from_dict(line["cell"])
                if line["key"] != key:
                    problem = f"cell {line['index']} has key {line['key']}, expected {key}"
                elif key in by_key and not by_key[key][0].same_result(cell):
                    problem = f"two requests got different results for key {key}"
                else:
                    by_key.setdefault(key, (cell, row["spec"], coords))
            self.ledger.expect(problem is None, f"{row['kind']} request: {problem}")

        metrics = self._get("/metrics")
        self.final_metrics = metrics
        self.ledger.expect(
            metrics.get("simulated") == len(by_key) and metrics.get("errors") == 0,
            f"exactly-once: server simulated {metrics.get('simulated')} cells "
            f"({metrics.get('errors')} errors) for {len(by_key)} distinct keys",
        )

        # a sample of served cells must equal an inline simulation
        rng = random.Random(f"{self.seed}/sample")
        fresh = sorted(k for k, (_c, spec, _x) in by_key.items()
                       if spec["seed"] > self.seed_base)
        for key in rng.sample(fresh, min(self.SAMPLED_CELLS, len(fresh))):
            served, spec, (approach, inter, intra, nodes) = by_key[key]
            inline = simulate_cell(
                figure_workload(spec["workload"]["app"], spec["workload"]["scale"]),
                minihpc(nodes, spec["cluster"]["ppn"]), approach, inter, intra, nodes,
                spec["cluster"]["ppn"], spec["seed"],
            )
            self.ledger.expect(
                inline.same_result(served),
                f"served cell {key} differs from an inline simulate_cell",
            )

    # -- metrics ------------------------------------------------------------
    def end_to_end(self, phase: str) -> dict:
        rows = [row for row in self.responses if row["phase"] == phase]
        delivered: Dict[int, int] = {}
        for row in rows:
            delivered[row["block"]] = delivered.get(row["block"], 0) + len(row["lines"] or ())
        return {
            "cell_walls": [line["cell"]["wall_seconds"] for row in rows
                           for line in row["lines"] or () if line["source"] == "simulated"],
            "latencies": self.spans.durations("request", phase=phase),
            "rates": [delivered.get(unit["block"], 0) / unit["wall"]
                      for unit in self._units(phase)],
        }

    def layer_counts(self) -> Dict[str, float]:
        # simulations run in the server's pool workers; their cells carry
        # the event counts and the worker-side wall time
        simulated = [line["cell"] for row in self.responses if row["phase"] == "ref"
                     for line in row["lines"] or () if line["source"] == "simulated"]
        blocks = max(len(self._units("ref")), 1)
        events = sum(cell["n_events"] for cell in simulated)
        walls = sum(cell["wall_seconds"] for cell in simulated)
        out: Dict[str, float] = {
            "engine.events": events / blocks,
            "engine.events_per_s": events / walls if walls else 0.0,
            "sim.parallel_time_s": sum(cell["time"] for cell in simulated) / blocks,
        }
        for kind in ("warm", "cold", "dup"):
            latencies = self.spans.durations("request", phase="ref", kind=kind)
            if latencies:
                out[f"service.{kind}_req_ms"] = 1e3 * statistics.median(latencies)
        return out

    def _service_counts(self) -> Dict[str, float]:
        """Server-lifetime counters read from ``GET /metrics`` in check()."""
        metrics = self.final_metrics
        cache = metrics.get("cache") or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        # the second poster of each dup grid could attach to the first
        dup_cells = sum(len(r["lines"] or ()) for r in self.responses
                        if r["kind"] == "dup") // self.CLIENTS
        return {
            "service.simulated": metrics.get("simulated", 0),
            "service.dedup_ratio": metrics.get("dedup_hits", 0) / dup_cells if dup_cells else 0.0,
            "cache.hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        }

    def probe(self) -> Dict[str, float]:
        from repro.cluster.machine import minihpc
        from repro.experiments.workloads import clear_cache, figure_workload

        workload = figure_workload("mandelbrot", "tiny")
        cluster = minihpc(4, 4)
        served = next((row["lines"][0]["cell"] for row in self.responses if row["lines"]), None)

        def build() -> None:
            clear_cache()
            figure_workload("mandelbrot", "tiny")

        metrics = {
            "cluster.world_build_s": probes.world_build_s(cluster, 4),
            "core.unroll_cold_s": probes.unroll_cold_s(
                [("GSS", workload.n, 4)]
                + [(t, workload.n // 4, 4) for t in sorted(
                    {level for stack in CORE_INTRAS + PRIVATE_INTRAS
                     for level in stack.split("+")})]
            ),
            "experiments.cell_key_ms": probes.cell_key_ms(
                workload, cluster, "mpi+mpi", "GSS", "SS", 4, 4, self.seed,
            ),
            "workloads.build_s": probes.median_seconds(build, repeats=3),
        }
        if served is not None:
            from repro.experiments import Cell

            root = tempfile.mkdtemp(prefix="cache-probe-", dir=self.work_dir)
            metrics["cache.put_ms"], metrics["cache.get_ms"] = probes.cache_ms(
                Cell.from_dict(served), root)
        metrics.update(self._service_counts())
        return metrics

    def peak_rss_mb(self) -> float:
        """The largest pool worker's peak (MB); read before :meth:`close`.

        Read from each live worker's ``VmHWM``: reaped-children figures
        would also count this process's set-up replicas.
        """
        peaks = []
        for worker in multiprocessing.active_children():
            try:
                with open(f"/proc/{worker.pid}/status") as status:
                    peaks += [int(line.split()[1]) / 1024.0 for line in status
                              if line.startswith("VmHWM:")]
            except OSError:
                pass  # the worker exited meanwhile
        return max(peaks, default=float("nan"))

    def close(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.server.executor.shutdown(wait=True)
        if self.thread is not None:
            self.thread.join(self.TIMEOUT_S)
        self.server = None


def make(name: str, seed: int, spans: Spans, work_dir: str) -> Scenario:
    """Build the named workload (see ``WORKLOADS``)."""
    if name == "contended-2k":
        return ContendedCell(seed, spans, work_dir, name, nodes=32, engine="scalar")
    if name == "cohort-10k":
        return ContendedCell(seed, spans, work_dir, name, nodes=157, engine="cohort")
    if name == "figure-sweep":
        return FigureSweep(seed, spans, work_dir)
    if name == "service-mix":
        return ServiceMix(seed, spans, work_dir)
    raise KeyError(name)


WORKLOADS = ("contended-2k", "cohort-10k", "figure-sweep", "service-mix")
