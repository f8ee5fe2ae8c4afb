"""Regenerate the lock-polling golden snapshot.

Run from the repo root with the *reference* implementation checked out::

    PYTHONPATH=src python tests/golden/generate_lockpark_golden.py

``seed_runresults.json`` and ``depth_runresults.json`` only cover
fault-free runs with the default cost model, so they never exercise the
lock-polling paths that are hardest to keep bit-exact: a lock holder
crashing mid-epoch (the lease-break branch), a rank crashing while it
polls a held lock, non-zero locality-tier penalties on every lock
attempt, noisy adaptive scheduling, and zero-cost lock messages.  This
snapshot (``lockpark_runresults.json``) pins those cells.  It was
generated with the per-poll ``SharedWindow.lock`` loop (commit
``dd5b4a7``), before failed pollers were parked on the window, so
``tests/test_lockpark_golden.py`` replaying it proves parking changed
nothing: makespan, per-rank finish times and overhead seconds, event
count, chunk digest and every counter, all bit-exact.

The fine-grained workload (600 iterations of 1-4 microseconds) keeps
the node locks contended, so most crash times land while the victim
holds or polls a lock; each faulted cell notes which case it pins, and
the pinned ``lock_leases_broken`` counter shows the lease-break cells
really break a lease.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from repro.api import run_hierarchical
from repro.cluster.costs import DEFAULT_COSTS, NUMA_PENALTY_COSTS
from repro.cluster.machine import homogeneous
from repro.cluster.noise import HARSH_NOISE
from repro.workloads import uniform_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "lockpark_runresults.json")

CLUSTERS = {
    "flat-2x8": lambda: homogeneous(2, 8),
    "sock-2x8s2": lambda: homogeneous(2, 8, sockets_per_node=2),
    "numa-2x8s2m2": lambda: homogeneous(
        2, 8, sockets_per_node=2, numa_per_socket=2
    ),
    "numa-1x16s4m2": lambda: homogeneous(
        1, 16, sockets_per_node=4, numa_per_socket=2
    ),
}

WORKLOADS = {
    # contended: chunk execution is as short as the lock protocol
    "fine": lambda: uniform_workload(600, low=1e-6, high=4e-6, seed=3),
    # the two older goldens' workload: mostly uncontended
    "coarse": lambda: uniform_workload(240, low=5e-5, high=2e-3, seed=3),
}

COSTS = {
    "default": DEFAULT_COSTS,
    "numa": NUMA_PENALTY_COSTS,
    "zero-lock": DEFAULT_COSTS.with_overrides(
        **{"mpi.shm_lock_attempt": 0.0, "mpi.shm_unlock": 0.0}
    ),
}

NOISES = {"none": None, "harsh": HARSH_NOISE}

#: cell id -> (stack, cluster id, workload id, costs id, noise id,
#: fault spec or None, seed)
CELLS = {
    # a lock holder crashes mid-epoch: the pollers break its lease
    "lease-d2": ("GSS+SS", "flat-2x8", "fine", "default", "none",
                 "crash:3@0.0001", 0),
    "lease-d3": ("GSS+FAC2+SS", "sock-2x8s2", "fine", "default", "none",
                 "crash:2@0.000333", 0),
    # the victim is polling a held lock when it crashes
    "parked-d2": ("GSS+SS", "flat-2x8", "fine", "default", "none",
                  "crash:3@0.0003", 0),
    "parked-d2-late": ("GSS+SS", "flat-2x8", "fine", "default", "none",
                       "crash:3@0.0009", 0),
    "parked-d3": ("GSS+FAC2+SS", "sock-2x8s2", "fine", "default", "none",
                  "crash:5@0.0007", 0),
    # the window's home rank is the parked victim: failover as well
    "parked-d3-home": ("GSS+FAC2+SS", "sock-2x8s2", "fine", "default",
                       "none", "crash:0@0.00013", 0),
    # a holder crash (lease break), then a polling victim
    "two-crashes-d2": ("GSS+SS", "flat-2x8", "fine", "default", "none",
                       "crash:3@0.0001,crash:9@0.0003", 0),
    # locality-tier penalties on every lock attempt and unlock
    "numa-d3": ("GSS+FAC2+SS", "sock-2x8s2", "fine", "numa", "none",
                None, 0),
    "numa-d3-coarse": ("FAC2+GSS+SS", "sock-2x8s2", "coarse", "numa",
                       "none", None, 7),
    "numa-d4": ("GSS+FAC2+FAC2+SS", "numa-2x8s2m2", "fine", "numa", "none",
                None, 0),
    "numa-d4-1node": ("FAC2+GSS+TSS+SS", "numa-1x16s4m2", "fine", "numa",
                      "none", None, 7),
    # adaptive selection under noise
    "adapt-noisy": ("GSS+ADAPT", "flat-2x8", "fine", "default", "harsh",
                    None, 0),
    "adapt-noisy-d3": ("FAC2+ADAPT+SS", "sock-2x8s2", "coarse", "default",
                       "harsh", None, 7),
    # zero-length lock messages: failed polls land inline
    "zero-lock-d2": ("GSS+SS", "flat-2x8", "fine", "zero-lock", "none",
                     None, 0),
    "zero-lock-d3": ("GSS+FAC2+SS", "sock-2x8s2", "fine", "zero-lock",
                     "none", None, 7),
}


def run_cell(cell_id):
    stack, cluster_id, workload_id, costs_id, noise_id, faults, seed = CELLS[
        cell_id
    ]
    return run_hierarchical(
        WORKLOADS[workload_id](),
        CLUSTERS[cluster_id](),
        inter=stack,
        approach="mpi+mpi",
        seed=seed,
        costs=COSTS[costs_id],
        noise=NOISES[noise_id],
        faults=faults,
    )


def chunk_digest(result) -> str:
    payload = "|".join(
        ";".join(f"{c.step},{c.start},{c.size},{c.pe}" for c in level)
        for level in result.level_chunks
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def pin(value):
    """JSON form of a counter value with floats as exact hex strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): pin(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [pin(item) for item in value]
    return value


def snapshot_one(cell_id):
    result = run_cell(cell_id)
    return {
        "spec_label": result.spec_label,
        "parallel_time": result.parallel_time.hex(),
        "n_events": result.n_events,
        "finish_times": {
            w.name: w.finish_time.hex() for w in result.metrics.workers
        },
        "overhead_times": {
            w.name: w.overhead_time.hex() for w in result.metrics.workers
        },
        "chunk_digest": chunk_digest(result),
        "counters": pin(result.counters),
    }


def main() -> int:
    golden = {}
    for cell_id in CELLS:
        golden[cell_id] = snapshot_one(cell_id)
        counters = golden[cell_id]["counters"]
        print(
            f"  {cell_id}: T={float.fromhex(golden[cell_id]['parallel_time']):.6g}s "
            f"events={golden[cell_id]['n_events']} "
            f"leases_broken={counters.get('lock_leases_broken', '-')}"
        )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} cells to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
