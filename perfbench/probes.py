"""Outside-in layer probes: time one layer by calling its public API.

Each probe repeats a small call a few times and returns the median, so
one slow repetition (a page fault, a neighbour's burst) does not move
it.  Probes run untraced, outside the timed phase.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Sequence, Tuple

REPEATS = 5


def median_seconds(call: Callable[[], object], repeats: int = REPEATS) -> float:
    """Median wall seconds of ``repeats`` calls of ``call``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def world_build_s(cluster, ppn: int) -> float:
    """``MpiWorld(Simulator(), cluster, ppn)`` at the workload's rank count."""
    from repro.sim import Simulator
    from repro.smpi import MpiWorld

    return median_seconds(lambda: MpiWorld(Simulator(), cluster, ppn), repeats=3)


def unroll_cold_s(levels: Sequence[Tuple[str, int, int]]) -> float:
    """Cold ``make(n, p).total_steps()`` summed over ``(technique, n, p)``.

    The chunk-sequence memo is cleared before every repetition, so each
    one unrolls every level's recurrence from scratch.
    """
    from repro.core import clear_sequence_cache, get_technique

    def unroll() -> None:
        clear_sequence_cache()
        for name, n, p in levels:
            get_technique(name).make(n, p).total_steps()

    seconds = median_seconds(unroll)
    clear_sequence_cache()
    return seconds


def cell_key_ms(workload, cluster, approach: str, inter: str, intra: str,
                nodes: int, ppn: int, seed: int) -> float:
    """``workload_fingerprint`` + ``cell_key`` for one cell, in ms."""
    from repro.experiments.parallel import cell_key, workload_fingerprint

    def key() -> str:
        return cell_key(workload_fingerprint(workload), cluster, approach,
                        inter, intra, nodes, ppn, seed)

    return 1e3 * median_seconds(key)


def cache_ms(cell, root: str, count: int = 20) -> Tuple[float, float]:
    """Median ``CellCache.put`` and ``CellCache.get`` latency, in ms.

    ``root`` is an empty scratch directory; ``count`` distinct keys are
    written, then read back and compared with ``cell``.
    """
    from repro.experiments.parallel import CellCache

    cache = CellCache(root)
    keys = [f"{index:064x}" for index in range(count)]
    puts, gets = [], []
    for key in keys:
        start = time.perf_counter()
        cache.put(key, cell)
        puts.append(time.perf_counter() - start)
    for key in keys:
        start = time.perf_counter()
        back = cache.get(key)
        gets.append(time.perf_counter() - start)
        if back is None or not back.same_result(cell):
            raise AssertionError(f"cache probe read back a different cell for {key}")
    for key in keys:
        os.unlink(os.path.join(root, f"{key}.json"))
    return 1e3 * statistics.median(puts), 1e3 * statistics.median(gets)
