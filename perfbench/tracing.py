"""Spans around the benchmark's calls, and a cProfile fold into layers.

Two instruments, both owned by the benchmark (nothing under ``src/``
is hooked):

* :class:`Spans` records a named interval around every call the
  benchmark makes into a public entry point (one simulated cell, one
  grid sweep, one HTTP request).  Spans live in memory; the summary is
  printed when the run ends.  End-to-end latencies are read from them.
* :class:`Profiles` runs ``cProfile`` in the calling thread and in
  every thread started while it is on, and :func:`fold` charges the
  collected self time to the layers of ``src/repro/<layer>/``.

Folding rule: a function defined under ``src/repro`` belongs to its
module's layer.  Any other function (a builtin such as
``_heapq.heapreplace`` or ``generator.send``, or stdlib/NumPy Python
code) is charged to the layers of its callers, in proportion to the
time pstats records per caller, following callers until a layer or the
benchmark's own code is reached.  Time left on the benchmark's own
frames, or on chains that never reach ``src/repro``, is unattributed.
Builtins that block (lock acquire, socket receive, sleep, poll) are
waiting, not work, and are summed apart.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import re
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: builtin method names whose time is spent blocked, not computing
_WAIT_METHODS = frozenset({
    "acquire", "sleep", "recv", "recv_into", "accept", "poll", "select",
    "waitpid", "wait",
})
_BUILTIN_NAME = re.compile(r"(\w+)'? of |\.(\w+)>$|method (\w+)>$")


class Spans:
    """In-memory span log: one row per closed span.

    A row holds the span's ``name``, ``start`` and ``end``
    (``perf_counter`` seconds) and the caller's ``attrs``.  Appends are
    single list operations, safe from several client threads at once.
    """

    def __init__(self) -> None:
        self.rows: List[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        row = {"name": name, "start": time.perf_counter(), "end": None, "attrs": attrs}
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self.rows.append(row)

    def durations(self, name: str, **match) -> List[float]:
        """Durations (s) of the spans called ``name`` whose attrs match."""
        return [
            row["end"] - row["start"]
            for row in self.rows
            if row["name"] == name
            and all(row["attrs"].get(k) == v for k, v in match.items())
        ]

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (count, total seconds)`` over every closed span."""
        out: Dict[str, Tuple[int, float]] = {}
        for row in self.rows:
            count, total = out.get(row["name"], (0, 0.0))
            out[row["name"]] = (count + 1, total + row["end"] - row["start"])
        return out


class Profiles:
    """cProfile in this thread and in every thread started while on.

    Threads that already run when :meth:`start` is called (other than
    the caller) are not profiled.  :meth:`stop` must be called from the
    thread that called :meth:`start`, after the profiled threads have
    finished their work.
    """

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._own: Optional[cProfile.Profile] = None

    def _enable_here(self) -> cProfile.Profile:
        profile = cProfile.Profile()
        with self._lock:
            self._profiles.append(profile)
        profile.enable()
        return profile

    def _bootstrap(self, frame, event, arg) -> None:
        # first profile event of a new thread: swap the Python-level
        # hook for a C-level profiler owned by this thread
        sys.setprofile(None)
        self._enable_here()

    def start(self) -> None:
        threading.setprofile(self._bootstrap)
        self._own = self._enable_here()

    def stop(self) -> pstats.Stats:
        threading.setprofile(None)
        self._own.disable()
        with self._lock:
            profiles = list(self._profiles)
        stats = pstats.Stats(profiles[0])
        for profile in profiles[1:]:
            stats.add(profile)
        return stats


def layer_of(filename: str, repro_dir: str) -> Optional[str]:
    """Layer of a source file under ``src/repro`` (None outside it)."""
    if not filename.startswith(repro_dir):
        return None
    parts = filename[len(repro_dir):].strip(os.sep).split(os.sep)
    if len(parts) == 1:
        return "api"  # api.py, cli.py, the package __init__
    package, module = parts[0], parts[-1][:-len(".py")]
    if package == "sim":
        return "cohorts" if module == "cohorts" else "engine"
    if package == "models":
        return "models.base" if module == "__init__" else f"models.{module}"
    return package


def _is_wait(func: Tuple[str, int, str]) -> bool:
    if func[0] != "~":
        return False
    match = _BUILTIN_NAME.search(func[2])
    name = next((g for g in match.groups() if g), "") if match else ""
    return name in _WAIT_METHODS


def fold(stats: pstats.Stats, repro_dir: str, bench_dir: str) -> Dict[str, float]:
    """Self seconds per layer, plus ``"unattributed"`` and ``"wait"``."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    owners: Dict[tuple, Dict[Optional[str], float]] = {}

    def owner(func: tuple, depth: int) -> Dict[Optional[str], float]:
        if func in owners:
            return owners[func]
        layer = layer_of(func[0], repro_dir)
        if layer is not None:
            return owners.setdefault(func, {layer: 1.0})
        callers = table[func][4] if func in table else {}
        if func[0].startswith(bench_dir) or not callers or depth > 12:
            return owners.setdefault(func, {None: 1.0})
        owners[func] = {None: 1.0}  # cycle guard while resolving
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: float(v[1]) for c, v in callers.items()}
            total = sum(weights.values())
        share: Dict[Optional[str], float] = {}
        for caller, weight in weights.items():
            for key, part in owner(caller, depth + 1).items():
                share[key] = share.get(key, 0.0) + part * weight / total
        owners[func] = share
        return share

    out: Dict[str, float] = {"unattributed": 0.0, "wait": 0.0}
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        if _is_wait(func):
            out["wait"] += tt
            continue
        for key, part in owner(func, 0).items():
            name = "unattributed" if key is None else key
            out[name] = out.get(name, 0.0) + tt * part
    return out
