"""Systemic-variation models.

The paper attributes load imbalance to "problem characteristics,
algorithmic, and systemic variations".  The first two come from the
workload cost traces; this module supplies the third: per-core speed
scatter and multiplicative OS noise applied to each executed chunk.

The default used for figure reproduction is mild
(``per_core_sigma=0.5%``, ``jitter_sigma=1%``) — the paper's testbed is
a dedicated homogeneous cluster, so algorithmic imbalance dominates —
but tests and ablations exercise much noisier settings.

Conventions: noise factors are dimensionless multipliers applied to
execution times (which are in seconds); per-core draws are indexed by
``node * ppn + core`` in node order, never by MPI rank — the execution
models own the rank mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """Deterministic (seeded) execution-time perturbation model.

    Parameters
    ----------
    per_core_sigma:
        Log-normal sigma of a *static* per-core speed factor, drawn once
        per core.  Models silicon/thermal variation.
    jitter_sigma:
        Log-normal sigma of a *per-chunk* multiplicative jitter.  Models
        OS interference, cache state, etc.
    seed_tag:
        Mixed into RNG stream names so different models draw
        independent perturbations from the same simulator seed.
    """

    per_core_sigma: float = 0.005
    jitter_sigma: float = 0.01
    seed_tag: str = "noise"

    def core_factor(self, rng: np.random.Generator, n_cores: int) -> np.ndarray:
        """Static speed factors, one per core (multiply nominal speed)."""
        if self.per_core_sigma <= 0.0:
            return np.ones(n_cores)
        return np.exp(rng.normal(0.0, self.per_core_sigma, size=n_cores))

    def chunk_jitters(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Multiplicative factors for the next ``size`` executed chunks.

        One block draw is bit-identical to ``size`` sequential scalar
        draws, so execution models read these through a
        :class:`~repro.sim.engine.BatchedDraws` buffer.  No noise draws
        nothing: the factors are exactly 1.0.
        """
        if self.jitter_sigma <= 0.0:
            return np.ones(size)
        return np.exp(rng.normal(0.0, self.jitter_sigma, size))


#: No perturbation at all — bit-exact analytic schedules (used heavily in tests).
NO_NOISE = NoiseModel(per_core_sigma=0.0, jitter_sigma=0.0, seed_tag="none")

#: Default for figure reproduction: dedicated, homogeneous testbed.
MILD_NOISE = NoiseModel(per_core_sigma=0.005, jitter_sigma=0.01, seed_tag="mild")

#: A deliberately hostile environment for robustness tests/ablations.
HARSH_NOISE = NoiseModel(per_core_sigma=0.05, jitter_sigma=0.15, seed_tag="harsh")
