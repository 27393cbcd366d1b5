"""The benchmark's workloads: scenario documents generated from a seed.

The program receives only the generated scenario (schema_version 1, an
``explicit`` initial measure with equal weights), never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POWER_LAW = {"family": "power_law", "K": 1.0, "gamma": 1.0}
EXPONENTIAL = {"family": "exponential", "K": 1.0, "lam": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    dimension: int
    n: int
    kernel: dict
    v_high: float  # velocities start in [0, v_high]^d, positions in [0, 1]^d
    c: float | None = None
    horizon: float = 10.0
    post_horizon: float = 1.0
    # 0 draws i.i.d. uniform points; > 0 draws a one-dimensional rank-1
    # lattice whose points the seed jitters by this fraction of its spacing
    lattice_jitter: float = 0.0

    def points(self, seed: int):
        # any integer seed; the modulus leaves non-negative ones unchanged
        rng = np.random.default_rng(seed % 2**64)
        n, d = self.n, self.dimension
        if self.lattice_jitter <= 0.0:
            return rng.uniform(0.0, 1.0, (n, d)), rng.uniform(0.0, self.v_high, (n, d))
        # positions on the n-point grid, velocities on the grid permuted by
        # i -> 61 i mod n (61 is coprime to the lattice size used here)
        i = np.arange(n)
        x = (i + 0.5 + self.lattice_jitter * rng.uniform(-0.5, 0.5, n)) / n
        v = self.v_high * ((61 * i) % n + 0.5 + self.lattice_jitter * rng.uniform(-0.5, 0.5, n)) / n
        return x[:, None], v[:, None]

    def scenario(self, seed: int) -> dict:
        x, v = self.points(seed)
        doc = {
            "schema_version": 1,
            "dimension": self.dimension,
            "kernel": dict(self.kernel),
            "mode": self.mode,
            "initial": {"kind": "explicit", "x": x.tolist(), "v": v.tolist()},
            "horizon": self.horizon,
            "post_horizon": self.post_horizon,
        }
        if self.c is not None:
            doc["c"] = self.c
        return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mass_2d", "mass", 2, 400, POWER_LAW, v_high=0.25, c=1.0, post_horizon=0.5),
        Workload("volume_1d", "volume", 1, 50, POWER_LAW, v_high=1.5, c=1.0, lattice_jitter=0.1),
        Workload("free_flight", "none", 1, 2000, EXPONENTIAL, v_high=0.1, horizon=0.3),
    )
}
