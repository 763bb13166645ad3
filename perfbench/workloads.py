"""The benchmark's workloads and the INI configs it feeds the CLI.

Every workload runs all five verbs once per pass, so every end-to-end
metric and every span has a sample on every workload; what differs is the
scale and the Monte Carlo grid, which decide the layer that dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20260816  # the README's master_seed

VERBS = ("spectrum", "reconstruct", "certify", "witness", "montecarlo")


@dataclass(frozen=True)
class Workload:
    name: str
    L: int
    radius_px: int
    r: int  # samples for reconstruct, certify and witness
    epsilon_targets: tuple
    trials: int  # Monte Carlo trials per (nu, r) cell
    nu_grid: tuple
    r_grid: tuple
    expected_N: int  # eigenvalue count above gamma = 1/2
    # Monte Carlo failures per cell, in nu-major grid order, at DEFAULT_SEED
    reference_failures: tuple

    def config_text(self, seed: int) -> str:
        c = self.L // 2
        return f"""[meta]
schema_version = 1

[experiment]
L = {self.L}
gamma = 0.5
r = {self.r}
nu = 0.3
trials = {self.trials}
master_seed = {seed}

[region]
kind = disk
center_m = {c}
center_n = {c}
radius_px = {self.radius_px}

[window]
kind = gaussian

[reconstruct]
epsilon_targets = {", ".join(map(str, self.epsilon_targets))}
distinct = true

[montecarlo]
nu_grid = {", ".join(map(str, self.nu_grid))}
r_grid = {", ".join(map(str, self.r_grid))}
delta = 0.05

[witness]
epsilon = 0.2
eta = 2.0

[tolerances]
cg_tol = 1e-12
eig_residual = 1e-8
"""


README_EPSILONS = (0.1, 0.03, 1e-4, 1e-8)

WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance-05 grid: the Monte Carlo trial loop (draw, gather,
        # Gram, eigvalsh) is ~90% of a pass; r spans 16x, so a Gram change
        # and a per-trial fixed-cost change move different cells.
        Workload("mc-L120", 120, 30, 300, README_EPSILONS, 50,
                 (0.2, 0.3, 0.5), (250, 1000, 4000), 23,
                 (50, 46, 1, 50, 11, 0, 22, 0, 0)),
        # Large scale: dense eigh in setup, 960^2 CSV grids, and a Monte
        # Carlo cell whose region table (|Omega| x N STFT values) sets time
        # and peak memory.  One defect target keeps the number of Bessel
        # bounds per pass at two: a draw on which the power iteration runs
        # to its 20000-step cap costs ~40 s per bound at this size.
        Workload("large-L960", 960, 240, 300, (1e-4,), 20,
                 (0.3,), (500,), 188, (20,)),
    )
}
