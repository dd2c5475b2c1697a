"""Run configuration shared by the search-based routines.

Every routine that samples random starting points draws them from a
substream derived from ``RunConfig.seed`` and a task label, so identical
configuration plus identical inputs give identical results no matter in
which order tasks execute.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class RunConfig:
    """Tolerances, search budgets, seed and output options.

    The defaults target desk scale (dimension <= 8, order <= 4).  ``grid``
    of ``None`` picks the per-axis grid resolution from the dimension:
    21 points for n <= 4, 9 for n in {5, 6}, multistart-only above that.
    """

    tol: float = 1e-6                # sign tolerance for verdict-style decisions
    residual_tol: float = 1e-8       # certificate tolerance (eigen residuals, TCP residuals)
    grid: int | None = None          # grid points per free axis; None = auto by dimension
    face_starts: int = 16            # random pattern-search starts per face
    refine_top: int = 3              # best grid points refined per face
    newton_starts: int = 32          # random Newton starts per support (eigen systems)
    tcp_newton_starts: int = 16      # random Newton starts per support (TCP systems)
    newton_max_iter: int = 200
    newton_step_tol: float = 1e-12
    cluster_tol: float = 1e-6        # duplicate-solution clustering distance
    positivity_floor: float = 1e-10  # components at or below this do not count as positive
    eigen_interior_floor: float = 1e-5  # smaller components mean the root belongs to a sub-support
    solution_dust_tol: float = 1e-4  # zero out components below this when the result still certifies
    support_cap: int = 6             # enumeration solvers refuse larger dimensions
    fixed_point_max_iter: int = 10_000
    merit_tol: float = 1e-10
    norm_starts: int = 64            # random starts for operator-norm ascent
    seed: int = 0
    format: str = "json"

    def grid_for(self, n: int) -> int:
        if self.grid is not None:
            return self.grid
        if n <= 4:
            return 21
        if n <= 6:
            return 9
        return 0

    def substream(self, *tags: object) -> np.random.Generator:
        """Deterministic per-task generator keyed by the task label."""
        label = "/".join(str(t) for t in tags)
        return np.random.default_rng(
            [self.seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode("utf-8"))]
        )

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = RunConfig()

