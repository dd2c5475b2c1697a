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

# certificate tolerances that both tcp and eigen read
RESIDUAL_TOL = 1e-8       # certificate tolerance (eigen residuals, TCP residuals)
CLUSTER_TOL = 1e-6        # duplicate-solution clustering distance
POSITIVITY_FLOOR = 1e-10  # components at or below this do not count as positive


@dataclass(frozen=True)
class RunConfig:
    """The values a caller chooses: sign tolerance, grid, start budget, seed.

    The defaults target desk scale (dimension <= 8, order <= 4).  ``grid``
    of ``None`` picks the per-axis grid resolution from the dimension:
    21 points for n <= 4, 9 for n in {5, 6}, multistart-only above that.
    ``starts`` of ``None`` keeps each multistart routine's own budget.
    ``tol`` must be a finite number >= 0, and ``grid`` and ``starts`` None
    or an integer >= 0; anything else raises ``ValueError``.
    """

    tol: float = 1e-6               # sign tolerance for verdict-style decisions
    grid: int | None = None         # grid points per free axis; None = auto by dimension
    starts: int | None = None       # random starts of every multistart search; None = per routine
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.tol, bool) or not (isinstance(self.tol, (int, float)) and 0 <= self.tol < np.inf):
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol!r}")
        for name, value in (("grid", self.grid), ("starts", self.starts)):
            if value is not None and not (type(value) is int and value >= 0):
                raise ValueError(f"{name} must be None or an integer >= 0, got {value!r}")

    def grid_for(self, n: int) -> int:
        if self.grid is not None:
            return self.grid
        if n <= 4:
            return 21
        if n <= 6:
            return 9
        return 0

    def budget(self, default: int) -> int:
        """The random-start count of a routine whose own default is ``default``."""
        return default if self.starts is None else self.starts

    def substream(self, *tags: object) -> np.random.Generator:
        """Deterministic per-task generator keyed by the task label."""
        label = "/".join(str(t) for t in tags)
        return np.random.default_rng(
            [self.seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode("utf-8"))]
        )

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = RunConfig()
