"""Sampled functions on uniform dyadic grids of the torus.

A GridFunction holds samples at the points t * 2**-J (per axis).  For
integration the function is read as piecewise constant on the grid
cells; for transforms the samples are used as point values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GridFunction:
    dim: int
    J: int
    samples: np.ndarray
    # set for separable 2-d constructions; 2-d moments and delayed means
    # work through the factors
    factors: tuple["GridFunction", "GridFunction"] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        n = 1 << self.J
        want = (n,) if self.dim == 1 else (n, n)
        if self.samples.shape != want:
            raise ValueError(f"samples shape {self.samples.shape}, expected {want}")

    @property
    def n(self) -> int:
        return 1 << self.J

    def l1(self) -> float:
        return float(np.mean(np.abs(self.samples)))

    def l2sq(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))

    def linf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def is_real(self) -> bool:
        return not np.iscomplexobj(self.samples)


def tensor(g: GridFunction, h: GridFunction) -> GridFunction:
    if g.dim != 1 or h.dim != 1 or g.J != h.J:
        raise ValueError("tensor needs two 1-d functions on the same grid")
    return GridFunction(2, g.J, np.outer(g.samples, h.samples), factors=(g, h))
