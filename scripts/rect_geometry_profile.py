#!/usr/bin/env python3
r"""Profile the two removal geometries for the separable 2-d moment.

For a tensor spike, removing dilated bad *cubes* leaves cross-bands in
the complement: points aligned with the spike in one coordinate but far
from it in the other.  With one bad cube whose dilated shadow on each
axis is the arc B, and w_N = (1/N) sum_{n<=N} int_{T \ B} |S_n spike|^2,
inclusion-exclusion gives the exact curves

    cube(N) = 2 (N+2) w_N - w_N^2        slab(N) = w_N^2

because the spike's full-torus value is int_T |S_n spike|^2 = 2n + 1.
The cube curve therefore grows affinely in N, while removing dilated
*slabs* (both coordinate shadows) leaves a product set on which the
average plateaus.

This script prints both curves next to these identities.
"""

import numpy as np

from strongmeans import corpus
from strongmeans.czd import decompose
from strongmeans.dyadic import union_mask
from strongmeans.estimates import _abs2_rows, averaged_moment_rect
from strongmeans.spectral import modes

J, LAM = 7, 32.0
SCHEDULE = (4, 8, 16, 32, 64)


def main():
    f = corpus.spike(J, dim=2)
    curves = {}
    [pair] = averaged_moment_rect(f, [LAM], SCHEDULE)
    for geometry, reports in zip(("cube", "slab"), pair):
        curves[geometry] = [r.avg_moment for r in reports]
        measure = reports[0].measure_E
        print(f"{geometry:>5}: measure(E) = {measure} = {float(measure):.4f}")

    # 1-d off-band average w_N along the schedule
    cz = decompose(f, LAM)
    assert len(cz.bad) == 1, "the identities assume one bad cube"
    # the bad cube's 5-dilated shadow on axis 0, on the 2**J sample cells:
    # it starts two sides before the cube and spans five
    n = 1 << J
    level, index = cz.bad[:, :1], cz.bad[:, 1:2]
    side = n >> level
    band = union_mask((index - 2) * side % n, np.minimum(5 * side, n), n)
    w_cells = np.repeat(1.0 - band, 2)  # on the twice finer grid
    M = 2 * n
    g = corpus.spike(J)
    rows = _abs2_rows(g, modes(g, SCHEDULE[-1]), 1)
    w_bar = np.cumsum(rows @ w_cells / M) / np.arange(1, SCHEDULE[-1] + 1)

    print(f"\n{'N':>5} {'w_N':>8} {'cube':>10} {'2(N+2)w-w^2':>12}"
          f" {'slab':>10} {'w^2':>10}")
    for i, N in enumerate(SCHEDULE):
        w = w_bar[N - 1]
        print(f"{N:>5} {w:>8.4f} {curves['cube'][i]:>10.4f}"
              f" {2 * (N + 2) * w - w * w:>12.4f}"
              f" {curves['slab'][i]:>10.4f} {w * w:>10.4f}")

    for geometry in ("cube", "slab"):
        c = curves[geometry]
        change = abs(c[-1] / c[-2] - 1)
        print(f"{geometry}: relative change {SCHEDULE[-2]} -> {SCHEDULE[-1]}"
              f" = {change:.1%}")


if __name__ == "__main__":
    main()
