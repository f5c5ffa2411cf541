#!/usr/bin/env python3
"""Show how grid bandwidth shapes the fourth-moment curve for rough noise.

The normalized fourth-moment curve of an absolute-noise function turns
upward once the sweep order N approaches the stored bandwidth 2**(J-1):
the per-order integral of |S_n f|^4 climbs toward the full fourth moment
of f as S_n saturates, and near n ~ bandwidth that climb outruns the
N log^2 N normalization.  Regenerating the same family two octaves finer
keeps the identical N range in the monotone regime.

Prints the curve for J = 12 and J = 14 over N = 32 .. 2048.
"""

import numpy as np

from strongmeans import corpus
from strongmeans.estimates import averaged_moment

SCHEDULE = (32, 64, 128, 256, 512, 1024, 2048)
LAM = 8.0


def main():
    for J in (12, 14):
        _, f = corpus.FAMILIES[1]["noise"].sample(J, np.random.default_rng(7))
        [reports] = averaged_moment(f, [LAM], SCHEDULE, p=4, fn_id=f"noise-J{J}")
        curve = [r.avg_moment for r in reports]
        tail = curve[SCHEDULE.index(256):]
        monotone = all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
        l4 = float(np.mean(np.abs(f.samples) ** 4))
        print(f"J={J}  bandwidth={1 << (J - 1)}  ||f||_4^4={l4:.3f}")
        print("   " + "  ".join(f"{N}:{v:.5f}" for N, v in zip(SCHEDULE, curve)))
        print(f"   non-increasing on [256, 2048]: {monotone}")


if __name__ == "__main__":
    main()
