"""A fixed calibration job that measures how fast the host is right now.

On a shared 2-core host the same op runs up to 1.7x slower for minutes at a
time, which no run length can average out. The calibration job does, on
fixed seeded data and without pillarconv, the three kinds of work an op is
made of: parsing text floats, dict lookups of coordinate tuples over kernel
offsets, and float64 gather-matmul-scatter. It runs between ops, so each op
can be priced at a fixed host speed: `normalise(t, c)` =
t * (CALIB_REF_S / c) ** SPEED_EXPONENT, where c is the calibration time
around the op.

The calibration job swings more than the ops do, and by how much depends on
the op: on two ten-run sets per workload (seeds 0-9, 15 s runs), the spread
(IQR / median) of the run medians was, for exponents 0 (raw wall time),
0.5 and 1: kitti-selective 28% / 15% / 4% and 17% / 6% / 9%,
nuscenes-sparse 18% / 16% / 17% and 14% / 12% / 19%, kitti-dense
12% / 6% / 13% and 10% / 8% / 23%. The square root keeps the worst case
lowest.
"""

from __future__ import annotations

import time

import numpy as np

# calibration seconds at the reference speed: a quiet phase of a 2-core
# Xeon (OpenBLAS SkylakeX kernels, 2 threads), where a kitti-selective op
# takes about 0.65 s
CALIB_REF_S = 0.10
SPEED_EXPONENT = 0.5

_OFFSETS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]


class Calibration:
    def __init__(self) -> None:
        rng = np.random.Generator(np.random.Philox(key=2024))
        rows = rng.standard_normal((1500, 64))
        self.text = "\n".join(" ".join(f"{v:.8e}" for v in row) for row in rows)
        cells = np.sort(rng.choice(211 * 211, 12000, replace=False))
        self.coords = [(int(i) // 211, int(i) % 211) for i in cells]
        self.feats = rng.standard_normal((20000, 128))
        self.weights = rng.standard_normal((9, 128, 128))
        self.gather = rng.integers(0, 20000, (9, 3000))
        self.scatter = np.sort(rng.integers(0, 20000, (9, 3000)), axis=1)
        self.run()  # the first pass pays one-time costs such as BLAS start-up

    def run(self) -> float:
        """Seconds for one pass of the calibration job."""
        t0 = time.perf_counter()
        parsed = [[float(x) for x in line.split()] for line in self.text.splitlines()]
        index = {c: i for i, c in enumerate(self.coords)}
        hits = 0
        for dr, dc in _OFFSETS:
            for r, c in self.coords:
                if (r + dr, c + dc) in index:
                    hits += 1
        acc = np.zeros_like(self.feats)
        for w in range(len(_OFFSETS)):
            np.add.at(acc, self.scatter[w], self.feats[self.gather[w]] @ self.weights[w])
        seconds = time.perf_counter() - t0
        if len(parsed) != 1500 or hits == 0 or not np.isfinite(acc).all():
            raise RuntimeError("calibration job computed a wrong result")
        return seconds


def normalise(seconds: float, calib_s: float) -> float:
    """Seconds at the reference host speed."""
    return seconds * (CALIB_REF_S / calib_s) ** SPEED_EXPONENT
