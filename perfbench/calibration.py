"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the same interpreter work runs at a
speed that drifts by tens of percent within a minute, which no number of
repetitions averages out.  The benchmark therefore times a fixed slice of
interpreter work next to the work it measures and scales each time by
REFERENCE_S / slice time: timings read as seconds on a machine where one
slice takes REFERENCE_S.  The slice resembles orbitstat's own work (frozen
dataclass elements with modular tuple arithmetic, hashed into a dict, and
Fraction sums) but runs none of its code, so a change to orbitstat leaves
the scale alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

# One slice on a 2-vCPU Intel Xeon VM (2.0 GHz) with CPython 3.11, at a quiet
# time; it only fixes the unit and cancels in every comparison.
REFERENCE_S = 0.020
# Commands run between two slices for at least this long, which keeps the
# slices under a tenth of a pass.
EVERY_S = 0.2


@dataclass(frozen=True)
class _Element:
    p: int
    coeffs: tuple

    def __add__(self, other):
        return _Element(self.p, tuple((a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        out = [0] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs[: len(out) - i]):
                out[i + j] = (out[i + j] + a * b) % self.p
        return _Element(self.p, tuple(out))


def slice_s() -> float:
    """Time one fixed slice of interpreter work."""
    t0 = time.perf_counter()
    for _ in range(5):
        xs = [_Element(7, (i % 7, i * 3 % 7, i * 5 % 7)) for i in range(40)]
        seen: dict[_Element, int] = {}
        acc = Fraction(0)
        for i in range(40):
            for j in range(0, 40, 4):
                z = xs[i] * xs[j] + xs[j]
                seen[z] = seen.get(z, 0) + 1
            acc += Fraction(len(seen), i + 1)
    return time.perf_counter() - t0
