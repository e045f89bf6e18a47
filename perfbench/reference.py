"""A fixed piece of pure-Python work that measures how fast the host runs now.

On a shared host the same code can run 1.5 times slower for minutes at a time
(another tenant on the same physical core).  The benchmark times this unit
between its ops, and in each fresh interpreter it starts for ``setup_s``, and
scales its timings to a host on which one unit takes ``NOMINAL_UNIT_S``.  The
unit does the kind of work eqlef's group-ring products do: zip tuples, build
tuple keys, accumulate into a dict and sort.  It uses no eqlef code, so a
change to eqlef never changes the scale.
"""

from __future__ import annotations

import time

NOMINAL_UNIT_S = 0.00125


def reference_unit() -> int:
    left = [((i, i + 1, i % 3), i) for i in range(24)]
    right = [((j % 5, j, 1), j - 7) for j in range(24)]
    table: dict[tuple[int, ...], int] = {}
    for v1, c1 in left:
        for v2, c2 in right:
            key = tuple(x + y for x, y in zip(v1, v2))
            table[key] = table.get(key, 0) + c1 * c2
    return len(sorted(table.items()))


def time_units(count: int) -> list[float]:
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        reference_unit()
        samples.append(time.perf_counter() - start)
    return samples
