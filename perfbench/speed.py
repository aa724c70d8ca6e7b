"""Machine-speed probe: times of one run are scaled to a reference speed.

The CPU of a shared virtual machine does not run at one speed: on a
2-vCPU guest the same operations took from 1x to 1.8x the CPU time
(``time.thread_time``) within a minute, in swings lasting tens of seconds,
as neighbours came and went.  Longer runs do not average that out.

:func:`probe` times a fixed piece of pure-Python work that shares no code
with the program but resembles what it does (closures called on floats,
``math`` functions, small objects, sorting, string splitting and
formatting).  The benchmark probes between short blocks of operations and
multiplies each block's times by ``REFERENCE_S`` over the mean of the
probes on either side of it.  Over 20-second windows this cut the spread
of the program's median CPU time from 42% to 4% of its median.  A change
to the program does not change the probe, so it shows in full.
"""

from __future__ import annotations

import math
import statistics
import time

# CPU time of one probe at the reference speed (a 2-vCPU x86-64 virtual
# machine took 0.8 to 1.5 ms); scaled times read in its units.
REFERENCE_S = 0.001
REPEATS = 3


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _work():
    f = lambda t: t * math.log(t) + abs(t - 1.3) + math.exp(-t)  # noqa: E731
    cells = [_Cell(1.0 + i / 120, 1.0 + (i + 1) / 120) for i in range(120)]
    total = 0.0
    best = []
    for _ in range(2):
        out = []
        for c in cells:
            m = 0.5 * (c.a + c.b)
            fa, fb, fm = f(c.a), f(c.b), f(m)
            total += (c.b - c.a) * (fa + fb + 4.0 * fm) / 6.0
            out.append((m, fm))
        best = sorted(out, key=lambda z: -z[1])[:10]
    words = {}
    for k in range(60):
        text = f"--x={k * 0.37!r} --tol={10.0 ** -(k % 9):.2g} t^2 + abs(t - {k})"
        for w in text.split():
            key, _, val = w.partition("=")
            words[key] = words.get(key, 0) + len(val)
    return total + len(best) + len(words)


def probe() -> float:
    """Median thread CPU time of ``REPEATS`` runs of the fixed work."""
    times = []
    for _ in range(REPEATS):
        t0 = time.thread_time()
        _work()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def scale(*probes: float) -> float:
    """Factor that turns CPU time measured among these probes (as a rule,
    one on either side) into reference-speed time."""
    return REFERENCE_S / statistics.median(probes)
