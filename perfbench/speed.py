"""Host-speed calibration: scale call times to a reference machine speed.

A shared host runs this benchmark's one thread at a speed that changes by
up to about 1.5x over spells of seconds to tens of seconds, because other
tenants load the same physical cores.  Such a spell moves a 25-second run's
medians by more than a program change of interest would.  ``os.times`` and
steal time do not see it: the thread runs, only more slowly.

So the timed loop runs a fixed kernel after every call.  Its time, taken as
the median over the calls that started within ``WINDOW_S`` of a call, tells
how fast the thread ran around that call.  A call's scaled time is its wall
time times ``REFERENCE_MS`` over that local kernel time: the time the call
would take on a machine on which the kernel takes ``REFERENCE_MS``.  The
kernel mixes the primitives the library spends its time in (interpreted
float and dict work, ``Fraction`` arithmetic, numpy sorts of small and mid
arrays), and it is part of the benchmark, so no change to ``src/`` moves it.
"""

import bisect
import statistics
from fractions import Fraction

import numpy as np

REFERENCE_MS = 2.0  # kernel time of the reference machine
WINDOW_S = 1.5  # half-width of the window a call's local kernel time is taken over

_DATA = np.random.default_rng(0).random(20_000)


def kernel():
    """Fixed work, 1.3-2 ms on a 2-vCPU Xeon VM; returns a checksum."""
    total = 0.0
    table = {}
    for i in range(1500):
        total += (i * 0.5) % 3.0
        table[i & 63] = total
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(1, i)
    for i in range(10):
        total += float(np.sort(_DATA[i * 1000:i * 1000 + 4000]).sum())
    total += float(np.argsort(_DATA)[0])
    return total + float(f)


def local_kernel_s(starts, kernel_s):
    """For each call, the median kernel time over calls starting within WINDOW_S of it.

    ``starts`` must be ascending.
    """
    out = []
    for t in starts:
        lo = bisect.bisect_left(starts, t - WINDOW_S)
        hi = bisect.bisect_right(starts, t + WINDOW_S)
        out.append(statistics.median(kernel_s[lo:hi]))
    return out


def scaled_ms(starts, seconds, kernel_s):
    """Call times in ms scaled to the reference speed."""
    local = local_kernel_s(starts, kernel_s)
    return [s * REFERENCE_MS / k for s, k in zip(seconds, local)]
