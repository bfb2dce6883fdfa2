"""Host pace: how fast this machine runs exact-rational Python right now.

The benchmark's host is shared, and other tenants slow it by up to 2x for
seconds to minutes at a time, with no steal time to show for it.  A fixed
probe (Koszul-style inclusion-exclusion over ``Fraction`` binomials and a
few sparse-polynomial products with ``Fraction`` coefficients, written here
and importing nothing from ulrichcert, so no change to the program moves it)
is timed in a background thread every ``INTERVAL_S`` while the batch
runs.  Each operation's time is then rescaled to the pace at which the probe
takes ``NOMINAL_PROBE_S``:

    scaled = integral over the operation of NOMINAL_PROBE_S / probe(t) dt

with ``probe(t)`` the rolling median of the nearest probe times.  A change
that makes the program faster shortens the operation but not the probe, so
it shows in full; a slower host stretches both, and cancels.
"""

from __future__ import annotations

import bisect
import statistics
import sys
import threading
from fractions import Fraction
from math import factorial
from time import perf_counter

#: About the probe's time when the host it was tuned on (Intel Xeon, 2 vCPUs,
#: Python 3.11) ran fast; it took 2.1-6 ms there.  Scaled times read as
#: seconds at that pace.
NOMINAL_PROBE_S = 0.0027
#: A probe every 50 ms read through a rolling median of 3 tracked single
#: operations better (2-3% spread per operation) than one every 100 ms read
#: through a median of 5 (4%); it costs about 6% of a batch's time.
INTERVAL_S = 0.05
SMOOTH = 1  # the rolling median spans 2 * SMOOTH + 1 probes
#: A probe runs for 3-6 ms; with a 20 ms switch interval the main thread
#: never takes the GIL back in the middle of one, so a probe times itself
#: only, and the sampler waits at most 20 ms for its turn.
SWITCH_INTERVAL_S = 0.02

_DEGREES = (2, 3, 5, 4, 6)
_DIM = 6 + len(_DEGREES)
#: 1 + x/2 - 2y/3 + 3z/5, as exponent tuple -> coefficient
_POLY = {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-2, 3), (0, 0, 1): Fraction(3, 5)}
_POWER = 5


def _binom(q: Fraction, m: int) -> Fraction:
    num = Fraction(1)
    for j in range(m):
        num *= q - j
    return num / factorial(m)


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            key = tuple(a + b for a, b in zip(ep, eq))
            out[key] = out.get(key, 0) + cp * cq
    return out


def probe() -> float:
    """Seconds one fixed exact-rational computation takes now.

    The two halves mirror the program's two kinds of work: the Koszul sums
    of the certify path, and the sparse-polynomial products of the report.
    A Koszul-only probe tracked the report's slowdowns half as well.
    """
    t0 = perf_counter()
    ell, total = Fraction(7, 3), Fraction(0)
    for mask in range(1 << len(_DEGREES)):
        shift = sum(d for i, d in enumerate(_DEGREES) if mask >> i & 1)
        total += (-1) ** bin(mask).count("1") * _binom(ell - shift + _DIM, _DIM)
    poly = _POLY
    for _ in range(_POWER - 1):
        poly = _mul(poly, _POLY)
    return perf_counter() - t0


def median_probe(count: int) -> float:
    return statistics.median(probe() for _ in range(count))


class Sampler:
    """Times the probe every INTERVAL_S in a background thread.

    ``samples`` holds (start, seconds) pairs; one probe runs in the caller's
    thread on start and one on stop, so there are always at least two.
    """

    def __init__(self):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._switch = sys.getswitchinterval()

    def _sample(self) -> None:
        start = perf_counter()
        self.samples.append((start, probe()))

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "Sampler":
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)
        self._sample()


def scaled(spans: list, samples: list) -> list:
    """Each (start, end) span's duration at the nominal pace, in seconds.

    ``samples`` are the (start, seconds) probe times, in time order; probe
    time spent inside a span is taken out of it.
    """
    starts = [start for start, _ in samples]
    seconds = [s for _, s in samples]
    smooth = [
        statistics.median(seconds[max(0, k - SMOOTH):k + SMOOTH + 1]) for k in range(len(seconds))
    ]
    # sample k stands for the pace between the midpoints to its neighbours
    edges = [float("-inf")] + [(a + b) / 2 for a, b in zip(starts, starts[1:])] + [float("inf")]

    def work(lo: float, hi: float) -> float:
        k = max(0, bisect.bisect_right(edges, lo) - 1)
        total = 0.0
        while k < len(smooth) and edges[k] < hi:
            total += (min(hi, edges[k + 1]) - max(lo, edges[k])) / smooth[k]
            k += 1
        return total

    out = []
    for lo, hi in spans:
        busy = sum(work(starts[k], starts[k] + seconds[k]) for k in _inside(starts, lo, hi))
        out.append(NOMINAL_PROBE_S * max(0.0, work(lo, hi) - busy))
    return out


def _inside(starts: list, lo: float, hi: float) -> range:
    """Indices of the probes that started within [lo, hi)."""
    return range(bisect.bisect_left(starts, lo), bisect.bisect_left(starts, hi))


def busy(spans: list, samples: list) -> float:
    """Seconds of probing inside the spans."""
    starts = [start for start, _ in samples]
    return sum(samples[k][1] for lo, hi in spans for k in _inside(starts, lo, hi))
