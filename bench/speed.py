"""Host-speed sampling for the untraced benchmark ops.

On a VM on a shared host, the speed of a pure-Python loop can drift by up
to a factor of two, over seconds and over minutes, so a raw op time says as
much about the neighbours as about e8g2.  While an op runs, a timer
interrupts it every INTERVAL_S and times PASSES passes of a fixed
pure-Python kernel: tuple arithmetic, set inserts and dict-polynomial
products, the kinds of work that ``weyl`` and ``symra`` do.  The kernel's mean time over the op measures the
host's speed during exactly that op.  ``normalized`` rescales the op's own
time (its wall time minus the samples) to a host on which one kernel pass
takes REF_KERNEL_S.  Worker setup is too short for the timer; it is bracketed
by one sample before ``import e8g2`` and one after the E8 build.

The kernel uses no e8g2 code, so a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.5
PASSES = 2
REF_KERNEL_S = 0.008  # one kernel pass on the reference host, a 2 GHz Xeon vCPU

_STEP = (1, -1, 0, 1, 0, -1, 1, 0)
_POLY = {(i, j): i * 7 - j for i in range(9) for j in range(9)}


def kernel() -> int:
    """One pass: 6 to 11 ms on a 2 GHz Xeon vCPU, depending on its neighbours."""
    seen = set()
    v = (1, 0, -1, 2, 0, 1, -2, 1)
    for i in range(2500):
        m = i % 3
        v = tuple(a - m * b for a, b in zip(v, _STEP))
        seen.add(v)
    out: dict[tuple[int, int], int] = {}
    for ea, ca in _POLY.items():
        for eb, cb in _POLY.items():
            k = (ea[0] + eb[0], ea[1] + eb[1])
            out[k] = out.get(k, 0) + ca * cb
    return len(seen) + len(out)


class SpeedSampler:
    """Context manager: samples the kernel on entry, every INTERVAL_S (from
    SIGALRM) and on exit.  ``clock()`` excludes the sampling time, so spans
    timed with it are the op's own time."""

    def __init__(self):
        self.samples: list[float] = []  # seconds per PASSES kernel passes
        self.sampled_s = 0.0
        self._old_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self.sampled_s

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        gc_was_enabled = gc.isenabled()
        gc.disable()  # a collection here would cost time in proportion to the op's heap
        try:
            for _ in range(PASSES):
                kernel()
        finally:
            if gc_was_enabled:
                gc.enable()
        took = time.perf_counter() - started
        self.samples.append(took)
        self.sampled_s += took

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()

    def kernel_s(self) -> float:
        """Mean seconds per kernel pass over the samples."""
        return self.sampled_s / (len(self.samples) * PASSES)

    def normalized(self, own_s: float) -> float:
        """``own_s`` seconds of op time, rescaled to the reference host."""
        return rescale(own_s, self.kernel_s())


def rescale(own_s: float, kernel_s: float) -> float:
    """Seconds measured while a kernel pass took ``kernel_s``, rescaled to
    the reference host."""
    return own_s * REF_KERNEL_S / kernel_s
