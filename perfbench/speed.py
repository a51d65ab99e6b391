"""Machine speed, sampled inside a measured process, to report times in reference seconds.

The CPU speed of the shared 2-vCPU VM the benchmark was written on drifts by
up to a factor of two within a second, and its mean over half a minute moves
by 10-20% from one minute to the next.  Raw timings then spread wider than
the benchmark's bounds.  A process that calls ``start()`` runs a fixed
calibration loop from a 20-ms ``SIGALRM`` timer, so the speed is known at
every moment of the measured work:

* speed = ``REF_CAL_S`` / (the calibration loop's time), one sample per tick;
* a span's reference time = (its raw time - the time the timer's handler
  took inside it) x (the mean speed of the samples taken during it).

A span with fewer than two samples also uses the sample before it and one
taken when it ends.  Reference seconds are seconds at the speed where one
calibration loop takes ``REF_CAL_S`` (about that VM's median speed).  Both
the raw and the reference times are kept in every saved run.

Python runs the handler between bytecodes, so a long call into compiled code
delays the next sample until it returns; that interval then gets the speed
measured just after it.
"""

from __future__ import annotations

import atexit
import signal
import time

INTERVAL_S = 0.02
REF_CAL_S = 300e-6
_BIG = 3**130

_speeds: list = []
_handler_s = 0.0


def calibration() -> int:
    """Fixed work in the mix the library does: big-int arithmetic, tuples, a dict."""
    s = 0
    d = {}
    for i in range(600):
        x = (_BIG + i) * (_BIG - i) >> 100
        t = (x, i, s)
        d[i & 15] = t
        s += x % 97 + len(t)
    return s


def sample() -> None:
    global _handler_s
    t0 = time.perf_counter()
    calibration()
    t1 = time.perf_counter()
    _speeds.append(REF_CAL_S / (t1 - t0))
    _handler_s += time.perf_counter() - t0


def _tick(signum, frame) -> None:
    sample()


def start() -> None:
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    atexit.register(stop)  # a tick after the interpreter drops the handler would kill the process


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def mark() -> tuple:
    return time.perf_counter(), len(_speeds), _handler_s


def since(m: tuple) -> tuple:
    """(raw seconds, reference seconds, speed) from mark ``m`` to now."""
    t, i, h = m
    raw = time.perf_counter() - t - (_handler_s - h)
    speeds = _speeds[i:]
    if len(speeds) < 2:
        sample()
        speeds = _speeds[max(0, i - 1):]
    speed = sum(speeds) / len(speeds)
    return raw, raw * speed, speed


def handler_s() -> float:
    """Seconds spent sampling so far; a parent timing this process subtracts it."""
    return _handler_s
