"""Gauge of the host's current speed for pure-Python work.

`calibrate()` times a fixed, stdlib-only job of the kind confpair spends
its time on: dicts keyed by small tuples, copied, updated and filtered,
as a linear combination is when terms are added.  No change to confpair
can move it, so its time tracks only how fast the host runs such code at
that moment.  On a shared 2-vCPU VM that speed switches between two
states every second or few, and the slower one lasts longer; CPU time
moves with wall time, so this is not time stolen from the VM.  Between
the states this job's time changed by about 1.6x, the benchmark's short
operations by 1.5-1.7x, normalize's memory-heavy right combs by about
1.3-1.5x, and a tight arithmetic loop's by 1.8x, which is why the gauge
is made of dict and tuple work rather than arithmetic.
run.py scales every timing by REF_S / (the gauge read around it).

This module imports only the built-in `gc` and `time`, so a fresh
interpreter can read the gauge before it imports confpair without
changing what that import costs.
"""

import gc
import time

TERMS = 500
ROUNDS = 6
REF_S = 0.0058   # the job's time at the reference host speed; timings are scaled to it


def calibrate(repeats=2):
    """Seconds of one pass of the fixed job; the least of `repeats` passes.

    The cyclic garbage collector is off while it runs: a collection would
    walk every object the program holds, so the gauge would read the size
    of the heap, not the speed of the host.  The least of two passes drops
    a pass the scheduler interrupted."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_one_pass() for _ in range(repeats))
    finally:
        if was_enabled:
            gc.enable()


def _one_pass():
    t0 = time.perf_counter()
    terms = {(i, i * 3 % 17, i % 5): i for i in range(TERMS)}
    for _ in range(ROUNDS):
        out = dict(terms)
        for key, coeff in terms.items():
            moved = (key[0] + 1, key[1], key[2])
            out[moved] = out.get(moved, 0) + coeff
        terms = {key: coeff for key, coeff in out.items() if coeff % 7}
    return time.perf_counter() - t0

