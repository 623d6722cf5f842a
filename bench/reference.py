"""The reference loop that operation times are scaled by.

A shared host runs this process's core at changing speed: in phases of
seconds to minutes, another tenant's load slows the same code by up to 2x,
and the process CPU time grows with it.  The benchmark therefore times a
fixed pure-Python loop right before and right after every timed operation
and reports the operation's CPU time scaled to a core on which that loop
takes REFERENCE_S:

    scaled = op_cpu_s * REFERENCE_S / mean(ref_before_s, ref_after_s)

The loop is part of the benchmark, not of qslab, so a change to qslab moves
an operation's time and not the reference.  Standard library only: set-up
probes time it before they import anything.
"""

from time import process_time

REFERENCE_LOOPS = 100_000
REFERENCE_S = 0.008  # about the loop's fastest CPU time on a 2-vCPU Xeon VM


def reference_s() -> float:
    """CPU seconds of one pass of the reference loop."""
    start = process_time()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return process_time() - start


def scaled(cpu_s: float, before_s: float, after_s: float) -> float:
    """`cpu_s` scaled to a core that runs the reference loop in REFERENCE_S."""
    return cpu_s * REFERENCE_S / ((before_s + after_s) / 2)
