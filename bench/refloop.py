"""A fixed computation that measures how fast the host runs at the moment.

On a shared machine the speed of the same computation changes by 15-35 %
from one process to the next and over periods of minutes, longer than a
run.  The runner times this loop between tasks and scales every time it
reports by REF_LOOP_S over the loop's median time in the run, so a time
reads as it would on the host running at its reference speed.

The loop does the kind of work cnull does, with none of cnull's code, so
that a change to cnull cannot change it: Aberth correction sweeps in
mpmath complex arithmetic at 276 bits (cnull's working precision at
prec 256), and products of Fraction polynomials.  Its operation count is
fixed: the sweeps compute corrections but do not apply them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import mpmath as mp

# Median time of one loop on a 2-core Intel Xeon VM shared with other tenants,
# Python 3.11.7, mpmath 1.3.0 (pure-Python backend): the reference speed.
REF_LOOP_S = 0.036
DEGREE = 16
SWEEPS = 2
FRACTION_TERMS = 16


def reference_loop() -> None:
    with mp.workprec(276):
        # coefficients of mixed sizes, as pullbacks with rational coefficients give
        coeffs = [
            mp.mpc(mp.mpf((k + 3) ** 23 - 7) / (2 * k + 5) ** 19, mp.mpf(1 - k) / (3 + k))
            for k in range(DEGREE + 1)
        ]
        deriv = [coeffs[k] * k for k in range(1, DEGREE + 1)]
        z = [mp.expjpi(mp.mpf(2 * k + 1) / DEGREE) * mp.mpf("1.3") for k in range(DEGREE)]
        for _ in range(SWEEPS):
            for i, zi in enumerate(z):
                p = dp = mp.mpc(0)
                for c in reversed(coeffs):
                    p = p * zi + c
                for c in reversed(deriv):
                    dp = dp * zi + c
                ratio = p / dp
                s = sum((1 / (zi - zj) for j, zj in enumerate(z) if j != i), mp.mpc(0))
                ratio / (1 - ratio * s)
    a = [Fraction((k + 2) ** 17 + 1, (3 * k + 7) ** 13) for k in range(FRACTION_TERMS)]
    product = [Fraction(0)] * (2 * FRACTION_TERMS - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(reversed(a)):
            product[i + j] += x * y


def time_reference_loop() -> float:
    """Seconds one reference loop takes.

    Wall time, because process CPU time can advance in scheduler ticks (4 ms
    on the VM above, a tenth of the loop); a loop the scheduler interrupts
    reads slow, and the runner takes the median.
    """
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
