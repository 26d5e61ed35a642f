"""Measured times scaled to a reference host speed.

The shared host this benchmark was built on changes speed by 20-40 % over
tens of seconds and from one run to the next, in CPU time as much as in
wall time (README.md, "Host speed").  So a fixed pure-Python loop, written
here and independent of the program, is timed while a set of operations
runs: before the set, between operations once ``EVERY_S`` has passed since
the last timing, and after the set.  The set's measured time is scaled by
``REF_S`` over the mean of those timings: the result is its time in
seconds on a host that runs the loop in ``REF_S``.  A change to the
program moves the scaled time as much as the raw one; a change in the
host's speed moves the loop too and cancels out.
"""

from __future__ import annotations

import time

REPS = 5
# seconds one ``calibrate()`` takes on the reference machine (README.md)
REF_S = 1.7e-3
EVERY_S = 0.1


_BLADES = [tuple(i + 1 for i in range(5) if m >> i & 1) for m in range(32)]


def _blade_table(blades) -> dict:
    """Products of the blades of a Clifford algebra whose generators square
    to +1, keyed by pairs of generator tuples: (a, b) -> (sign, a b)."""
    table = {}
    for a, ga in enumerate(blades):
        for b, gb in enumerate(blades):
            swaps = sum(bin(a >> (i + 1)).count("1")
                        for i in range(5) if b >> i & 1)
            table[ga, gb] = (-1.0 if swaps % 2 else 1.0, blades[a ^ b])
    return table


_TABLE = _blade_table(_BLADES)
_LEFT = {g: 1.0 / (k + 1) for k, g in enumerate(_BLADES)}
_RIGHT = {g: (-1.0) ** k / (k + 2) for k, g in enumerate(_BLADES)}


def reference_loop() -> dict:
    """The product of two full 32-term elements through a 1024-entry table
    of tuple-keyed blade products: the shape of the engines' work per
    algebra product, written apart from the program."""
    out = {}
    for a, x in _LEFT.items():
        for b, y in _RIGHT.items():
            sign, c = _TABLE[a, b]
            out[c] = out.get(c, 0.0) + sign * x * y
    return out


def calibrate() -> float:
    """Seconds for ``REPS`` runs of the reference loop."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        reference_loop()
    return time.perf_counter() - t0


def scaled(raw_s: float, calibrations) -> float:
    """``raw_s`` at the reference speed, given the calibrations taken while
    it was measured."""
    return raw_s * REF_S / (sum(calibrations) / len(calibrations))
