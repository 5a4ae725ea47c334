"""Timing of the cyclo field kernels on seeded operands of a fixed height.

Per-call spans around the million or so field operations of a pass would
distort the run they measure, so the traced run counts those calls and
this kernel times them: nanoseconds per ``mul`` in Q, Q(zeta3) and
Q(zeta6), and per ``inv`` in Q(zeta6), each the median over batches.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

HEIGHT_BITS = 8  # numerator and denominator size of every operand coefficient
OPS = 5000
BATCHES = 7
KERNELS = (
    ("cyclo.mul_ns.m1", 1, "mul"),
    ("cyclo.mul_ns.m3", 3, "mul"),
    ("cyclo.mul_ns.m6", 6, "mul"),
    ("cyclo.inv_ns.m6", 6, "inv"),
)


def _coefficient(rng: random.Random) -> Fraction:
    top = 1 << (HEIGHT_BITS - 1)
    num = rng.getrandbits(HEIGHT_BITS - 1) | top
    den = rng.getrandbits(HEIGHT_BITS - 1) | top | 1
    return Fraction(rng.choice((1, -1)) * num, den)


def _element(field, rng: random.Random):
    return field.from_coeffs([_coefficient(rng) for _ in range(field.degree)])


def time_kernels(seed: int, gauge) -> dict:
    """Kernel name -> median reference nanoseconds per operation."""
    from nkoszul.cyclo import get_field

    rng = random.Random(f"kernel:{seed}")
    out = {}
    for name, m, op in KERNELS:
        field = get_field(m)
        fn = getattr(field, op)
        if op == "mul":
            args = [(_element(field, rng), _element(field, rng)) for _ in range(OPS)]
        else:
            args = [(_element(field, rng),) for _ in range(OPS)]
        per_op = []
        for _ in range(BATCHES):
            t0 = time.monotonic()
            for a in args:
                fn(*a)
            per_op.append(gauge.reference_seconds(t0, time.monotonic()) * 1e9 / OPS)
        out[name] = statistics.median(per_op)
    return out
