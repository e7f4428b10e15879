"""Deterministic random draws.

Every randomized operation takes an integer seed and derives an isolated
stream from it, so independent operations never share state and reports
are reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

# Fixed integer nodes for the exact tests that take no seed: a curve's
# generic fiber degree, one-to-one checks included
FIXED_NODES = (3, 7, -4, 11, -13)


def child_rng(seed: int, salt: str) -> random.Random:
    """Return an RNG whose stream depends only on (seed, salt)."""
    digest = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def rand_rational(rng: random.Random, height: int = 100) -> Fraction:
    """Random rational with numerator and denominator bounded by height."""
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Fraction(num, den)
