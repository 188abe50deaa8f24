"""Seeded workload generation: uniform and YCSB-style zipfian key draws.

Integer keys are encoded big-endian so byte order equals numeric order in
the index.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass

DIST_UNIFORM = "uniform"
DIST_ZIPFIAN = "zipfian"

OP_PUT = "put"
OP_GET = "get"
OP_DELETE = "delete"


def encode_key(n: int) -> bytes:
    return struct.pack(">Q", n)


def decode_key(b: bytes) -> int:
    return struct.unpack(">Q", b)[0]


@dataclass
class WorkloadSpec:
    distribution: str = DIST_UNIFORM
    theta: float = 0.99
    key_min: int = 0
    key_max: int = 2 * 10**9      # exclusive
    value_size: int = 1024
    put_pct: int = 50
    get_pct: int = 40
    delete_pct: int = 10
    op_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.put_pct + self.get_pct + self.delete_pct != 100:
            raise ValueError("op percentages must sum to 100")
        if self.key_max <= self.key_min:
            raise ValueError("empty key range")


class ZipfianGenerator:
    """Ranks drawn with P(rank r) proportional to 1/(r+1)^theta, r in [0, n).

    The standard YCSB/Gray rejection-free construction: closed-form inverse
    using the zeta normalizer.
    """

    def __init__(self, n: int, theta: float = 0.99, rng: random.Random | None = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.theta = theta
        self.rng = rng if rng is not None else random.Random()
        self.zetan = sum(1.0 / (i + 1) ** theta for i in range(n))
        self.zeta2 = 1.0 + 2.0 ** -theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self.zeta2 / self.zetan)

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)

    def rank_probability(self, rank: int) -> float:
        return (1.0 / (rank + 1) ** self.theta) / self.zetan


class KeyGenerator:
    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.n = spec.key_max - spec.key_min
        self._zipf = (
            ZipfianGenerator(self.n, spec.theta, self.rng)
            if spec.distribution == DIST_ZIPFIAN
            else None
        )

    def next_key_int(self) -> int:
        if self._zipf is not None:
            return self.spec.key_min + self._zipf.next()
        return self.rng.randrange(self.spec.key_min, self.spec.key_max)

    def next_key(self) -> bytes:
        return encode_key(self.next_key_int())


def op_stream(spec: WorkloadSpec):
    """Yields (op, key, value) tuples; fully reproducible from the seed."""
    keys = KeyGenerator(spec)
    rng = random.Random(spec.seed ^ 0x5EED)
    value = bytes(spec.value_size)
    thresholds = (spec.put_pct, spec.put_pct + spec.get_pct)
    for i in range(spec.op_count):
        key = keys.next_key()
        roll = rng.randrange(100)
        if roll < thresholds[0]:
            yield OP_PUT, key, _vary(value, i)
        elif roll < thresholds[1]:
            yield OP_GET, key, b""
        else:
            yield OP_DELETE, key, b""


def _vary(value: bytes, i: int) -> bytes:
    """Make values distinguishable without reallocating the whole buffer."""
    tag = struct.pack(">Q", i)
    if len(value) <= 8:
        return tag[:len(value)] if value else tag
    return tag + value[8:]


def analytic_zipf_top1(n: int, theta: float) -> float:
    """Exact probability mass of the most popular key."""
    return 1.0 / sum(1.0 / (i + 1) ** theta for i in range(n))


def chi_square_uniform(counts: list[int]) -> float:
    """Chi-square statistic against a uniform expectation."""
    total = sum(counts)
    expected = total / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


def zeta(n: int, theta: float) -> float:
    return sum(1.0 / (i + 1) ** theta for i in range(n))


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return math.nan
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]
