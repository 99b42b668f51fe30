"""Deterministic random-number helpers shared across the library.

The simulator, the workload generators and the trainers all need seeded,
reproducible randomness.  Everything funnels through :class:`random.Random`
instances derived from a single root seed so that a whole experiment is
replayable from one integer.

The Zipf sampler implements the standard inverse-CDF construction used by
YCSB-style benchmark generators; the paper varies contention in TPC-E and the
micro-benchmark by sweeping the Zipf ``theta`` parameter (§7.4).
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")

_SPAWN_STRIDE = 0x9E3779B97F4A7C15  # golden-ratio increment, decorrelates child seeds

#: salt for spawning per-evaluation simulator seeds during training.  The
#: process-pool evaluation engine derives evaluation *i*'s simulator seed as
#: ``derive_seed(config.seed, EVAL_RNG_SALT, i)`` (the fitness config's
#: seed); because the index is assigned
#: in deterministic submission order, ``--jobs 1`` and ``--jobs N`` hand every
#: evaluation the same seed and produce bit-identical training artifacts.
#: Kept well away from worker ids (small ints) and ``FAULT_RNG_SALT``.
EVAL_RNG_SALT = 0x4556414C  # "EVAL"


def derive_seed(root_seed: int, *salts: int) -> int:
    """Derive a child seed from ``root_seed`` and a tuple of integer salts.

    The derivation mixes each salt with a golden-ratio stride so that
    neighbouring salts (worker ids, iteration numbers) produce well-separated
    child seeds.
    """
    seed = root_seed & 0xFFFFFFFFFFFFFFFF
    for salt in salts:
        seed ^= (salt + _SPAWN_STRIDE + (seed << 6) + (seed >> 2)) & 0xFFFFFFFFFFFFFFFF
        seed &= 0xFFFFFFFFFFFFFFFF
    return seed


def spawn_rng(root_seed: int, *salts: int) -> random.Random:
    """Create an independent :class:`random.Random` for a component."""
    return random.Random(derive_seed(root_seed, *salts))


class ZipfSampler:
    """Samples integers in ``[0, n)`` with Zipfian skew ``theta``.

    ``theta == 0`` degenerates to the uniform distribution.  Larger ``theta``
    concentrates probability mass on small ranks; the sampled rank is then
    scattered over the key space with a fixed permutation multiplier so that
    hot keys are not physically adjacent (the usual YCSB trick).

    The implementation precomputes the CDF once (O(n)) and samples with a
    binary search (O(log n)); for the key-space sizes used in the paper's
    micro-benchmark (4K hot range) this is exact and fast.  For very large
    ranges with ``theta == 0`` we bypass the table entirely.
    """

    #: key-space scatter multiplier (coprime with any power of two)
    _SCATTER = 0x5BD1E995

    def __init__(self, n: int, theta: float, rng: Optional[random.Random] = None,
                 scramble: bool = True) -> None:
        if n <= 0:
            raise ValueError("ZipfSampler requires n > 0")
        if theta < 0:
            raise ValueError("ZipfSampler requires theta >= 0")
        self.n = n
        self.theta = theta
        self.scramble = scramble
        self._rng = rng if rng is not None else random.Random()
        self._cdf: Optional[List[float]] = None
        if theta > 0:
            weights = [1.0 / ((rank + 1) ** theta) for rank in range(n)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cdf[-1] = 1.0
            self._cdf = cdf

    def sample(self) -> int:
        """Draw one key in ``[0, n)``."""
        if self._cdf is None:
            return self._rng.randrange(self.n)
        rank = bisect.bisect_left(self._cdf, self._rng.random())
        if not self.scramble:
            return rank
        return (rank * self._SCATTER) % self.n

    def sample_many(self, k: int) -> List[int]:
        """Draw ``k`` keys (with replacement)."""
        return [self.sample() for _ in range(k)]


def nurand(rng: random.Random, a: int, x: int, y: int, c: int = 7911) -> int:
    """TPC-C NURand non-uniform random function (clause 2.1.6)."""
    return (((rng.randint(0, a) | rng.randint(x, y)) + c) % (y - x + 1)) + x


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one of ``items`` with the given relative ``weights``."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    index = bisect.bisect_left(cumulative, point)
    if index >= len(items):  # guard against floating-point edge
        index = len(items) - 1
    return items[index]


def last_name_syllables(num: int) -> str:
    """TPC-C customer last-name generator (clause 4.3.2.3)."""
    syllables = ("BAR", "OUGHT", "ABLE", "PRI", "PRES",
                 "ESE", "ANTI", "CALLY", "ATION", "EING")
    return syllables[(num // 100) % 10] + syllables[(num // 10) % 10] + syllables[num % 10]
