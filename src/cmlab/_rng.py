"""Deterministic chunked randomness for Monte Carlo work.

Every Monte Carlo operation splits its sample budget into ``N_CHUNKS`` fixed
chunks with child seeds derived from the user seed via
``numpy.random.SeedSequence.spawn``.  The chunk layout never depends on the
worker count, so results are bit-identical whether chunks run sequentially
or on a thread pool.

``map_chunks`` runs whole per-chunk computations, on a thread pool of at
most ``CMLAB_THREADS`` workers; the Monte Carlo evaluators
(``consistency_loss``, ``evaluation_error``) and ``sample_marginal`` use it.
The multistep sampler only takes the chunk generators from ``chunk_rngs``
and makes one batched consistency-function call per stage, so
``CMLAB_THREADS`` does not affect it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Fixed fan-out of every Monte Carlo call. Changing this changes the random
# stream, so it is a constant, not a config knob.
N_CHUNKS = 16


def worker_count() -> int:
    """Worker cap from the CMLAB_THREADS environment variable (default 1)."""
    raw = os.environ.get("CMLAB_THREADS", "").strip()
    if not raw:
        return 1
    try:
        k = int(raw)
    except ValueError:
        return 1
    return max(1, min(k, N_CHUNKS))


def chunk_sizes(n: int, n_chunks: int = N_CHUNKS) -> list[int]:
    base, extra = divmod(int(n), n_chunks)
    return [base + (1 if i < extra else 0) for i in range(n_chunks)]


def chunk_rngs(seed, n_chunks: int = N_CHUNKS) -> list[np.random.Generator]:
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n_chunks)]


def map_chunks(fn, n: int, seed) -> list:
    """Run ``fn(rng, size, chunk_index)`` over all chunks, in chunk order.

    The returned list is ordered by chunk index regardless of completion
    order, which is what makes threaded runs reproducible.
    """
    sizes = chunk_sizes(n)
    rngs = chunk_rngs(seed)
    workers = worker_count()
    if workers == 1:
        return [fn(rng, m, i) for i, (rng, m) in enumerate(zip(rngs, sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fn, rng, m, i)
            for i, (rng, m) in enumerate(zip(rngs, sizes))
        ]
        return [f.result() for f in futures]


@dataclass(frozen=True, slots=True)
class MonteCarloEstimate:
    """A Monte Carlo mean with its standard error and sample count."""

    value: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def chunk_moments(values) -> tuple[float, float, int]:
    """The ``(sum, M2, count)`` triple of one chunk's values.

    ``M2`` is the sum of squared deviations from the chunk's own mean.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0, 0.0, 0
    dev = values - values.mean()
    return float(values.sum()), float(dev @ dev), int(values.size)


def merge_moments(parts) -> MonteCarloEstimate:
    """Combine per-chunk ``(sum, M2, count)`` triples (see :func:`chunk_moments`).

    The value is the plain ``sum / n``.  The squared deviations merge by
    Chan's parallel formula, ``M2 = M2_a + M2_b + (mean_b - mean_a)^2
    m_a m_b / (m_a + m_b)``, which never subtracts two large second moments,
    so the standard error keeps its precision when the mean dwarfs the
    spread.
    """
    total = 0.0
    n = 0
    mean = 0.0
    m2 = 0.0
    for s, chunk_m2, m in parts:
        m = int(m)
        if m == 0:
            continue
        total += float(s)
        delta = float(s) / m - mean
        merged = n + m
        mean += delta * m / merged
        m2 += float(chunk_m2) + delta * delta * n * m / merged
        n = merged
    if n < 1:
        raise ValueError("no samples to merge")
    stderr = float(np.sqrt(m2 / n / n))
    return MonteCarloEstimate(value=total / n, stderr=stderr, n=n)
