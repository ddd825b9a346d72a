"""Deterministic chunked randomness for Monte Carlo work.

Every Monte Carlo operation splits its sample budget into ``N_CHUNKS`` fixed
chunks with the child seeds a fresh ``numpy.random.SeedSequence.spawn`` of
the user seed gives, derived without spawning, so results are bit-identical
for a given seed, a reused ``SeedSequence`` included.

``map_chunks`` runs whole per-chunk computations one after another, in
chunk order; the Monte Carlo evaluators (``consistency_loss``,
``evaluation_error``) and ``sample_marginal`` use it.  Their per-chunk
work is many small numpy calls that hold the interpreter lock, so threads
would only contend for it.  The multistep sampler takes the chunk
generators from ``chunk_rngs`` and puts each stage's chunks in one shared
queue, which lanes, one thread per usable CPU, drain: a bulk
``standard_normal`` fill and elementwise arithmetic on each chunk's own
slice, which release the lock and give the same bits for any lane count
and whichever lane takes a chunk.  It then makes one batched
consistency-function call per stage.  A stage's noise reads only the
previous stage's output, so the draws and their bits are the same whether
the sampler keeps every stage or hands each one to a per-stage function,
which runs while the next stage's noise is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fixed fan-out of every Monte Carlo call. Changing this changes the random
# stream, so it is a constant, not a config knob.
N_CHUNKS = 16


def chunk_sizes(n: int) -> list[int]:
    base, extra = divmod(int(n), N_CHUNKS)
    return [base + (1 if i < extra else 0) for i in range(N_CHUNKS)]


def chunk_rngs(seed) -> list[np.random.Generator]:
    """The chunk generators of ``seed``: an int, a sequence of ints or a
    ``numpy.random.SeedSequence``, whose spawn counter is not advanced."""
    if not isinstance(seed, np.random.SeedSequence):
        try:
            seed = np.random.SeedSequence(seed)
        except TypeError:
            raise TypeError(
                "seed must be an int, a sequence of ints or a "
                f"numpy.random.SeedSequence, got {type(seed).__name__}"
            ) from None
    return [
        np.random.default_rng(np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key + (i,), pool_size=seed.pool_size
        ))
        for i in range(N_CHUNKS)
    ]


def map_chunks(fn, n: int, seed) -> list:
    """Run ``fn(rng, size, chunk_index)`` over all chunks, in chunk order."""
    return [
        fn(rng, m, i)
        for i, (rng, m) in enumerate(zip(chunk_rngs(seed), chunk_sizes(n)))
    ]


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
