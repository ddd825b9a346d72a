import numpy as np
import pytest

from cmlab._rng import chunk_moments, chunk_sizes, merge_moments


def _merged(x):
    edges = np.cumsum([0] + chunk_sizes(x.size))
    return merge_moments(chunk_moments(x[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:]))


def test_merge_moments_keeps_precision_at_large_mean():
    # E[x^2] - E[x]^2 cancels catastrophically here; Chan's merge does not.
    x = np.random.default_rng(0).normal(1e8, 1.0, size=100_000)
    est = _merged(x)
    assert est.n == x.size
    assert est.value == pytest.approx(float(x.mean()), rel=1e-15)
    assert est.stderr == pytest.approx(float(x.std() / np.sqrt(x.size)), rel=0.01)


def test_merge_moments_value_is_plain_sum_over_n():
    x = np.random.default_rng(1).exponential(size=1003)
    est = _merged(x)
    edges = np.cumsum([0] + chunk_sizes(x.size))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += float(x[lo:hi].sum())
    assert est.value == total / x.size
    assert est.stderr == pytest.approx(float(x.std() / np.sqrt(x.size)), rel=1e-12)


def test_merge_moments_skips_empty_chunks():
    # five samples over sixteen chunks: eleven chunks are empty
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    est = _merged(x)
    assert est.n == 5
    assert est.value == pytest.approx(6.2, rel=1e-15)
    assert est.stderr == pytest.approx(float(x.std() / np.sqrt(5)), rel=1e-12)
    with pytest.raises(ValueError):
        merge_moments([chunk_moments([])])
