import numpy as np
import pytest

from cmlab import (
    DiscreteTarget,
    MarginalView,
    SamplingTimeSchedule,
    TrainingPartition,
    consistency_loss,
    evaluation_error,
    make_ou,
    multistep_sample,
    quantile_map,
    quantile_perturbed,
    sample_marginal,
)
from cmlab._rng import N_CHUNKS, chunk_moments, chunk_rngs, chunk_sizes, merge_moments


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


def _first_draws(rngs):
    return [rng.random() for rng in rngs]


@pytest.mark.parametrize("make", [
    lambda: np.random.SeedSequence(3),
    lambda: np.random.SeedSequence([7, 0xE5]),
    lambda: np.random.SeedSequence(20).spawn(3)[1],  # a CLI schedule's child
], ids=["int", "list", "child"])
def test_chunk_rngs_are_the_fresh_spawn_children(make):
    seq = make()
    spawned = _first_draws(np.random.default_rng(c) for c in make().spawn(N_CHUNKS))
    assert _first_draws(chunk_rngs(seq)) == spawned
    assert _first_draws(chunk_rngs(seq)) == spawned  # the sequence did not move on
    assert seq.n_children_spawned == 0


def test_reused_seed_sequence_gives_the_same_draws():
    atoms = DiscreteTarget([0.0, 100.0], [0.5, 0.5])
    ou = make_ou()
    fhat = quantile_perturbed(atoms, ou, kappa=1e-2)
    view = MarginalView(atoms, ou, 1.0)
    runs = {
        "multistep_sample": lambda ss: multistep_sample(
            fhat, ou, SamplingTimeSchedule((4.0, 1.0)), 50, ss),
        "sample_marginal": lambda ss: sample_marginal(view, 50, ss),
        "evaluation_error": lambda ss: evaluation_error(
            fhat, quantile_map(atoms, ou), view, 400, ss),
        "consistency_loss": lambda ss: consistency_loss(
            fhat, atoms, ou, TrainingPartition(0.5, 4), 1, 200, ss),
    }
    for name, run in runs.items():
        seq = np.random.SeedSequence(3)
        first, second = run(seq), run(seq)
        if isinstance(first, np.ndarray):
            assert first.tobytes() == second.tobytes(), name
            assert first.tobytes() == run(3).tobytes(), name
        else:
            assert first == second == run(3), name


@pytest.mark.parametrize("seed", [np.random.default_rng(0), 1.5, "3"],
                         ids=["generator", "float", "str"])
def test_chunk_rngs_rejects_other_seeds(seed):
    with pytest.raises(TypeError, match="an int, a sequence of ints or a numpy.random.SeedSequence"):
        chunk_rngs(seed)
