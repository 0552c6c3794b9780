import numpy as np
import pytest
from conftest import full_plan, sampling_matrix, unit_plan

from nkcca.leverage import SamplingDistribution
from nkcca.sampling import SamplingPlan, sample


def point_mass(n, i):
    p = np.zeros(n)
    p[i] = 1.0
    return SamplingDistribution(p=p)


def uniform_dist(n):
    return SamplingDistribution(p=np.full(n, 1.0 / n))


def test_sample_point_mass():
    plan = sample(point_mass(6, 3), m=4, seed=0)
    np.testing.assert_array_equal(plan.indices, [3, 3, 3, 3])
    np.testing.assert_allclose(plan.weights, np.full(4, 0.5))  # 1/sqrt(4*1)


def test_sample_uniform_weights():
    n, m = 10, 4
    plan = sample(uniform_dist(n), m=m, seed=1)
    np.testing.assert_allclose(plan.weights, np.full(m, np.sqrt(n / m)))


def test_sample_monte_carlo_frequencies():
    p = np.array([0.5, 0.25, 0.25])
    plan = sample(SamplingDistribution(p=p), m=100_000, seed=123)
    freq = np.bincount(plan.indices, minlength=3) / plan.m
    np.testing.assert_allclose(freq, p, atol=0.01)


def test_sample_deterministic():
    dist = uniform_dist(20)
    a = sample(dist, 15, seed=5)
    b = sample(dist, 15, seed=5)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_sample_requires_positive_m():
    with pytest.raises(ValueError):
        sample(uniform_dist(4), m=0, seed=0)


def test_sampling_matrix_gram_is_diagonal_on_support():
    rng = np.random.default_rng(10)
    n = 40
    p = rng.uniform(0.5, 2.0, size=n)
    dist = SamplingDistribution(p=p / p.sum())
    plan = sample(dist, 25, seed=11)
    S = sampling_matrix(plan, n)
    SSt = S @ S.T
    expected = np.zeros(n)
    for j, i in enumerate(plan.indices):
        expected[i] += 1.0 / (plan.m * dist.p[i])
    np.testing.assert_allclose(SSt, np.diag(expected), atol=1e-12)


def test_weight_formula_exact():
    rng = np.random.default_rng(12)
    p = rng.uniform(0.1, 1.0, size=15)
    dist = SamplingDistribution(p=p / p.sum())
    plan = sample(dist, 7, seed=13)
    np.testing.assert_array_equal(
        plan.weights, 1.0 / np.sqrt(plan.m * dist.p[plan.indices]))


def test_full_plan_unit_weights():
    plan = full_plan(6)
    np.testing.assert_array_equal(plan.indices, np.arange(6))
    np.testing.assert_allclose(plan.weights, np.ones(6))
    S = sampling_matrix(plan, 6)
    np.testing.assert_array_equal(S, np.eye(6))


def test_unit_plan_weights_one():
    plan = unit_plan([4, 1, 1])
    np.testing.assert_allclose(plan.weights, np.ones(3))


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(indices=np.array([1, 2]), p_sampled=np.array([0.5]))
    with pytest.raises(ValueError):
        SamplingPlan(indices=np.array([1]), p_sampled=np.array([0.0]))
    # a negative index would silently wrap to a column from the end
    with pytest.raises(ValueError, match="nonnegative"):
        SamplingPlan(indices=np.array([2, -1]), p_sampled=np.array([0.5, 0.5]))


@pytest.mark.parametrize("indices, p_sampled", [
    ([0.5, 1.7], [0.5, 0.5]),
    (np.array([0.0, 1.0]), [0.5, 0.5]),
    ([0, 1], [np.nan, 0.5]),
    ([0, 1], [0.5, np.inf]),
], ids=["fractional_indices", "float_indices", "nan_p", "inf_p"])
def test_plan_rejects_malformed_draws(indices, p_sampled):
    # float indices used to be truncated ([0.5, 1.7] became [0, 1]), and a
    # NaN or infinite probability made its weight NaN or 0
    with pytest.raises(ValueError):
        SamplingPlan(indices=indices, p_sampled=np.array(p_sampled))
