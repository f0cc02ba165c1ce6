"""Policy heads: distributions, log-probs, entropy, values, and their
agreement with quadrature / Monte-Carlo / finite-difference oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from poemrl import nn, policy as pol
from poemrl.autodiff import NumericalError
from poemrl.nn import ParamVector
from poemrl.policy import ActorCritic, Categorical, DiagGaussian, DiagGaussianHead

from conftest import central_diff, make_categorical_ac, make_gaussian_ac, max_rel_err
from row_sampler import CategoricalRow, GaussianRow, one_row_distribution, sample_row


def zeroed(ac: ActorCritic) -> ActorCritic:
    return ac.with_params(np.zeros(len(ac.params)))


class TestDistribution:
    def test_zero_weight_actor_gives_standard_normal(self):
        ac = zeroed(make_gaussian_ac(action_dim=2))
        dist = pol.distribution(ac, [[0.7, -0.3]])
        assert isinstance(dist, DiagGaussian)
        assert np.array_equal(dist.mean, [[0.0, 0.0]])
        assert np.array_equal(dist.std, [1.0, 1.0])

    def test_zero_logits_give_uniform(self):
        ac = zeroed(make_categorical_ac(n_actions=4))
        dist = pol.distribution(ac, [[1.0, 2.0]])
        assert isinstance(dist, Categorical)
        assert dist.probs.shape == (1, 4)
        assert np.allclose(dist.probs, 0.25)

    def test_categorical_probs_normalized(self, rng):
        ac = make_categorical_ac(n_actions=5, seed=3)
        ac.params.data[:] = rng.normal(scale=2.0, size=len(ac.params))
        probs = pol.distribution(ac, rng.normal(size=(20, 2))).probs
        assert probs.shape == (20, 5)
        for row in probs:
            assert abs(row.sum() - 1.0) <= 1e-12
            assert np.all(row >= 0.0)

    def test_obs_length_checked(self):
        ac = make_gaussian_ac(obs_dim=3)
        with pytest.raises(ValueError):
            pol.distribution(ac, [[1.0, 2.0]])
        with pytest.raises(ValueError):  # one observation is not a batch
            pol.distribution(ac, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n_obs", [1, 2, 15])
    @pytest.mark.parametrize("make_ac", [
        lambda seed: make_gaussian_ac(obs_dim=3, action_dim=2, hidden=(7, 5), seed=seed),
        lambda seed: make_categorical_ac(obs_dim=3, n_actions=4, hidden=(9,), seed=seed),
    ], ids=["gaussian", "categorical"])
    def test_batch_equals_one_row_passes(self, rng, make_ac, n_obs):
        ac = make_ac(n_obs)
        ac.params.data[:] = rng.normal(size=len(ac.params))
        obs = rng.normal(scale=3.0, size=(n_obs, 3))
        dist = pol.distribution(ac, obs)
        refs = [one_row_distribution(ac, o) for o in obs]
        if isinstance(ac.head, DiagGaussianHead):
            assert isinstance(dist, DiagGaussian)
            assert dist.mean.shape == (n_obs, 2) and dist.std.shape == (2,)
            for i, ref in enumerate(refs):
                assert np.array_equal(dist.mean[i], ref.mean), i
                assert np.array_equal(dist.std, ref.std), i
        else:
            assert isinstance(dist, Categorical)
            assert dist.probs.shape == (n_obs, 4)
            for i, ref in enumerate(refs):
                assert np.array_equal(dist.probs[i], ref.probs), i

    def test_non_finite_actor_output_raises(self):
        ac = make_categorical_ac()
        with pytest.raises(NumericalError):
            pol.distribution(ac, [[0.5, 0.5], [np.nan, 0.5], [0.5, 0.5]])

    def test_std_matches_the_np_clip_formula(self, rng):
        special = [math.nan, math.inf, -math.inf, 0.0, -0.0, pol.LOG_STD_MIN, pol.LOG_STD_MAX,
                   np.nextafter(pol.LOG_STD_MIN, -math.inf), np.nextafter(pol.LOG_STD_MAX, math.inf)]
        log_std = np.concatenate([special, rng.normal(scale=15.0, size=200)])
        ac = make_gaussian_ac(action_dim=len(log_std))
        ac.log_std[:] = log_std
        std = pol.distribution(ac, [[0.3, -0.2]]).std
        expected = np.exp(np.clip(log_std, pol.LOG_STD_MIN, pol.LOG_STD_MAX))
        assert [repr(x) for x in std.tolist()] == [repr(x) for x in expected.tolist()]


    def test_log_std_clip_has_np_clip_bits(self, rng):
        # the one clip of log_std that distribution, logp_batch, the entropy and the head's VJP use
        log_std = np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, pol.LOG_STD_MIN, pol.LOG_STD_MAX,
                            np.nextafter(pol.LOG_STD_MIN, -math.inf), np.nextafter(pol.LOG_STD_MAX, math.inf),
                            *rng.normal(scale=15.0, size=50)])
        clipped = pol._clip_log_std(log_std)
        assert clipped.tobytes() == np.clip(log_std, pol.LOG_STD_MIN, pol.LOG_STD_MAX).tobytes()


class FixedDraw:
    """A generator stand-in whose uniform draw is chosen, so that a draw can
    land exactly on a step of the CDF or above its rounded top."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


class TestSample:
    def test_deterministic_returns_mode(self, rng):
        g = zeroed(make_gaussian_ac(action_dim=2))
        g.actor_layers[-1][1][:] = [0.4, -1.0]
        assert np.array_equal(pol.act(g, np.ones((2, 2))), [[0.4, -1.0], [0.4, -1.0]])
        c = zeroed(make_categorical_ac(n_actions=3))
        c.actor_layers[-1][1][:] = np.log([0.2, 0.5, 0.3])
        assert pol.act(c, np.ones((2, 2))).tolist() == [1, 1]
        # on random weights: the means, and each probs row's argmax
        g.params.data[:] = rng.normal(size=len(g.params))
        c.params.data[:] = rng.normal(scale=3.0, size=len(c.params))
        obs = rng.normal(size=(3, 2))
        assert np.array_equal(pol.act(g, obs), pol.distribution(g, obs).mean)
        assert pol.act(c, obs).tolist() == [int(np.argmax(row)) for row in pol.distribution(c, obs).probs]

    @pytest.mark.parametrize("shape", [(3, 1), (3, 3), (2,), (1, 1, 2)])
    @pytest.mark.parametrize("make_ac", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    def test_obs_of_the_wrong_shape_is_refused_on_every_path(self, make_ac, shape):
        # an (E, 1) batch on a 2-dim policy would broadcast against both input weights
        ac = make_ac()
        obs = np.full(shape, 0.5)
        rngs = [np.random.default_rng(0) for _ in obs]
        for call in (lambda: pol.act(ac, obs), lambda: pol.act(ac, obs, rngs), lambda: pol.distribution(ac, obs)):
            with pytest.raises(ValueError, match=re.escape(f"obs shape {shape} does not match (E, 2)")):
                call()

    def test_floor_guarded_std_collapses_to_mean(self):
        ac = make_gaussian_ac()
        ac.params.data[ac.actor_spec.n_params] = -1e9  # log_std below the floor
        dist = pol.distribution(ac, [[0.1, 0.1]])
        assert dist.std[0] == math.exp(pol.LOG_STD_MIN)
        action = dist.sample([np.random.default_rng(5)])
        assert abs(action[0, 0] - dist.mean[0, 0]) < 1e-7

    def test_replay_is_identical(self):
        g = DiagGaussian(mean=np.array([[0.0]]), std=np.array([1.0]))
        a1 = g.sample([np.random.default_rng(77)])
        a2 = g.sample([np.random.default_rng(77)])
        assert np.array_equal(a1, a2)
        c = Categorical(probs=np.array([[0.1, 0.2, 0.7]]))
        assert c.sample([np.random.default_rng(9)]) == c.sample([np.random.default_rng(9)])

    def test_inverse_cdf_hits_all_bins(self, rng):
        c = Categorical(probs=np.tile([0.5, 0.25, 0.25], (2000, 1)))
        draws = c.sample([rng] * 2000)
        counts = np.bincount(draws, minlength=3) / 2000
        assert np.allclose(counts, c.probs[0], atol=0.05)

    def test_draw_above_the_rounded_top_takes_the_last_action(self):
        c = Categorical(probs=np.array([[0.7380289979116733, 0.21375794350507327, 0.04821305858325322]]))
        assert np.cumsum(c.probs, axis=1)[0, -1] < 1.0 - 2.0**-53  # the CDF rounds to below the largest draw
        assert c.sample([FixedDraw(1.0 - 2.0**-53)]).tolist() == [2]


# near-zero, tied and ordinary weights; each row is normalised to sum to 1
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1e3, allow_subnormal=True),
)


@st.composite
def batched_distributions(draw):
    """A batched distribution of E in {1, 3, 15} rows and a maker of one
    generator per row. A repeated seed makes rows share one generator, which
    they draw in order; categorical rows may instead get chosen draws."""
    n = draw(st.sampled_from([1, 3, 15]))
    seeds = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))

    def seeded():
        generators = {seed: np.random.default_rng(seed) for seed in seeds}
        return [generators[seed] for seed in seeds]

    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        finite = st.floats(-1e6, 1e6, allow_subnormal=True)
        mean = np.array(draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=n, max_size=n)))
        std = np.array(draw(st.lists(st.floats(0.0, 1e3, allow_subnormal=True), min_size=d, max_size=d)))
        return DiagGaussian(mean=mean.reshape(n, d), std=std), seeded
    k = draw(st.integers(2, 7))
    rows = []
    for _ in range(n):
        row = draw(st.lists(WEIGHTS, min_size=k, max_size=k).filter(lambda w: sum(w) > 0.0))
        if draw(st.booleans()):  # ties: one weight repeated across the row
            row = [row[0]] * k if row[0] > 0.0 else row
        rows.append(np.array(row) / sum(row))
    probs = np.array(rows)
    if draw(st.booleans()):
        return Categorical(probs=probs), seeded
    draws = [draw(st.one_of(st.sampled_from([*np.cumsum(row).tolist(), 0.0, 1.0 - 2.0**-53]),
                            st.floats(0.0, 1.0, exclude_max=True))) for row in probs]
    return Categorical(probs=probs), lambda: [FixedDraw(u) for u in draws]


def row_of(dist, i):
    if isinstance(dist, DiagGaussian):
        return GaussianRow(mean=dist.mean[i], std=dist.std)
    return CategoricalRow(probs=dist.probs[i])


@settings(max_examples=500, deadline=None)
@given(batched_distributions())
def test_batched_sample_equals_per_row_draws(case):
    dist, make_rngs = case
    got = dist.sample(make_rngs())
    want = np.array([sample_row(row_of(dist, i), rng) for i, rng in enumerate(make_rngs())])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert [repr(x) for x in got.ravel().tolist()] == [repr(x) for x in want.ravel().tolist()]


def closed_form_logp(dist: DiagGaussian | Categorical, i: int, action) -> float:
    """Reference log pi(a|s) from row i's mean/std or probs."""
    if isinstance(dist, DiagGaussian):
        return float(stats.norm.logpdf(action, dist.mean[i], dist.std).sum())
    return math.log(dist.probs[i, action])


def gaussian_ac(mean: float, std: float) -> ActorCritic:
    """A one-action Gaussian policy with the given state-independent mean and std."""
    ac = zeroed(make_gaussian_ac())
    ac.actor_layers[-1][1][:] = mean
    ac.log_std[:] = math.log(std)
    return ac


class TestLogProb:
    def test_standard_normal_at_zero(self):
        ac = zeroed(make_gaussian_ac())
        assert abs(pol.logp_batch(ac, np.zeros((1, 2)), np.array([[0.0]]))[0] - (-0.9189385)) < 1e-6

    def test_standard_normal_at_one(self):
        ac = zeroed(make_gaussian_ac())
        assert abs(pol.logp_batch(ac, np.zeros((1, 2)), np.array([[1.0]]))[0] - (-1.4189385)) < 1e-6

    def test_uniform_categorical(self):
        ac = zeroed(make_categorical_ac(n_actions=4))
        logps = pol.logp_batch(ac, np.ones((4, 2)), np.arange(4))
        for a in range(4):
            assert abs(logps[a] - math.log(0.25)) < 1e-12

    def test_gaussian_normalizes_by_quadrature(self):
        ac = gaussian_ac(0.3, 1.7)
        xs = np.linspace(0.3 - 8 * 1.7, 0.3 + 8 * 1.7, 20001)
        dens = np.exp(pol.logp_batch(ac, np.zeros((len(xs), 2)), xs[:, None]))
        integral = np.trapezoid(dens, xs)
        assert abs(integral - 1.0) <= 1e-6

    def test_categorical_mass_sums_to_one(self, rng):
        ac = make_categorical_ac(n_actions=6, seed=1)
        ac.params.data[:] = rng.normal(size=len(ac.params))
        obs = np.tile(rng.normal(size=2), (6, 1))
        total = sum(math.exp(lp) for lp in pol.logp_batch(ac, obs, np.arange(6)))
        assert abs(total - 1.0) <= 1e-12


class TestEntropy:
    def test_unit_gaussian(self):
        ac = zeroed(make_gaussian_ac())
        assert abs(pol.entropy_mean(ac, np.zeros((3, 2))) - 1.4189385) < 1e-6

    def test_uniform_categorical_is_max_entropy(self):
        ac = zeroed(make_categorical_ac(n_actions=4))
        assert abs(pol.entropy_mean(ac, np.ones((3, 2))) - math.log(4)) < 1e-12

    def test_one_hot_categorical_is_zero(self):
        ac = zeroed(make_categorical_ac(n_actions=3))
        ac.actor_layers[-1][1][:] = [0.0, 1e3, 0.0]  # the other probabilities underflow to 0
        assert pol.entropy_mean(ac, np.ones((3, 2))) == 0.0

    def test_gaussian_entropy_matches_monte_carlo(self):
        ac = gaussian_ac(0.5, 0.8)
        g = pol.distribution(ac, [[0.0, 0.0]])
        rng = np.random.default_rng(42)
        samples = g.mean + g.std * rng.standard_normal((100_000, 1))
        logps = pol.logp_batch(ac, np.zeros((len(samples), 2)), samples)
        est = -logps.mean()
        se = logps.std(ddof=1) / math.sqrt(len(logps))
        assert abs(est - pol.entropy_mean(ac, np.zeros((1, 2)))) <= 3 * se


class TestValue:
    def test_zero_weight_critic(self):
        ac = zeroed(make_gaussian_ac())
        assert pol.value(ac, [0.4, 0.4]) == 0.0

    def test_affine_critic(self):
        ac = ActorCritic.create(1, DiagGaussianHead(1), hidden_sizes=(), seed=0)
        ac.params.data[:] = 0.0
        base = ac.n_policy
        ac.params.data[base] = 2.0  # critic w
        ac.params.data[base + 1] = 1.0  # critic b
        assert pol.value(ac, [3.0]) == 7.0

    def test_deterministic(self):
        ac = make_gaussian_ac(seed=8)
        obs = [0.2, -0.9]
        assert pol.value(ac, obs) == pol.value(ac, obs)


class TestWithParams:
    @staticmethod
    def assert_views_read(ac: ActorCritic, data: np.ndarray) -> None:
        """Every layer, log_std and critic view of `ac` reads `data` at its layout entry."""
        views = [v for layer in ac.actor_layers for v in layer] + [ac.log_std] * bool(ac.head.n_log_std) + [
            v for layer in ac.critic_layers for v in layer]
        assert len(views) == len(ac.params.layout)
        for view, e in zip(views, ac.params.layout):
            assert np.shares_memory(view, data), e.name
            assert np.array_equal(view, data[e.offset : e.offset + e.size].reshape(e.shape)), e.name

    @pytest.mark.parametrize("make", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    def test_views_alias_the_new_vector(self, make, rng):
        ac = make(seed=3, hidden=(4, 3))
        data = rng.normal(size=len(ac.params))
        new = ac.with_params(data)
        assert new.params.data is data and new.obs_scale is ac.obs_scale
        self.assert_views_read(new, data)
        data[:] = rng.normal(size=data.size)  # a write into the vector shows through every view
        self.assert_views_read(new, data)
        obs = rng.normal(size=(5, 2))
        actions = pol.act(new, obs, [np.random.default_rng(i) for i in range(5)])
        built = ActorCritic(ac.actor_spec, ac.critic_spec, ac.head, ParamVector(data.copy(), ac.params.layout),
                            ac.obs_scale)
        assert np.array_equal(pol.logp_batch(new, obs, actions), pol.logp_batch(built, obs, actions))
        assert np.array_equal(pol.values_batch(new, obs), pol.values_batch(built, obs))

    @pytest.mark.parametrize("make", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    def test_wrong_length_or_rank_is_refused_and_the_old_policy_is_unchanged(self, make):
        ac = make(seed=4)
        data, before = ac.params.data, ac.params.data.copy()
        n = len(ac.params)
        for bad, message in ((np.zeros(n - 1), "data has"), (np.zeros(n + 1), "data has"),
                             (np.zeros((1, n)), "one-dimensional"), (np.zeros(()), "one-dimensional")):
            with pytest.raises(ValueError, match=message):
                ac.with_params(bad)
        new = ac.with_params(np.zeros(n))
        assert not np.array_equal(new.params.data, before)
        assert ac.params.data is data and np.array_equal(data, before)
        self.assert_views_read(ac, data)


class TestBatchPaths:
    def test_logp_batch_matches_per_sample(self, rng):
        for make in (make_gaussian_ac, make_categorical_ac):
            ac = make(seed=2)
            ac.params.data[:] = rng.normal(scale=0.5, size=len(ac.params))
            obs = rng.normal(size=(6, 2))
            if isinstance(ac.head, DiagGaussianHead):
                actions = rng.normal(size=(6, 1))
            else:
                actions = rng.integers(0, ac.head.n_actions, size=6)
            batch = pol.logp_batch(ac, obs, actions)
            dist = pol.distribution(ac, obs)
            singles = [closed_form_logp(dist, i, a) for i, a in enumerate(actions)]
            assert np.allclose(batch, singles, atol=1e-12)

    def test_values_batch_matches_per_sample(self, rng):
        ac = make_gaussian_ac(seed=4)
        obs = rng.normal(size=(5, 2))
        assert np.allclose(pol.values_batch(ac, obs), [pol.value(ac, o) for o in obs])

    def test_logp_batch_with_replacement_policy_params(self, rng):
        ac = make_gaussian_ac(seed=6)
        obs = rng.normal(size=(4, 2))
        actions = rng.normal(size=(4, 1))
        same = pol.logp_batch(ac, obs, actions, policy_params=ac.policy_params())
        assert np.array_equal(same, pol.logp_batch(ac, obs, actions))
        other = ac.policy_params()
        other[-1] += 0.3  # log_std shift
        shifted = pol.logp_batch(ac, obs, actions, policy_params=other)
        assert not np.allclose(shifted, same)


class TestTapeComposition:
    def test_logp_gradient_matches_finite_differences(self, rng):
        for make in (make_gaussian_ac, make_categorical_ac):
            ac = make(seed=7)
            ac.params.data[:] = rng.normal(scale=0.5, size=len(ac.params))
            obs = rng.normal(size=(5, 2))
            if isinstance(ac.head, DiagGaussianHead):
                actions = rng.normal(size=(5, 1))
            else:
                actions = rng.integers(0, ac.head.n_actions, size=5)

            leaves = nn.make_leaves(ac.params)
            logp_t, _ = pol.policy_graph(ac, leaves, obs, actions)
            from poemrl import autodiff as ad

            ad.tmean(logp_t).backward()
            analytic = nn.collect_leaf_grads(leaves, ac.params.layout)

            def scalar(theta):
                probe = ac.with_params(theta)
                return float(pol.logp_batch(probe, obs, actions).mean())

            fd = central_diff(scalar, ac.params.data)
            assert max_rel_err(analytic, fd) <= 1e-5
