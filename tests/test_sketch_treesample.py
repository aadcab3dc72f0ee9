"""Statistical and structural tests for the tree-based exact KRP leverage sampler.

Three layers of evidence that ``distribution="tree-leverage"`` draws from
*exactly* the Khatri-Rao leverage distribution:

* **oracle** — the per-mode conditional distributions the tree descends with
  factor into the exact joint (an algebraic identity, checked by enumeration);
* **statistical** — empirical draw frequencies match the exact
  ``krp_leverage_scores`` distribution in total-variation distance and pass a
  chi-squared goodness-of-fit test (the heavy sweeps are ``tier2``-marked and
  seed-swept in CI; a quick smoke version stays in tier 1);
* **distributed** — the parallel tree sampler's draws are bitwise identical
  to the sequential ones under the same seed, and its measured ledger equals
  the collective-replay predictor word for word, with strictly fewer setup
  words than the score-gather strategies.
"""

import numpy as np
import pytest

from repro.core.kernels import mttkrp
from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.exceptions import ParameterError
from repro.sketch.costmodel import (
    exact_leverage_setup_words,
    parallel_tree_setup_words,
    tree_build_flops,
    tree_crossover_sample_count,
    tree_draw_flops,
    tree_draw_words,
    tree_sampling_setup_words,
)
from repro.sketch.parallel import (
    parallel_randomized_cp_als,
    parallel_sampled_mttkrp,
    predicted_sampled_ledger,
    reconcile_sampled_mttkrp,
)
from repro.sketch.parallel.sampled_mttkrp import SETUP_LABEL
from repro.sketch.randomized_als import randomized_cp_als
from repro.sketch.sampled_mttkrp import sampled_mttkrp
from repro.sketch.sampling import (
    DISTRIBUTIONS,
    draw_krp_samples,
    factor_leverage_distribution,
    krp_row_distribution,
    leverage_scores,
)
from repro.sketch.treesample import (
    TREE_DISTRIBUTION,
    GramSegmentTree,
    KRPTreeSampler,
    draw_krp_samples_tree,
    tree_descent_levels,
    tree_joint_distribution,
)
from repro.tensor.random import random_factors, random_tensor

SHAPE = (6, 5, 4)
RANK = 3


@pytest.fixture(scope="module")
def base_seed(request):
    return int(request.config.getoption("--seed"))


@pytest.fixture(scope="module")
def factors():
    return random_factors(SHAPE, RANK, seed=0)


@pytest.fixture(scope="module")
def coherent_factors():
    """Factors with geometrically decaying row norms — skewed leverage mass."""
    raw = random_factors(SHAPE, RANK, seed=3)
    return [
        f * np.exp(-6.0 * np.arange(f.shape[0]) / f.shape[0])[:, None] for f in raw
    ]


def total_variation(empirical: np.ndarray, target: np.ndarray) -> float:
    return 0.5 * float(np.abs(empirical - target).sum())


def empirical_frequencies(samples, krp_rows: int) -> np.ndarray:
    freq = np.zeros(krp_rows)
    freq[samples.linear_rows()] = samples.counts / samples.n_draws
    return freq


def chi_squared_statistic(counts, expected, min_expected=5.0):
    """Goodness-of-fit statistic with small-expectation bins pooled.

    Bins are pooled smallest-expected-first until every pooled bin's
    expectation reaches ``min_expected`` (the classical validity rule for the
    chi-squared approximation).  Returns ``(statistic, degrees_of_freedom)``.
    """
    order = np.argsort(expected)
    pooled_obs, pooled_exp = [], []
    acc_obs = acc_exp = 0.0
    for j in order:
        acc_obs += counts[j]
        acc_exp += expected[j]
        if acc_exp >= min_expected:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0.0 and pooled_exp:
        pooled_obs[-1] += acc_obs
        pooled_exp[-1] += acc_exp
    obs = np.asarray(pooled_obs)
    exp = np.asarray(pooled_exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, len(exp) - 1


class TestGramSegmentTree:
    @pytest.fixture(scope="class")
    def tree(self):
        rng = np.random.default_rng(11)
        return GramSegmentTree(rng.standard_normal((13, RANK))), 13

    def test_root_is_full_gram(self, tree):
        t, _ = tree
        leaf_sum = sum(t.node_gram(t.size + i) for i in range(t.n_rows))
        assert np.allclose(t.root_gram, leaf_sum)

    def test_internal_nodes_sum_children(self, tree):
        t, _ = tree
        for v in range(1, t.size):
            assert np.allclose(t.node_gram(v), t.node_gram(2 * v) + t.node_gram(2 * v + 1))

    def test_padded_leaves_are_zero(self, tree):
        t, n_rows = tree
        for i in range(n_rows, t.size):
            assert np.all(t.node_gram(t.size + i) == 0.0)

    def test_descent_is_deterministic_and_in_range(self, tree):
        t, n_rows = tree
        weight = np.linalg.pinv(t.root_gram)
        h = np.ones((40, RANK))
        u = np.random.default_rng(5).random(40)
        first = t.batched_draw(weight, h, u)
        second = t.batched_draw(weight, h, u)
        assert np.array_equal(first, second)
        assert first.min() >= 0
        assert first.max() < n_rows

    def test_node_evaluations_logarithmic(self):
        """Each draw evaluates exactly ``ceil(log2 I) + 1`` node masses."""
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((13, RANK))
        t = GramSegmentTree(matrix)
        weight = np.linalg.pinv(t.root_gram)
        n_draws = 64
        t.node_evaluations = 0
        t.batched_draw(weight, np.ones((n_draws, RANK)), rng.random(n_draws))
        assert t.levels == tree_descent_levels(13) == 4
        assert t.node_evaluations == n_draws * (t.levels + 1)

    def test_single_mode_draws_match_leverage(self):
        """With ``W = (A^T A)^+`` the tree draws one factor's leverage scores."""
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((9, RANK))
        t = GramSegmentTree(matrix)
        weight = np.linalg.pinv(t.root_gram)
        n_draws = 30000
        idx = t.batched_draw(weight, np.ones((n_draws, RANK)), rng.random(n_draws))
        freq = np.bincount(idx, minlength=9) / n_draws
        assert total_variation(freq, factor_leverage_distribution(matrix)) < 0.03

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            GramSegmentTree(np.ones(4))
        with pytest.raises(ParameterError):
            GramSegmentTree(np.ones((0, 2)))
        t = GramSegmentTree(np.ones((4, 2)))
        with pytest.raises(ParameterError):
            t.node_gram(8)
        with pytest.raises(ParameterError):
            # all-zero conditioning vector: every subtree has zero mass
            t.batched_draw(np.eye(2), np.zeros((3, 2)), np.full(3, 0.5))

    @pytest.mark.parametrize("u", [0.3, np.array([0.3]), np.full(5, 0.3), np.full((6, 1), 0.3)])
    def test_rejects_u_not_one_per_draw(self, u):
        """A scalar or length-1 ``u`` must not broadcast onto every draw."""
        t = GramSegmentTree(np.random.default_rng(4).standard_normal((20, 2)))
        with pytest.raises(ParameterError, match="u must hold one uniform per draw"):
            t.batched_draw(np.eye(2), np.ones((6, 2)), u)

    def test_rejects_conditioning_width_mismatch(self):
        t = GramSegmentTree(np.random.default_rng(4).standard_normal((20, 2)))
        with pytest.raises(ParameterError, match="conditioning vectors"):
            t.batched_draw(np.eye(2), np.ones((6, 3)), np.full(6, 0.3))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,)])
    def test_rejects_weight_shape_mismatch(self, shape):
        t = GramSegmentTree(np.random.default_rng(4).standard_normal((20, 2)))
        with pytest.raises(ParameterError, match="weight must have shape"):
            t.batched_draw(np.ones(shape), np.ones((6, 2)), np.full(6, 0.3))


def pairwise_sum_tree(matrix: np.ndarray) -> np.ndarray:
    """Reference heap of partial Grams: one node at a time, children summed."""
    n_rows, rank = matrix.shape
    size = 1 << (n_rows - 1).bit_length()
    grams = np.zeros((2 * size, rank, rank))
    for i in range(n_rows):
        grams[size + i] = np.outer(matrix[i], matrix[i])
    for v in range(size - 1, 0, -1):
        grams[v] = grams[2 * v] + grams[2 * v + 1]
    return grams


def reference_descent(tree, weight, h, u):
    """Scalar per-draw descent evaluating ``h_d^T (W * G_v) h_d`` explicitly.

    Returns the drawn rows and, per draw, the masses the descent compares:
    the root mass followed by one left-child mass per level.
    """
    rows, masses = [], []
    for h_d, u_d in zip(h, u):

        def mass(v):
            return max(float(h_d @ (weight * tree.node_gram(v)) @ h_d), 0.0)

        node = 1
        path = [mass(1)]
        target = u_d * path[0]
        for _ in range(tree.levels):
            left = 2 * node
            left_mass = mass(left)
            path.append(left_mass)
            if target < left_mass:
                node = left
            else:
                node = left + 1
                target -= left_mass
        rows.append(min(node - tree.size, tree.n_rows - 1))
        masses.append(path)
    return np.array(rows, dtype=np.int64), np.array(masses)


class TestDescentOracle:
    """The vectorised descent against a scalar per-draw reference."""

    @pytest.mark.parametrize(
        "n_rows, rank, n_draws",
        [(13, 3, 40), (64, 16, 50), (100, 1, 60), (5, 7, 17), (1, 1, 5), (1, 4, 9)],
    )
    def test_matches_scalar_reference(self, n_rows, rank, n_draws):
        rng = np.random.default_rng(1000 * n_rows + rank)
        matrix = rng.standard_normal((n_rows, rank))
        other = rng.standard_normal((7, rank))
        tree = GramSegmentTree(matrix)
        # A realistic conditional weight: G^+ Hadamard a later mode's Gram.
        weight = np.linalg.pinv(tree.root_gram * (other.T @ other)) * (other.T @ other)
        h = rng.standard_normal((n_draws, rank))
        u = rng.random(n_draws)

        recorded = []
        masses_of = tree._masses

        def spy(*args):
            out = masses_of(*args)
            recorded.append(out.copy())
            return out

        tree._masses = spy
        tree.node_evaluations = 0
        rows = tree.batched_draw(weight, h, u)
        ref_rows, ref_masses = reference_descent(tree, weight, h, u)

        assert rows.dtype == np.int64
        assert np.array_equal(rows, ref_rows)
        got = np.stack(recorded, axis=1)
        assert got.shape == ref_masses.shape == (n_draws, tree.levels + 1)
        scale = ref_masses[:, :1]
        assert np.all(np.abs(got - ref_masses) <= 1e-12 * scale)
        assert tree.node_evaluations == n_draws * (tree.levels + 1)

    @pytest.mark.parametrize("n_rows", [1, 5, 64, 384])
    def test_level_wise_build_matches_pairwise_sums(self, n_rows):
        rng = np.random.default_rng(n_rows)
        matrix = rng.standard_normal((n_rows, 5))
        tree = GramSegmentTree(matrix)
        reference = pairwise_sum_tree(matrix)
        for v in range(1, 2 * tree.size):
            assert np.array_equal(tree.node_gram(v), reference[v])
        for v in range(1, tree.size):
            assert np.array_equal(
                tree.node_gram(v), tree.node_gram(2 * v) + tree.node_gram(2 * v + 1)
            )
        gram = matrix.T @ matrix
        assert np.allclose(tree.root_gram, gram, rtol=1e-12, atol=1e-12 * np.abs(gram).max())


class TestExactnessOracle:
    """The tree's conditionals factor into exactly the leverage joint."""

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_joint_matches_exact_leverage(self, factors, mode):
        assert np.allclose(
            tree_joint_distribution(factors, mode),
            krp_row_distribution(factors, mode, "leverage"),
        )

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_conditionals_factor_into_joint(self, factors, mode):
        """``p(i_1) p(i_2 | i_1)`` enumerated over all prefixes == the joint."""
        sampler = KRPTreeSampler(factors, mode)
        d1, d2 = sampler.dims
        joint = np.empty((d1, d2))
        first = sampler.conditional_distribution([])
        assert np.isclose(first.sum(), 1.0)
        for i1 in range(d1):
            second = sampler.conditional_distribution([i1])
            assert np.isclose(second.sum(), 1.0)
            joint[i1, :] = first[i1] * second
        # Kolda-Bader ordering: the smaller sampled mode varies fastest.
        assert np.allclose(
            joint.ravel(order="F"), krp_row_distribution(factors, mode, "leverage")
        )

    def test_conditional_weight_telescopes(self, factors):
        """``W_t`` absorbs one factor Gram per drawn mode (the descent identity)."""
        sampler = KRPTreeSampler(factors, 0)
        w0 = sampler.conditional_weight(0)
        w1 = sampler.conditional_weight(1)
        assert np.allclose(w0, w1 * sampler.grams[1])
        assert np.allclose(w1, sampler.gram_pinv)

    def test_row_probabilities_match_sample_set(self, factors):
        samples = draw_krp_samples_tree(factors, 1, 300, seed=9)
        assert samples.distribution == TREE_DISTRIBUTION
        joint = krp_row_distribution(factors, 1, "leverage")
        assert np.allclose(samples.probabilities, joint[samples.linear_rows()])

    def test_draws_seed_reproducible(self, factors):
        a = draw_krp_samples_tree(factors, 2, 64, seed=21)
        b = draw_krp_samples(factors, 2, 64, distribution=TREE_DISTRIBUTION, seed=21)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.probabilities, b.probabilities)


class TestStatisticalHarness:
    """Empirical tree-draw frequencies vs the exact leverage distribution."""

    def test_tv_smoke(self, factors):
        """Tier-1 smoke: 20k draws stay within TV 0.08 of the exact joint."""
        joint = krp_row_distribution(factors, 0, "leverage")
        samples = draw_krp_samples_tree(factors, 0, 20000, seed=13)
        tv = total_variation(empirical_frequencies(samples, joint.shape[0]), joint)
        assert tv < 0.08

    @pytest.mark.tier2
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("coherent", [False, True])
    def test_tv_matches_exact_leverage(self, base_seed, factors, coherent_factors, mode, coherent):
        """40k draws match the exact joint within an explicit TV tolerance.

        With ``J <= 30`` rows and ``n = 40000`` draws the expected TV of a
        *correct* sampler is ``~0.5 sqrt(J/n) < 0.02``; the 0.05 tolerance
        leaves a 2.5x margin while still failing any mode whose conditional
        is mis-weighted (the smallest single-mode error observed from
        dropping one Gram from ``W_t`` exceeds 0.15).
        """
        TV_TOLERANCE = 0.05
        facs = coherent_factors if coherent else factors
        joint = krp_row_distribution(facs, mode, "leverage")
        samples = draw_krp_samples_tree(facs, mode, 40000, seed=base_seed + 17 * mode)
        tv = total_variation(empirical_frequencies(samples, joint.shape[0]), joint)
        assert tv < TV_TOLERANCE

    @pytest.mark.tier2
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_chi_squared_goodness_of_fit(self, base_seed, factors, mode):
        """Chi-squared GOF at alpha = 1e-3 against the exact leverage joint."""
        stats = pytest.importorskip("scipy.stats")
        joint = krp_row_distribution(factors, mode, "leverage")
        n_draws = 40000
        samples = draw_krp_samples_tree(factors, mode, n_draws, seed=base_seed + 29 * mode)
        counts = np.zeros(joint.shape[0])
        counts[samples.linear_rows()] = samples.counts
        stat, dof = chi_squared_statistic(counts, n_draws * joint)
        assert dof >= 1
        assert stat < float(stats.chi2.ppf(0.999, dof))

    @pytest.mark.tier2
    def test_tree_and_materialized_leverage_agree_statistically(self, base_seed, factors):
        """Tree draws and materialized-score draws are the same distribution.

        Two-sample check through the shared exact joint: both empirical
        frequency vectors stay within the same TV ball of the same target.
        """
        joint = krp_row_distribution(factors, 0, "leverage")
        tree = draw_krp_samples_tree(factors, 0, 40000, seed=base_seed + 101)
        mat = draw_krp_samples(
            factors, 0, 40000, distribution="leverage", seed=base_seed + 101
        )
        tv_tree = total_variation(empirical_frequencies(tree, joint.shape[0]), joint)
        tv_mat = total_variation(empirical_frequencies(mat, joint.shape[0]), joint)
        assert tv_tree < 0.05
        assert tv_mat < 0.05


class TestSampledKernelIntegration:
    def test_sampled_mttkrp_tree_estimate(self, coherent_factors):
        """The tree-sampled estimator approximates the exact MTTKRP."""
        from repro.tensor.kruskal import KruskalTensor

        tensor = KruskalTensor(coherent_factors).full()
        exact = mttkrp(tensor, coherent_factors, 0)
        report = sampled_mttkrp(
            tensor,
            coherent_factors,
            0,
            n_samples=2000,
            distribution=TREE_DISTRIBUTION,
            seed=5,
            return_report=True,
        )
        rel = np.linalg.norm(report.result - exact) / np.linalg.norm(exact)
        assert rel < 0.1
        assert report.distinct_rows <= 20

    def test_randomized_cp_als_tree(self):
        tensor = random_tensor(SHAPE, seed=1)
        outcome = randomized_cp_als(
            tensor, 2, n_samples=48, distribution=TREE_DISTRIBUTION,
            n_iter_max=3, seed=0,
        )
        assert outcome.distribution == TREE_DISTRIBUTION
        assert np.isfinite(outcome.exact_fit)

    def test_cp_als_sampled_tree_kernel(self):
        tensor = random_tensor(SHAPE, seed=2)
        result = cp_als(tensor, 2, n_iter_max=3, seed=0, kernel="sampled-tree")
        assert result.n_iterations >= 1
        assert all(np.all(np.isfinite(f)) for f in result.model.factors)

    def test_parallel_cp_als_sampled_tree_kernel(self):
        tensor = random_tensor(SHAPE, seed=4)
        result = parallel_cp_als(
            tensor, 2, 4, kernel="sampled-tree", n_iter_max=2, seed=0
        )
        assert result.total_words > 0

    def test_parallel_randomized_cp_als_tree(self):
        tensor = random_tensor(SHAPE, seed=6)
        outcome = parallel_randomized_cp_als(
            tensor, 2, 4, n_samples=24, distribution=TREE_DISTRIBUTION,
            n_iter_max=2, seed=0,
        )
        assert outcome.distribution == TREE_DISTRIBUTION
        assert outcome.total_words > 0


class TestDistributedTree:
    """Satellite: distributed == sequential bitwise; ledger == predictor."""

    @pytest.fixture(scope="class")
    def problem(self):
        return random_tensor((8, 9, 10), seed=0), random_factors((8, 9, 10), RANK, seed=1)

    @pytest.mark.parametrize("grid", [(6, 1, 1), (1, 2, 3), (2, 3, 1), (1, 1, 1)])
    def test_draws_bitwise_match_sequential(self, problem, grid):
        tensor, factors = problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, grid, n_samples=24,
            distribution=TREE_DISTRIBUTION, seed=42,
        )
        report = sampled_mttkrp(
            tensor, factors, 0, n_samples=24,
            distribution=TREE_DISTRIBUTION, seed=42, return_report=True,
        )
        assert np.array_equal(run.samples.indices, report.samples.indices)
        assert np.array_equal(run.samples.counts, report.samples.counts)
        assert np.array_equal(run.samples.probabilities, report.samples.probabilities)
        assert np.allclose(run.assemble(), report.result, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("grid", [(6, 1, 1), (1, 2, 3), (2, 3, 1)])
    def test_ledger_equals_predictor(self, problem, grid):
        tensor, factors = problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, grid, n_samples=24,
            distribution=TREE_DISTRIBUTION, seed=42,
        )
        predicted = predicted_sampled_ledger((8, 9, 10), RANK, 0, grid, run.samples)
        assert np.array_equal(run.machine.words_sent, predicted)
        assert np.array_equal(run.machine.words_received, predicted)

    def test_setup_words_drop_score_gather(self, problem):
        """Tree setup = Gram All-Reduce only, strictly below both alternatives."""
        tensor, factors = problem
        grid = (1, 2, 3)
        setups = {}
        for distribution in ("tree-leverage", "product-leverage", "leverage"):
            run = parallel_sampled_mttkrp(
                tensor, factors, 0, grid, n_samples=24,
                distribution=distribution, seed=42,
            )
            setups[distribution] = run.phase_words()[SETUP_LABEL]
        assert setups["tree-leverage"] > 0
        assert setups["tree-leverage"] < setups["product-leverage"]
        assert setups["tree-leverage"] < setups["leverage"]
        # the measured Gram-All-Reduce-only setup equals the closed form
        assert setups["tree-leverage"] == parallel_tree_setup_words((8, 9, 10), RANK, 0, 6)

    def test_reconcile_measured_equals_predicted(self, problem):
        tensor, factors = problem
        run = reconcile_sampled_mttkrp(
            tensor, factors, 0, 6, n_samples=16,
            distribution=TREE_DISTRIBUTION, seed=5,
        )
        assert run.measured_words == run.predicted_words
        assert run.measured_setup_words > 0
        assert run.distribution == TREE_DISTRIBUTION


class TestTreeCostModel:
    def test_setup_linear_in_factors_not_in_krp(self):
        """Tree setup words are factor-linear; the replaced setup is J-linear."""
        small = (20, 20, 20)
        big = (20, 200, 200)
        assert tree_sampling_setup_words(big, 4, 0) < exact_leverage_setup_words(big, 4, 0)
        # growing J 100x grows the tree setup only 10x (factor extents), but
        # the read-every-score setup ~100x.
        tree_growth = tree_sampling_setup_words(big, 4, 0) / tree_sampling_setup_words(small, 4, 0)
        exact_growth = exact_leverage_setup_words(big, 4, 0) / exact_leverage_setup_words(small, 4, 0)
        assert tree_growth < 11
        assert exact_growth > 50

    def test_draw_flops_logarithmic(self):
        """Per-draw arithmetic grows with log I, not I."""
        base = tree_draw_flops((2, 64, 64), 4, 0, 1)
        wider = tree_draw_flops((2, 4096, 4096), 4, 0, 1)
        # 64x wider factors: a linear-in-I draw would cost 64x, the tree's
        # log2(4096)/log2(64) = 2x bound is not even reached (constant root
        # and h-update terms), and the count is linear in the draw count.
        assert base < wider < 2 * base
        assert tree_draw_flops((2, 64, 64), 4, 0, 10) == 10 * base

    def test_draw_flops_match_sampler_accounting(self, factors):
        sampler = KRPTreeSampler(factors, 0)
        assert sampler.draw_flops(17) == tree_draw_flops(SHAPE, RANK, 0, 17)

    def test_build_flops_and_draw_words_positive(self):
        assert tree_build_flops(SHAPE, RANK, 0) == 2 * (5 + 4) * RANK * RANK
        assert tree_draw_words(SHAPE, RANK, 0, 3) == 3 * (3 + 2) * RANK * RANK

    def test_tree_crossover_survives_where_score_read_closes_it(self):
        """The tree keeps a crossover window where read-every-score closes it.

        On a small-output-mode problem the ``J R`` score-read setup alone
        exceeds the exact blocked algorithm's entire word count — exact
        leverage sampling by materialization can *never* win there — while
        the factor-linear tree setup leaves a positive crossover.
        """
        from repro.costmodel.sequential_model import blocked_cost_simplified

        shape, rank, memory = (2, 256, 256), 8, 2**10
        exact = blocked_cost_simplified(shape, rank, memory)
        score_fixed = shape[0] * rank + exact_leverage_setup_words(shape, rank, 0)
        assert score_fixed > exact  # no window via materialized scores
        assert tree_sampling_setup_words(shape, rank, 0) < exact
        assert tree_crossover_sample_count(shape, rank, 0, memory) > 0.0

    def test_parallel_setup_words_closed_form(self):
        # one R x R Gram All-Reduce per input factor: 2 (P-1) ceil(R^2/P) each
        assert parallel_tree_setup_words((8, 9, 10), 4, 0, 4) == 2 * 2 * 3 * 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            tree_draw_flops(SHAPE, RANK, 0, 0)
        with pytest.raises(ParameterError):
            parallel_tree_setup_words(SHAPE, RANK, 5, 4)


class TestDegenerateFactors:
    """Satellite fix: ParameterError (not NaNs) on degenerate factor input."""

    def test_leverage_scores_rejects_zero_column(self):
        matrix = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ParameterError, match="all-zero column"):
            leverage_scores(matrix)

    def test_factor_leverage_distribution_rejects_zero_column(self):
        matrix = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ParameterError, match="all-zero column"):
            factor_leverage_distribution(matrix)

    def test_leverage_scores_rejects_non_finite(self):
        with pytest.raises(ParameterError, match="finite"):
            leverage_scores(np.array([[1.0, np.nan], [2.0, 0.5]]))
        with pytest.raises(ParameterError, match="finite"):
            leverage_scores(np.array([[1.0, np.inf], [2.0, 0.5]]))

    def test_leverage_scores_rejects_zero_matrix(self):
        with pytest.raises(ParameterError):
            leverage_scores(np.zeros((4, 2)))

    def test_rank_deficient_without_zero_columns_still_works(self):
        """The fix targets dead columns, not rank deficiency in general."""
        scores = leverage_scores(np.ones((5, 3)))
        assert np.isclose(scores.sum(), 1.0)

    def test_tree_sampler_rejects_zero_column_factor(self, factors):
        degenerate = [f.copy() for f in factors]
        degenerate[1][:, 0] = 0.0
        with pytest.raises(ParameterError, match="all-zero column"):
            KRPTreeSampler(degenerate, 0)
        with pytest.raises(ParameterError, match="all-zero column"):
            draw_krp_samples(degenerate, 0, 8, distribution=TREE_DISTRIBUTION, seed=0)

    def test_tree_sampler_rejects_non_finite_factor(self, factors):
        degenerate = [f.copy() for f in factors]
        degenerate[2][0, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            draw_krp_samples(degenerate, 0, 8, distribution=TREE_DISTRIBUTION, seed=0)

    @pytest.mark.parametrize("distribution", ["leverage", "product-leverage", "tree-leverage"])
    def test_joint_distributions_reject_zero_column(self, factors, distribution):
        degenerate = [f.copy() for f in factors]
        degenerate[1][:, 1] = 0.0
        with pytest.raises(ParameterError):
            krp_row_distribution(degenerate, 0, distribution)

    def test_all_distributions_registered(self):
        assert TREE_DISTRIBUTION in DISTRIBUTIONS
