import copy
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from omoe_lab import (diverse_degree, diversity_report, expert_param_variance,
                      load_entropy, model_forward, model_param_variance, model_similar_fraction,
                      output_variance, similar_fraction)
from omoe_lab.errors import ContractViolation
from omoe_lab.metrics import SIMILARITY_THRESHOLD
from omoe_lab.model import RoutingRecord
from tests.test_model import small_model


def expert_vector(model, m):
    """Expert m's parameters as one vector, in its parameter order."""
    return np.concatenate([model.params[n].ravel() for n in model.expert_names(m)])


class TestExpertParamVariance:
    def test_identical_experts_zero(self):
        assert expert_param_variance([np.ones(5), np.ones(5)]) == 0.0

    def test_hand_population_variance(self):
        assert expert_param_variance([np.array([1.0]), np.array([3.0])]) == 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        experts = [rng.normal(size=6) for _ in range(3)]
        base = expert_param_variance(experts)
        shifted = expert_param_variance([e + 7.5 for e in experts])
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_ordering_invariance(self):
        rng = np.random.default_rng(1)
        experts = [rng.normal(size=4) for _ in range(4)]
        assert expert_param_variance(experts) == pytest.approx(
            expert_param_variance(experts[::-1]), rel=1e-12)

    def test_single_expert_rejected(self):
        with pytest.raises(ContractViolation):
            expert_param_variance([np.ones(3)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            expert_param_variance([np.ones(3), np.ones(4)])

    def test_model_variant_replicate_zero(self):
        assert model_param_variance(small_model(init="replicate", M=3)) == 0.0

    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_bits_of_stacked_formula(self, M, n):
        # the experts are read in place, with the bits of the stacked formula
        for seed in range(10):
            rng = np.random.default_rng(seed)
            experts = [rng.normal(size=n) * 10.0 ** rng.integers(-5, 3, size=n)
                       for _ in range(M)]
            stack = np.stack(experts)
            assert expert_param_variance(experts) == float(
                np.mean(np.var(stack - stack[0], axis=0))), seed


class TestSimilarFraction:
    def test_equal_vectors(self):
        assert similar_fraction(np.ones(4), np.ones(4)) == 1.0

    def test_hand_half(self):
        assert SIMILARITY_THRESHOLD == 1e-3
        assert similar_fraction([0.0, 0.0], [5e-4, 5e-3]) == 0.5

    def test_unequal_within_threshold(self):
        assert similar_fraction([0.0, 0.0], [9e-4, -9e-4]) == 1.0
        assert similar_fraction([0.0], [SIMILARITY_THRESHOLD]) == 0.0  # strictly below

    def test_model_similar_fraction_replicate(self):
        assert model_similar_fraction(small_model(init="replicate", M=3)) == 1.0


class TestDiverseDegree:
    def test_equal_models_zero(self):
        model = small_model(M=3)
        assert diverse_degree(model, copy.deepcopy(model)) == 0.0

    def test_hand_single_entry(self):
        a = small_model(d_raw=1, d=1, h=1, c=1, M=2, init="replicate")
        b = copy.deepcopy(a)
        for name in ("W1", "b1", "W2", "b2"):
            for model in (a, b):
                model.params[f"expert0.{name}"][:] = 0.0
            a.params[f"expert1.{name}"][:] = 1.0
            b.params[f"expert1.{name}"][:] = 0.5
        assert diverse_degree(a, b) == 1.0

    def test_complementarity_under_swap(self):
        a = small_model(seed=1, M=3)
        b = small_model(seed=2, M=3)
        v = diverse_degree(a, b)
        w = diverse_degree(b, a)
        # v counts strict wins for a, w strict wins for b; ties (here: the
        # zero-initialized biases, equal in both models) make up the rest
        assert 0.0 <= v + w <= 1.0 + 1e-12
        ties = total = 0
        for i, j in combinations(range(3), 2):
            da = np.abs(expert_vector(a, i) - expert_vector(a, j))
            db = np.abs(expert_vector(b, i) - expert_vector(b, j))
            ties += int(np.sum(da == db))
            total += da.size
        assert v + w + ties / total == pytest.approx(1.0, abs=1e-12)

    def test_architecture_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            diverse_degree(small_model(M=2), small_model(M=3))

    def test_one_expert_rejected(self):
        # one expert makes no pair: named, not a division by zero
        with pytest.raises(ContractViolation, match="at least two experts, got M = 1"):
            diverse_degree(small_model(M=1), small_model(M=1))


class TestOutputVariance:
    def test_replicate_zero(self):
        model = small_model(init="replicate", M=3)
        assert output_variance(model, np.ones(model.dims.d_raw)) == 0.0

    def test_hand_constant_outputs(self):
        model = small_model(d_raw=2, d=2, h=2, c=2, M=2, init="replicate")
        for m, val in ((0, 1.0), (1, 3.0)):
            model.params[f"expert{m}.W1"][:] = 0.0
            model.params[f"expert{m}.W2"][:] = 0.0
            model.params[f"expert{m}.b1"][:] = 0.0
            model.params[f"expert{m}.b2"][:] = val  # expert outputs (val, val)
        assert output_variance(model, np.zeros(2)) == 1.0

    def test_ordering_invariance(self):
        model = small_model(M=3, init="independent")
        swapped = copy.deepcopy(model)
        for name in ("W1", "b1", "W2", "b2"):
            swapped.params[f"expert0.{name}"], swapped.params[f"expert2.{name}"] = \
                swapped.params[f"expert2.{name}"], swapped.params[f"expert0.{name}"]
        x = np.ones(model.dims.d_raw)
        assert output_variance(model, x) == pytest.approx(output_variance(swapped, x),
                                                          rel=1e-12)

    def test_single_expert_rejected(self):
        model = small_model(M=1)
        with pytest.raises(ContractViolation):
            output_variance(model, np.ones(model.dims.d_raw))


class TestLoadEntropy:
    def test_point_mass_zero(self):
        rec = RoutingRecord(np.ones((5, 3)) / 3, np.zeros(5, dtype=int))
        assert load_entropy(rec) == 0.0

    def test_uniform_four_experts(self):
        rec = RoutingRecord(np.ones((8, 4)) / 4, np.array([0, 1, 2, 3] * 2))
        assert load_entropy(rec) == pytest.approx(np.log(4))
        assert load_entropy(rec) == pytest.approx(1.3863, abs=5e-5)

    def test_hand_three_one_split(self):
        rec = RoutingRecord(np.ones((4, 2)) / 2, np.array([0, 0, 0, 1]))
        expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert load_entropy(rec) == pytest.approx(expected)
        assert load_entropy(rec) == pytest.approx(0.5623, abs=5e-5)

    def test_dense_uses_soft_weights(self):
        w = np.array([[0.75, 0.25], [0.75, 0.25]])
        rec = RoutingRecord(w, None)
        expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert load_entropy(rec) == pytest.approx(expected)

    def test_empty_rejected(self):
        for selected in (np.zeros(0, dtype=int), None):  # a zero-row top-1 or dense record
            with pytest.raises(ContractViolation, match="at least one token"):
                load_entropy(RoutingRecord(np.zeros((0, 3)), selected))


class TestDiversityDiagnostics:
    def test_schema_and_values(self):
        model = small_model(M=3, init="independent")
        rec = RoutingRecord(np.ones((6, 3)) / 3, np.array([0, 1, 2, 0, 1, 2]))
        d = diversity_report(model, np.ones(model.dims.d_raw), rec)
        assert set(d) == {"param_variance", "similar_fraction",
                          "output_variance", "load_entropy"}
        assert d["param_variance"] == model_param_variance(model)
        assert d["load_entropy"] == pytest.approx(np.log(3))


class TestBlockwiseEqualsWholeVector:
    """The model-level metrics walk one parameter kind at a time; each must give the
    bits of its formula over whole expert vectors."""

    @staticmethod
    def trained_looking(seed, M, init, d, h):
        # spread the experts by several scales so every metric lands away from 0 and 1,
        # with some entries inside and some outside the similarity threshold
        model = small_model(seed=seed, d=d, h=h, M=M, init=init)
        rng = np.random.default_rng(seed)
        for name in [n for n in model.param_names() if n.startswith("expert")]:
            arr = model.params[name]
            arr += rng.normal(size=arr.shape) * 10.0 ** rng.integers(-5, 0, size=arr.shape)
        return model

    @pytest.mark.parametrize("init", ["replicate", "independent"])
    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("d, h", [(4, 5), (1, 1)])  # (1, 1): one-entry bias blocks
    def test_exactly_equal(self, init, M, d, h):
        a = self.trained_looking(M, M, init, d, h)
        b = self.trained_looking(M + 100, M, init, d, h)
        vecs_a = [expert_vector(a, m) for m in range(M)]
        vecs_b = [expert_vector(b, m) for m in range(M)]
        stacked = np.stack(vecs_a)
        assert model_param_variance(a) == float(np.mean(np.var(stacked - stacked[0], axis=0)))
        pairs = list(combinations(range(M), 2))
        similar = [float(np.mean(np.abs(vecs_a[i] - vecs_a[j]) < SIMILARITY_THRESHOLD))
                   for i, j in pairs]
        assert model_similar_fraction(a) == float(np.mean(similar))
        larger = sum(int(np.sum(np.abs(vecs_a[i] - vecs_a[j]) > np.abs(vecs_b[i] - vecs_b[j])))
                     for i, j in pairs)
        assert diverse_degree(a, b) == larger / (len(pairs) * vecs_a[0].size)

    @pytest.mark.parametrize("M", [8, 12])
    def test_one_entry_blocks(self, M):
        # numpy sums a one-column stack pairwise from 8 rows up, which can round
        # differently from the row-order sum of the whole-vector formula
        for seed in range(40):
            model = self.trained_looking(seed, M, "replicate", 1, 1)
            stacked = np.stack([expert_vector(model, m) for m in range(M)])
            assert model_param_variance(model) == float(
                np.mean(np.var(stacked - stacked[0], axis=0))), seed

    def test_replicate_untouched_is_zero_and_one(self):
        model = small_model(M=8, init="replicate")
        assert model_param_variance(model) == 0.0
        assert model_similar_fraction(model) == 1.0
        assert diverse_degree(model, copy.deepcopy(model)) == 0.0

    def test_wide_report_holds_no_whole_stack(self):
        # at the wide benchmark shapes, stacking every expert's full parameter vector
        # once costs M x expert floats x 8 B; the report's traced peak stays below that
        model = small_model(d_raw=8, d=128, h=256, M=8, init="independent", routing="dense")
        X = np.random.default_rng(0).normal(size=(400, 8))
        _, tape = model_forward(model, X, backward=False)
        diversity_report(model, X[0], tape.routing)  # warm up numpy's lazily built state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            diversity_report(model, X[0], tape.routing)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        whole_stack = model.M * expert_vector(model, 0).size * 8
        assert peak < whole_stack, (peak, whole_stack)

    def test_wide_variance_holds_no_kind_stack(self):
        # at the wide benchmark shapes one parameter kind's (M, n) stack, W1's, is
        # M x h x d x 8 B = 2 MiB; the experts' arrays are read in place instead
        model = small_model(d_raw=8, d=128, h=256, M=8, init="independent")
        model_param_variance(model)  # warm up numpy's lazily built state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model_param_variance(model)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kind_stack = model.M * model.params["expert0.W1"].nbytes
        assert peak < kind_stack, (peak, kind_stack)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_non_finite_entry_gives_nan(self, value, m):
        # as the whole-vector formula's stack - stack[0] does, the anchor expert included
        model = self.trained_looking(0, 3, "independent", 4, 5)
        model.params[f"expert{m}.W1"].flat[1] = value
        stacked = np.stack([expert_vector(model, k) for k in range(3)])
        with np.errstate(invalid="ignore"):
            whole = float(np.mean(np.var(stacked - stacked[0], axis=0)))
            assert np.isnan(model_param_variance(model)) and np.isnan(whole)
