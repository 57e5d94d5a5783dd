"""Property-based tests (hypothesis) for the algebraic contracts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omoe_lab import (OrthoProjector, direct_projector, model_param_variance,
                      model_similar_fraction)
from omoe_lab.linalg import sym_eigvals
from tests.test_metrics import with_experts

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# entries within a few similarity thresholds (1e-3) of each other, or far apart
near = st.one_of(finite, st.floats(min_value=-3e-3, max_value=3e-3))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=8),
       st.floats(min_value=1e-4, max_value=1.0))
def test_projector_symmetry_and_spectrum(d, seeds, alpha):
    proj = OrthoProjector(d)
    for s in seeds:
        x = np.random.default_rng(s).normal(size=d)
        proj.rls_update(x, alpha)
    assert np.max(np.abs(proj.P - proj.P.T)) <= 1e-10
    eigs = sym_eigvals(proj.P)
    assert eigs.min() >= -1e-10 and eigs.max() <= 1 + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.floats(min_value=1e-3, max_value=1.0))
def test_recursion_matches_direct_oracle(d, m, seed, alpha):
    cols = np.random.default_rng(seed).normal(size=(d, m))
    proj = OrthoProjector(d)
    for j in range(m):
        proj.rls_update(cols[:, j], alpha)
    oracle = direct_projector(cols, alpha)
    assert np.linalg.norm(proj.P - oracle) <= 1e-9 * max(np.linalg.norm(oracle), 1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.data())
def test_similar_fraction_bounds_and_symmetry(h, data):
    entries = st.lists(near, min_size=3 * h + 1, max_size=3 * h + 1)  # one expert's
    a, b = np.array(data.draw(entries)), np.array(data.draw(entries))
    v = model_similar_fraction(with_experts([a, b], h=h))
    assert 0.0 <= v <= 1.0
    assert v == model_similar_fraction(with_experts([b, a], h=h))
    assert model_similar_fraction(with_experts([a, a], h=h)) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2 ** 32 - 1), finite)
def test_variance_translation_and_permutation_invariance(m, h, seed, shift):
    rng = np.random.default_rng(seed)
    experts = [rng.normal(size=3 * h + 1) for _ in range(m)]
    base = model_param_variance(with_experts(experts, h=h))
    assert base >= 0.0
    shifted = model_param_variance(with_experts([e + shift for e in experts], h=h))
    assert abs(shifted - base) <= 1e-9 * max(1.0, base)
    permuted = model_param_variance(with_experts(experts[::-1], h=h))
    assert abs(permuted - base) <= 1e-12 * max(1.0, base)
