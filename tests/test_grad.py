import copy
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from omoe_lab import (Rng, grad_check, make_optimizer, model_forward, new_omoe_state, o_step,
                      step_dispatch)
from omoe_lab.errors import ContractViolation
from omoe_lab.grad import Gradients, _loss_with_grad, backward, loss
from omoe_lab.model import expert_forward
from tests.test_model import small_model


def reference_gate_grad(model, tape, targets):
    """Gate-weight gradient by the per-routing-mode formulas backward once used.

    top1: each row's softmax Jacobian restricted to its selected probability,
    accumulated expert by expert. dense: the full Jacobian over every expert.
    """
    p = model.params
    dY = _loss_with_grad(tape.logits, targets)[1] @ p["head.W"]
    probs = tape.routing.weights
    if model.routing == "top1":
        dGl = np.zeros_like(probs)
        for m, span in enumerate(tape.spans):
            idx = tape.order[span]  # the batch rows of m's span of the pairs
            gm = probs[idx, m]
            dp = np.sum(dY[idx] * tape.out[span], axis=1)
            coeff = dp * gm
            dGl[idx] -= coeff[:, None] * probs[idx]
            dGl[idx, m] += coeff
    else:
        dp_all = np.zeros_like(probs)
        for m, span in enumerate(tape.spans):
            dp_all[:, m] = np.sum(dY * tape.out[span], axis=1)
        dGl = probs * (dp_all - np.sum(probs * dp_all, axis=1, keepdims=True))
    return dGl.T @ tape.Z0


def reference_backward(model, tape, targets):
    """Gradients by the per-row fancy-index formulation: each expert gathers its batch
    rows and scatters its input and gate gradients back into them."""
    p = model.params
    loss_value, dlog = _loss_with_grad(tape.logits, targets)
    g = {"head.W": dlog.T @ tape.y_moe, "head.b": dlog.sum(axis=0)}
    dY = dlog @ p["head.W"]
    probs = tape.routing.weights
    dZ0, dP = np.zeros_like(tape.Z0), np.zeros_like(probs)
    for m in range(model.M):
        rows = (slice(None) if model.routing == "dense"
                else np.flatnonzero(np.argmax(probs, axis=1) == m))
        Z_m, dY_m = tape.Z0[rows], dY[rows]
        if Z_m.shape[0] == 0:
            for name in model.expert_names(m):
                g[name] = np.zeros_like(p[name])
            continue
        hidden, out = expert_forward(p, m, Z_m)
        dOut = probs[rows, m][:, None] * dY_m
        dP[rows, m] = np.sum(dY_m * out, axis=1)
        g[f"expert{m}.W2"] = dOut.T @ hidden
        g[f"expert{m}.b2"] = dOut.sum(axis=0)
        dPre1 = (dOut @ p[f"expert{m}.W2"]) * (hidden > 0)
        g[f"expert{m}.W1"] = dPre1.T @ Z_m
        g[f"expert{m}.b1"] = dPre1.sum(axis=0)
        dZ0[rows] += dPre1 @ p[f"expert{m}.W1"]
    dGl = probs * (dP - np.sum(probs * dP, axis=1, keepdims=True))
    g["gate.W"] = dGl.T @ tape.Z0
    dZ0 += dGl @ p["gate.W"]
    g["input_map.W"] = dZ0.T @ tape.X
    g["input_map.b"] = dZ0.sum(axis=0)
    return g, loss_value


class TestLoss:
    def test_ce_uniform_logits(self):
        c = 5
        logits = np.zeros((3, c))
        assert loss(logits, [0, 2, 4]) == pytest.approx(np.log(c))

    def test_ce_hand_value(self):
        # logits (2, 0), target class 0: -ln(e^2 / (e^2 + 1))
        val = loss(np.array([[2.0, 0.0]]), [0])
        e2 = np.exp(2.0)
        assert val == pytest.approx(-np.log(e2 / (e2 + 1)))
        assert val == pytest.approx(0.1269, abs=5e-5)

    def test_shape_mismatch(self):
        # one class index per row of logits
        for targets in ([0], [0, 1, 2]):
            with pytest.raises(ContractViolation, match=f"{len(targets)} targets for 2 rows"):
                loss(np.zeros((2, 3)), targets)

    # a class index must be a whole number in [0, c): -1 once scored class c - 1,
    # c raised a bare IndexError and 0.7 was truncated to class 0
    @pytest.mark.parametrize("bad", [-1, 4, 0.7, np.nan])
    def test_ce_bad_target_named(self, bad):
        with pytest.raises(ContractViolation, match=rf"target {bad!r} in row 1 .*\[0, 4\)"):
            loss(np.zeros((2, 4)), [0, bad])
        model = small_model(c=4)
        _, tape = model_forward(model, np.ones((2, model.dims.d_raw)))
        with pytest.raises(ContractViolation, match=rf"target {bad!r}"):
            backward(model, tape, np.array([bad, 0]))

    def test_ce_whole_float_and_unsigned_targets_accepted(self):
        want = loss(np.zeros((2, 4)), [1, 3])
        assert loss(np.zeros((2, 4)), [1.0, 3.0]) == want
        assert loss(np.zeros((2, 4)), np.array([1, 3], dtype=np.uint8)) == want


class TestBackward:
    def test_tapeless_forward_refused(self):
        # a tape made for evaluation keeps no hidden activations to differentiate
        model = small_model()
        X = np.ones((3, model.dims.d_raw))
        _, tape = model_forward(model, X, backward=False)
        with pytest.raises(ContractViolation, match="keeps no activations"):
            backward(model, tape, np.zeros(3, dtype=int))

    def test_single_linear_layer_hand_gradient(self):
        # Arrange the network to behave as logits = head.W @ x for x = (1, 0):
        # identity input map, pass-through expert, probability-1 gate.
        model = small_model(d_raw=2, d=2, h=2, c=2, M=1, routing="top1")
        p = model.params
        p["input_map.W"] = np.eye(2)
        p["input_map.b"][:] = 0.0
        p["gate.W"][:] = 0.0
        p["expert0.W1"] = np.eye(2)
        p["expert0.b1"][:] = 0.0
        p["expert0.W2"] = np.eye(2)
        p["expert0.b2"][:] = 0.0
        p["head.W"] = np.eye(2)
        p["head.b"][:] = 0.0
        x = np.array([[1.0, 0.0]])
        logits, tape = model_forward(model, x)
        np.testing.assert_allclose(logits, x)
        grads = backward(model, tape, [0])
        # d(cross-entropy)/dW = (softmax(Wx) - e_0) x^T, softmax((1, 0)) = (e, 1) / (e + 1)
        q = 1.0 / (np.e + 1.0)
        np.testing.assert_allclose(grads["head.W"], np.array([[-q, 0.0], [q, 0.0]]))

    def test_zero_token_expert_gets_zero_gradient(self):
        model = small_model(M=3, routing="top1")
        # constant positive Z0 plus opposed gate rows: every token goes to expert 0
        model.params["input_map.W"][:] = 0.0
        model.params["input_map.b"][:] = 1.0
        model.params["gate.W"][0] = 1.0
        model.params["gate.W"][1:] = -1.0
        X = np.random.default_rng(0).normal(size=(6, model.dims.d_raw))
        _, tape = model_forward(model, X)
        grads = backward(model, tape, [0, 1, 2, 0, 1, 2])
        assert set(grads) == set(model.param_names())
        for m in (1, 2):
            assert tape.spans[m] == slice(6, 6)
            for suffix in ("W1", "b1", "W2", "b2"):
                np.testing.assert_array_equal(grads[f"expert{m}.{suffix}"], 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_idle_expert_gradients_exactly_zero(self, seed):
        # an idle expert runs on an empty span: (0 x d)^T @ (0 x h) and a sum over no rows
        # give its four gradients as exact, positive zeros of the parameters' shapes
        model = small_model(seed=seed, M=8, routing="top1")
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(4, model.dims.d_raw))
        _, tape = model_forward(model, X)
        idle = [m for m, span in enumerate(tape.spans) if span.start == span.stop]
        assert idle  # four rows over eight experts
        grads = backward(model, tape, rng.integers(0, model.dims.c, size=4))
        for m in idle:
            for name in model.expert_names(m):
                got = grads[name]
                np.testing.assert_array_equal(got, np.zeros_like(model.params[name]))
                assert not np.signbit(got).any(), name

    def test_doubled_batch_preserves_mean_gradient(self):
        model = small_model(M=2, routing="dense")
        X = np.random.default_rng(2).normal(size=(4, model.dims.d_raw))
        y = [0, 1, 2, 0]
        _, tape1 = model_forward(model, X)
        g1 = backward(model, tape1, y)
        _, tape2 = model_forward(model, np.vstack([X, X]))
        g2 = backward(model, tape2, y + y)
        for name in model.param_names():
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)

    def test_zero_loss_head_gradient_zero(self):
        # a margin of 1000 on the target class rounds its softmax to exactly 1 and every
        # other class's to exactly 0: the loss and the head's gradient are exact zeros
        model = small_model(M=2, routing="dense")
        model.params["head.W"][:] = 0.0
        model.params["head.b"][:] = 0.0
        model.params["head.b"][1] = 1000.0
        X = np.random.default_rng(3).normal(size=(3, model.dims.d_raw))
        _, tape = model_forward(model, X)
        grads = backward(model, tape, [1, 1, 1])
        assert grads.loss == 0.0
        np.testing.assert_array_equal(grads["head.W"], 0.0)
        np.testing.assert_array_equal(grads["head.b"], 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top1_gate_grad_matches_reference(self, seed):
        # unified Jacobian form vs the per-expert top1 formula: the two round
        # differently only in the selected column, so 1e-12 relative (float64)
        model = small_model(seed=seed, M=4, routing="top1")
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, model.dims.d_raw))
        y = rng.integers(0, model.dims.c, size=5)
        _, tape = model_forward(model, X)
        assert any(s.start == s.stop for s in tape.spans)  # some expert gets no rows
        grads = backward(model, tape, y)
        ref = reference_gate_grad(model, tape, y)
        got = grads["gate.W"]
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_dense_gate_grad_equals_reference(self):
        model = small_model(seed=4, M=3, routing="dense")
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, model.dims.d_raw))
        y = rng.integers(0, model.dims.c, size=6)
        _, tape = model_forward(model, X)
        grads = backward(model, tape, y)
        np.testing.assert_array_equal(grads["gate.W"], reference_gate_grad(model, tape, y))

    @pytest.mark.parametrize("routing", ["top1", "dense"])
    @pytest.mark.parametrize("M, N", [(2, 1), (4, 5), (4, 32), (8, 17), (8, 4)])
    def test_equals_per_row_reference(self, routing, M, N):
        # the pair layout changes no matrix an expert sees, so not one bit may differ;
        # (8, 4) leaves top-1 experts idle
        model = small_model(seed=N, M=M, routing=routing)
        rng = np.random.default_rng(N)
        X = rng.normal(size=(N, model.dims.d_raw)) * 3.0
        y = rng.integers(0, model.dims.c, size=N)
        _, tape = model_forward(model, X)
        grads = backward(model, tape, y)
        ref, ref_loss = reference_backward(model, tape, y)
        assert grads.loss == ref_loss
        assert set(grads) == set(ref)
        for name, want in ref.items():
            np.testing.assert_array_equal(grads[name], want, err_msg=name)

    def test_stale_tape_rejected(self):
        model = small_model()
        X = np.random.default_rng(0).normal(size=(2, model.dims.d_raw))
        _, tape = model_forward(model, X)
        model.params["head.b"] += 1.0
        with pytest.raises(ContractViolation):
            backward(model, tape, [0, 1])


def expert_weight_names(M):
    return [f"expert{m}.W{layer}" for m in range(M) for layer in (1, 2)]


class TestFactoredGradients:
    @pytest.mark.parametrize("routing", ["top1", "dense"])
    def test_read_only_ordered_and_same_bits_twice(self, routing):
        model = small_model(seed=4, M=4, routing=routing)
        rng = np.random.default_rng(4)
        X, y = rng.normal(size=(6, model.dims.d_raw)), rng.integers(0, model.dims.c, size=6)
        _, tape = model_forward(model, X)
        grads = backward(model, tape, y)
        assert list(grads) == model.param_names() and len(grads) == len(model.param_names())
        assert "head.b" in grads and "expert0.W1" in grads and "expert9.W1" not in grads
        with pytest.raises(TypeError):
            grads["head.b"] = np.zeros(model.dims.c)
        with pytest.raises(TypeError):
            del grads["expert0.W1"]
        first = {name: grads[name] for name in grads}
        for name in grads:
            np.testing.assert_array_equal(grads[name], first[name], err_msg=name)
            assert grads[name].shape == model.params[name].shape
        for name in expert_weight_names(model.M):  # formed on every read, never kept
            assert grads[name] is not grads[name]
            U, rows = grads.factors(name)
            np.testing.assert_array_equal(U.T @ rows, first[name], err_msg=name)
        with pytest.raises(KeyError):
            grads["expert9.W1"]
        with pytest.raises(KeyError):  # a bias gradient is an array, with no factors
            grads.factors("expert0.b1")

    def test_plain_arrays_keep_their_order(self):
        arrays = {"head.b": np.ones(2), "expert0.W1": np.eye(2)}
        grads = Gradients(arrays, 0.5)
        assert list(grads) == ["head.b", "expert0.W1"] and len(grads) == 2
        assert grads.loss == 0.5 and grads["expert0.W1"] is arrays["expert0.W1"]
        assert "gate.W" not in grads
        with pytest.raises(KeyError):
            grads.factors("expert0.W1")

    def test_entries_do_not_read_the_parameters(self):
        # the factors come from the tape and backward's buffers, so a step that has
        # moved some parameters reads the same gradients for the rest
        model = small_model(seed=6, M=3, routing="top1")
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(9, model.dims.d_raw)), rng.integers(0, model.dims.c, size=9)
        _, tape = model_forward(model, X)
        grads = backward(model, tape, y)
        before = {name: grads[name] for name in grads}
        for arr in model.params.values():
            arr *= -2.0
        for name, want in before.items():
            np.testing.assert_array_equal(grads[name], want, err_msg=name)

    def test_wide_backward_peak_below_the_expert_weight_gradients(self):
        # at the wide benchmark shapes (dense, M=8, 32 rows) backward forms no expert
        # weight gradient: its traced peak above entry, its pair-sized temporaries, is
        # smaller than the 2M expert weight gradients it once built at once
        model = small_model(d_raw=8, d=128, h=256, M=8, routing="dense")
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(32, 8)), rng.integers(0, model.dims.c, size=32)
        _, tape = model_forward(model, X, guard=False)
        backward(model, tape, y)  # warm up numpy's lazily built state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = backward(model, tape, y)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        all_weights = sum(model.params[name].nbytes for name in expert_weight_names(model.M))
        for name in expert_weight_names(model.M):  # held as its two 32-row factors
            assert [part.shape[0] for part in grads.factors(name)] == [32, 32], name
        assert peak < all_weights, (peak, all_weights)


    # top-1 with four rows over eight experts leaves some idle
    @pytest.mark.parametrize("routing, M, rows", [("top1", 8, 4), ("dense", 4, 6)])
    def test_experts_only_holds_the_full_backward_expert_entries(self, routing, M, rows):
        model = small_model(seed=3, M=M, routing=routing)
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(rows, model.dims.d_raw)), rng.integers(0, model.dims.c, rows)
        _, tape = model_forward(model, X)
        if routing == "top1":
            assert any(span.start == span.stop for span in tape.spans)
        full = backward(model, tape, y)
        part = backward(model, tape, y, experts_only=True)
        assert part.loss == full.loss
        held = [name for name in model.param_names() if name.startswith("expert")]
        assert list(part) == held and len(part) == len(held)
        for name in model.param_names():
            assert (name in part) == (name in held), name
        for name in held:
            np.testing.assert_array_equal(part[name], full[name], err_msg=name)
        for name in ("input_map.W", "input_map.b", "gate.W", "head.W", "head.b"):
            with pytest.raises(KeyError):
                part[name]

    @pytest.mark.parametrize("routing, M, rows", [("top1", 8, 4), ("dense", 4, 6)])
    def test_o_step_moves_the_same_bits_from_either_backward(self, routing, M, rows):
        model = small_model(seed=8, M=M, routing=routing)
        state = new_omoe_state(make_optimizer("adamw", 1e-2), model, 3, 10, 1e-3, 0.9, "paper",
                               1e-2)
        rng = np.random.default_rng(8)
        for _ in range(2):  # two R steps buffer means, so the projectors move
            step_dispatch(state, model, rng.normal(size=(rows, model.dims.d_raw)),
                          rng.integers(0, model.dims.c, rows))
        X, y = rng.normal(size=(rows, model.dims.d_raw)), rng.integers(0, model.dims.c, rows)
        _, tape = model_forward(model, X)
        full = backward(model, tape, y)
        part = backward(model, tape, y, experts_only=True)
        twin_model, twin_state = copy.deepcopy((model, state))
        o_step(state, model, full)
        o_step(twin_state, twin_model, part)
        for name in model.param_names():
            np.testing.assert_array_equal(twin_model.params[name], model.params[name], name)
        assert any(proj.updates_applied for proj in state.projectors.values())
        for key, proj in state.projectors.items():
            np.testing.assert_array_equal(twin_state.projectors[key].P, proj.P, str(key))


class TestGradCheck:
    def test_reads_each_gradient_once(self, monkeypatch):
        reads = Counter()
        read = Gradients.__getitem__

        def counting(self, name):
            reads[name] += 1
            return read(self, name)
        monkeypatch.setattr(Gradients, "__getitem__", counting)
        model = small_model(seed=5, M=3, routing="dense")
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, model.dims.d_raw))
        total = sum(v.size for v in model.params.values())
        result = grad_check(model, X, rng.integers(0, model.dims.c, size=6), n_samples=total)
        assert result.checked == total  # every coordinate of every parameter
        assert reads == Counter(model.param_names())

    @pytest.mark.parametrize("routing", ["dense", "top1"])
    def test_analytic_matches_numeric(self, routing):
        model = small_model(seed=11, M=3, routing=routing)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, model.dims.d_raw))
        targets = rng.integers(0, model.dims.c, size=8)
        result = grad_check(model, X, targets, h=1e-5, n_samples=150,
                            rng=np.random.default_rng(0))
        assert result.checked > 0
        assert result.max_rel_error <= 1e-5

    @staticmethod
    def near_tie_model(routing):
        """Experts 0 and 1 have gate rows 1e-6 apart, so a row either of them wins sits
        near a tie, and a step of h = 1e-5 in either gate row can change its winner."""
        model = small_model(seed=3, M=3, routing=routing)
        W = model.params["gate.W"]
        W[1] = W[0] + 1e-6 * np.random.default_rng(3).normal(size=W.shape[1])
        return model

    def test_excludes_exactly_the_routing_changes(self):
        model = self.near_tie_model("top1")
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, model.dims.d_raw))
        targets = rng.integers(0, model.dims.c, size=6)
        h, total = 1e-5, sum(v.size for v in model.params.values())
        result = grad_check(model, X, targets, h=h, n_samples=total)

        def winners():  # each row's expert by the argmax rule, ties to the lowest index
            return np.argmax(model_forward(model, X)[1].routing.weights, axis=1)

        base, changes = winners(), {h: set(), -h: set()}
        for name in model.param_names():
            flat = model.params[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                for step, changed in changes.items():
                    flat[i] = orig + step
                    if not np.array_equal(winners(), base):
                        changed.add((name, i))
                flat[i] = orig
        # some coordinates change a row's expert only at +h, some only at -h
        assert changes[h] - changes[-h] and changes[-h] - changes[h]
        assert sorted(result.excluded) == sorted(changes[h] | changes[-h])
        assert result.checked == total - len(result.excluded) > 0
        assert result.max_rel_error <= 1e-5

    def test_dense_excludes_nothing(self):
        model = self.near_tie_model("dense")
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, model.dims.d_raw))
        total = sum(v.size for v in model.params.values())
        result = grad_check(model, X, rng.integers(0, model.dims.c, size=6), n_samples=total)
        assert result.excluded == [] and result.checked == total
        assert result.max_rel_error <= 1e-5

    def test_h_out_of_range(self):
        model = small_model()
        with pytest.raises(ContractViolation):
            grad_check(model, np.ones((1, model.dims.d_raw)), [0], h=1e-2)

    def test_non_positive_n_samples(self):
        model = small_model()
        for n in (0, -1):  # a check of no coordinates would pass vacuously
            with pytest.raises(ContractViolation, match="n_samples"):
                grad_check(model, np.ones((1, model.dims.d_raw)), [0], n_samples=n)

    def test_model_unchanged_by_check(self):
        model = small_model(M=2)
        before = {k: v.copy() for k, v in model.params.items()}
        X = np.random.default_rng(0).normal(size=(4, model.dims.d_raw))
        grad_check(model, X, [0, 1, 2, 0], n_samples=50)
        for name, arr in before.items():
            np.testing.assert_array_equal(model.params[name], arr)
