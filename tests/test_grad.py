import numpy as np
import pytest

from omoe_lab import Rng, grad_check, model_forward
from omoe_lab.errors import ContractViolation
from omoe_lab.grad import _loss_with_grad, backward, loss
from omoe_lab.model import expert_forward
from tests.test_model import small_model


def reference_gate_grad(model, tape, targets, kind="ce"):
    """Gate-weight gradient by the per-routing-mode formulas backward once used.

    top1: each row's softmax Jacobian restricted to its selected probability,
    accumulated expert by expert. dense: the full Jacobian over every expert.
    """
    p = model.params
    dY = _loss_with_grad(tape.logits, targets, kind)[1] @ p["head.W"]
    probs = tape.routing.weights
    if model.routing == "top1":
        dGl = np.zeros_like(probs)
        for m, span in enumerate(tape.expert_tokens):
            idx = tape.order[span]  # the batch rows of m's span of dispatch order
            gm = probs[idx, m]
            dp = np.sum(dY[idx] * tape.expert_out[m], axis=1)
            coeff = dp * gm
            dGl[idx] -= coeff[:, None] * probs[idx]
            dGl[idx, m] += coeff
    else:
        dp_all = np.zeros_like(probs)
        for m in range(model.M):
            dp_all[:, m] = np.sum(dY * tape.expert_out[m], axis=1)
        dGl = probs * (dp_all - np.sum(probs * dp_all, axis=1, keepdims=True))
    return dGl.T @ tape.Z0


def reference_backward(model, tape, targets, kind="ce"):
    """Gradients by the per-row fancy-index formulation: each expert gathers its batch
    rows and scatters its input and gate gradients back into them."""
    p = model.params
    loss_value, dlog = _loss_with_grad(tape.logits, targets, kind)
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
    def test_mse_zero_residual(self):
        y = np.random.default_rng(0).normal(size=(4, 3))
        assert loss(y, y, "mse") == 0.0

    def test_ce_uniform_logits(self):
        c = 5
        logits = np.zeros((3, c))
        assert loss(logits, [0, 2, 4], "ce") == pytest.approx(np.log(c))

    def test_ce_hand_value(self):
        # logits (2, 0), target class 0: -ln(e^2 / (e^2 + 1))
        val = loss(np.array([[2.0, 0.0]]), [0], "ce")
        e2 = np.exp(2.0)
        assert val == pytest.approx(-np.log(e2 / (e2 + 1)))
        assert val == pytest.approx(0.1269, abs=5e-5)

    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            loss(np.zeros((1, 2)), [0], "hinge")

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            loss(np.zeros((2, 3)), np.zeros((2, 2)), "mse")

    # a class index must be a whole number in [0, c): -1 once scored class c - 1,
    # c raised a bare IndexError and 0.7 was truncated to class 0
    @pytest.mark.parametrize("bad", [-1, 4, 0.7, np.nan])
    def test_ce_bad_target_named(self, bad):
        with pytest.raises(ContractViolation, match=rf"target {bad!r} in row 1 .*\[0, 4\)"):
            loss(np.zeros((2, 4)), [0, bad], "ce")
        model = small_model(c=4)
        _, tape = model_forward(model, np.ones((2, model.dims.d_raw)))
        with pytest.raises(ContractViolation, match=rf"target {bad!r}"):
            backward(model, tape, np.array([bad, 0]), "ce")

    def test_ce_whole_float_and_unsigned_targets_accepted(self):
        want = loss(np.zeros((2, 4)), [1, 3], "ce")
        assert loss(np.zeros((2, 4)), [1.0, 3.0], "ce") == want
        assert loss(np.zeros((2, 4)), np.array([1, 3], dtype=np.uint8), "ce") == want


class TestBackward:
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
        grads = backward(model, tape, np.zeros((1, 2)), "mse")
        # d(0.5 * |Wx - t|^2)/dW = (Wx - t) x^T
        np.testing.assert_allclose(grads.grads["head.W"], np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_zero_token_expert_gets_zero_gradient(self):
        model = small_model(M=3, routing="top1")
        # constant positive Z0 plus opposed gate rows: every token goes to expert 0
        model.params["input_map.W"][:] = 0.0
        model.params["input_map.b"][:] = 1.0
        model.params["gate.W"][0] = 1.0
        model.params["gate.W"][1:] = -1.0
        X = np.random.default_rng(0).normal(size=(6, model.dims.d_raw))
        _, tape = model_forward(model, X)
        grads = backward(model, tape, [0, 1, 2, 0, 1, 2], "ce")
        assert set(grads.grads) == set(model.param_names())
        for m in (1, 2):
            assert tape.expert_tokens[m] == slice(6, 6)
            for suffix in ("W1", "b1", "W2", "b2"):
                np.testing.assert_array_equal(grads.grads[f"expert{m}.{suffix}"], 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_idle_expert_gradients_exactly_zero(self, seed):
        # an idle expert runs on an empty span: (0 x d)^T @ (0 x h) and a sum over no rows
        # give its four gradients as exact, positive zeros of the parameters' shapes
        model = small_model(seed=seed, M=8, routing="top1")
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(4, model.dims.d_raw))
        _, tape = model_forward(model, X)
        idle = [m for m, span in enumerate(tape.expert_tokens) if span.start == span.stop]
        assert idle  # four rows over eight experts
        grads = backward(model, tape, rng.integers(0, model.dims.c, size=4), "ce")
        for m in idle:
            for name in model.expert_names(m):
                got = grads.grads[name]
                np.testing.assert_array_equal(got, np.zeros_like(model.params[name]))
                assert not np.signbit(got).any(), name

    def test_doubled_batch_preserves_mean_gradient(self):
        model = small_model(M=2, routing="dense")
        X = np.random.default_rng(2).normal(size=(4, model.dims.d_raw))
        y = [0, 1, 2, 0]
        _, tape1 = model_forward(model, X)
        g1 = backward(model, tape1, y, "ce")
        _, tape2 = model_forward(model, np.vstack([X, X]))
        g2 = backward(model, tape2, y + y, "ce")
        for name in model.param_names():
            np.testing.assert_allclose(g1.grads[name], g2.grads[name], atol=1e-12)

    def test_zero_loss_head_gradient_zero(self):
        model = small_model(M=2, routing="dense")
        X = np.random.default_rng(3).normal(size=(3, model.dims.d_raw))
        logits, tape = model_forward(model, X)
        grads = backward(model, tape, logits, "mse")  # targets equal outputs
        assert grads.loss == 0.0
        np.testing.assert_allclose(grads.grads["head.W"], 0.0, atol=1e-12)
        np.testing.assert_allclose(grads.grads["head.b"], 0.0, atol=1e-12)

    def test_scaled_residual_scales_gradient(self):
        # MSE gradient is linear in the residual: doubling it doubles every entry
        model = small_model(M=2, routing="dense")
        X = np.random.default_rng(4).normal(size=(3, model.dims.d_raw))
        logits, tape = model_forward(model, X)
        delta = np.random.default_rng(5).normal(size=logits.shape)
        g1 = backward(model, tape, logits - delta, "mse")
        g2 = backward(model, tape, logits - 2 * delta, "mse")
        for name in model.param_names():
            np.testing.assert_allclose(g2.grads[name], 2 * g1.grads[name], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top1_gate_grad_matches_reference(self, seed):
        # unified Jacobian form vs the per-expert top1 formula: the two round
        # differently only in the selected column, so 1e-12 relative (float64)
        model = small_model(seed=seed, M=4, routing="top1")
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, model.dims.d_raw))
        y = rng.integers(0, model.dims.c, size=5)
        _, tape = model_forward(model, X)
        assert any(s.start == s.stop for s in tape.expert_tokens)  # some expert gets no rows
        grads = backward(model, tape, y, "ce")
        ref = reference_gate_grad(model, tape, y)
        got = grads.grads["gate.W"]
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_dense_gate_grad_equals_reference(self):
        model = small_model(seed=4, M=3, routing="dense")
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, model.dims.d_raw))
        y = rng.integers(0, model.dims.c, size=6)
        _, tape = model_forward(model, X)
        grads = backward(model, tape, y, "ce")
        np.testing.assert_array_equal(grads.grads["gate.W"], reference_gate_grad(model, tape, y))

    @pytest.mark.parametrize("routing", ["top1", "dense"])
    @pytest.mark.parametrize("M, N", [(2, 1), (4, 5), (4, 32), (8, 17)])
    @pytest.mark.parametrize("kind", ["ce", "mse"])
    def test_equals_per_row_reference(self, routing, M, N, kind):
        # dispatch order changes no matrix an expert sees, so not one bit may differ
        model = small_model(seed=N, M=M, routing=routing)
        rng = np.random.default_rng(N)
        X = rng.normal(size=(N, model.dims.d_raw)) * 3.0
        y = (rng.integers(0, model.dims.c, size=N) if kind == "ce"
             else rng.normal(size=(N, model.dims.c)))
        _, tape = model_forward(model, X)
        grads = backward(model, tape, y, kind)
        ref, ref_loss = reference_backward(model, tape, y, kind)
        assert grads.loss == ref_loss
        assert set(grads.grads) == set(ref)
        for name, want in ref.items():
            np.testing.assert_array_equal(grads.grads[name], want, err_msg=name)

    def test_stale_tape_rejected(self):
        model = small_model()
        X = np.random.default_rng(0).normal(size=(2, model.dims.d_raw))
        _, tape = model_forward(model, X)
        model.params["head.b"] += 1.0
        with pytest.raises(ContractViolation):
            backward(model, tape, [0, 1], "ce")


class TestGradCheck:
    @pytest.mark.parametrize("routing", ["dense", "top1"])
    @pytest.mark.parametrize("kind", ["ce", "mse"])
    def test_analytic_matches_numeric(self, routing, kind):
        model = small_model(seed=11, M=3, routing=routing)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, model.dims.d_raw))
        if kind == "ce":
            targets = rng.integers(0, model.dims.c, size=8)
        else:
            targets = rng.normal(size=(8, model.dims.c))
        result = grad_check(model, X, targets, kind, h=1e-5, n_samples=150,
                            rng=np.random.default_rng(0))
        assert result.checked > 0
        assert result.max_rel_error <= 1e-5

    def test_h_out_of_range(self):
        model = small_model()
        with pytest.raises(ContractViolation):
            grad_check(model, np.ones((1, model.dims.d_raw)), [0], h=1e-2)

    def test_model_unchanged_by_check(self):
        model = small_model(M=2)
        before = {k: v.copy() for k, v in model.params.items()}
        X = np.random.default_rng(0).normal(size=(4, model.dims.d_raw))
        grad_check(model, X, [0, 1, 2, 0], n_samples=50)
        for name, arr in before.items():
            np.testing.assert_array_equal(model.params[name], arr)
