import base64
import copy
import hashlib
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest

from omoe_lab import (Rng, average_projector, grad_check, load_model, load_optimizer,
                      make_optimizer, model_forward, new_omoe_state, o_step, r_step, save_model,
                      save_optimizer, step_dispatch)
from omoe_lab import harness, optim
from omoe_lab.cli import main
from omoe_lab.errors import ConfigError, ContractViolation
from omoe_lab.grad import Gradients, backward
from omoe_lab.harness import _eval_score, make_config, train_single
from omoe_lab.linalg import sym_eigvals
from omoe_lab.model import MoEModel, _decode
from omoe_lab.optim import (_STATE_SCALARS, GATHER_BELOW, OPTIMIZERS, RANGES, MacCounter,
                            OMoEState, StepOutcome, check_ranges)
from tests.test_model import small_model


def scalar_step(kind, lr, p0, g0, **hyper):
    opt = make_optimizer(kind, lr, **hyper)
    params = {"w": np.array([p0])}
    opt.step(params, {"w": np.array([g0])})
    return float(params["w"][0])


class TestBaseOptimizers:
    def test_sgd_hand_step(self):
        assert scalar_step("sgd", 0.1, 1.0, 2.0) == pytest.approx(0.8)

    def test_adamw_hand_first_step(self):
        # bias-corrected moments both equal the gradient on step 1, so the update
        # is lr * 1/(1 + eps) plus the decoupled decay lr * wd * p
        got = scalar_step("adamw", 1e-3, 1.0, 1.0)
        expected = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8)) - 1e-3 * 0.01 * 1.0
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.99899, abs=5e-6)

    def test_adam_first_step_magnitude(self):
        got = scalar_step("adam", 1e-3, 1.0, 5.0)
        assert got == pytest.approx(1.0 - 1e-3, abs=1e-6)  # sign-like first step

    def test_rmsprop_first_step(self):
        # v = (1-rho) g^2; step = lr g / (sqrt(v) + eps)
        got = scalar_step("rmsprop", 1e-3, 1.0, 2.0)
        expected = 1.0 - 1e-3 * 2.0 / (np.sqrt(0.01 * 4.0) + 1e-8)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_adagrad_first_step(self):
        got = scalar_step("adagrad", 0.1, 1.0, 3.0)
        expected = 1.0 - 0.1 * 3.0 / (3.0 + 1e-10)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamw", "rmsprop", "adagrad"])
    def test_multi_step_matches_out_of_place_formulas(self, kind):
        # the reference rebuilds every moment as a new array at each step, one
        # parameter at a time; the optimizer's gathered in-place step must give
        # the same bits, for the small parameters and for the one that steps alone.
        # Adam's moments follow the textbook expressions; its parameter step is the
        # re-associated lr/c1 * m / (sqrt(v) * (1/sqrt(c2)) + eps), AdamW's decay a
        # multiply by 1 - lr*wd taken first
        lr, b1, b2, eps, wd, rho, ada_eps = 0.05, 0.9, 0.999, 1e-8, 0.01, 0.99, 1e-10
        shapes = {"a": (3, 4), "b": (5,), "big": (GATHER_BELOW // 64, 64), "c": (2, 2)}
        rng = np.random.default_rng(11)
        p_ref = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = {name: p.copy() for name, p in p_ref.items()}
        ref = {name: {k: np.zeros(shape) for k in ("m", "v", "G")}
               for name, shape in shapes.items()}
        arrays = dict(params)  # the step writes into these, whether gathered or not
        opt = make_optimizer(kind, lr)
        for t in range(1, 6):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            opt.step(params, grads)
            assert all(params[name] is arrays[name] for name in shapes)
            for name, g in grads.items():
                r, p = ref[name], p_ref[name]
                if kind == "sgd":
                    p = p - lr * g
                elif kind in ("adam", "adamw"):
                    if kind == "adamw":
                        p = p * (1 - lr * wd)
                    r["m"] = b1 * r["m"] + (1 - b1) * g
                    r["v"] = b2 * r["v"] + (1 - b2) * g * g
                    denom = np.sqrt(r["v"]) * (1 / math.sqrt(1 - b2 ** t)) + eps
                    p = p - r["m"] / denom * (lr / (1 - b1 ** t))
                elif kind == "rmsprop":
                    r["v"] = rho * r["v"] + (1 - rho) * g * g
                    p = p - lr * g / (np.sqrt(r["v"]) + eps)
                else:
                    r["G"] = r["G"] + g * g
                    p = p - lr * g / (np.sqrt(r["G"]) + ada_eps)
                p_ref[name] = p
                np.testing.assert_array_equal(params[name], p)
            if kind == "sgd":
                assert opt.state == {}
                continue
            assert list(opt.state) == list(shapes)
            for name in shapes:
                assert set(opt.state[name]) == set(opt.moments)
                for k, buf in opt.state[name].items():
                    np.testing.assert_array_equal(buf, ref[name][k])

    @pytest.mark.parametrize("kind", ["adam", "adamw"])
    def test_long_run_stays_near_the_textbook_formula(self, kind):
        # the re-associated step drifts from the textbook bias-corrected expression
        # only by rounding: after 200 steps every parameter, gathered or alone, is
        # within rtol 1e-12 of it
        lr, b1, b2, eps, wd = 1e-3, 0.9, 0.999, 1e-8, 0.01
        shapes = {"a": (3, 4), "big": (GATHER_BELOW // 64, 64)}
        rng = np.random.default_rng(12)
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        ref = {name: p.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        opt = make_optimizer(kind, lr)
        for t in range(1, 201):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            opt.step(params, grads)
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                mhat, vhat = m[name] / (1 - b1 ** t), v[name] / (1 - b2 ** t)
                decay = lr * wd * ref[name] if kind == "adamw" else 0.0
                ref[name] = ref[name] - lr * mhat / (np.sqrt(vhat) + eps) - decay
        for name in shapes:
            np.testing.assert_allclose(params[name], ref[name], rtol=1e-12, atol=0)
            assert not np.array_equal(params[name], ref[name])  # the association differs

    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            make_optimizer("lion", 1e-3)

    def test_kind_is_case_sensitive(self):
        with pytest.raises(ContractViolation, match="unknown optimizer kind 'ADAMW'"):
            make_optimizer("ADAMW", 1e-3)

    def test_state_floats(self):
        for kind, factor in (("sgd", 0), ("adam", 2), ("adamw", 2),
                             ("rmsprop", 1), ("adagrad", 1)):
            assert make_optimizer(kind, 1e-3).state_floats(17) == factor * 17


def make_state(model, s=5, n_total=100, base_kind="sgd", lr=0.1, **schedule):
    """An OMoE state over ``model``: alpha0 1e-3, lambda 0.9, the paper's averaging norm and
    O steps at the base lr, unless ``schedule`` says otherwise."""
    base = make_optimizer(base_kind, lr)
    return new_omoe_state(base, model, s, n_total, **{
        "alpha0": 1e-3, "lam": 0.9, "avg_norm": "paper", "o_lr": lr, **schedule})


def grads_for(model, X, y):
    """(gradients, tape) of one forward and backward pass."""
    _, tape = model_forward(model, X)
    return backward(model, tape, y), tape


class TestRStep:
    def test_updates_all_params_and_buffers(self):
        model = small_model(M=2, routing="dense")
        state = make_state(model)
        X = np.random.default_rng(0).normal(size=(4, model.dims.d_raw))
        before = {k: v.copy() for k, v in model.params.items()}
        grads, tape = grads_for(model, X, [0, 1, 2, 0])
        out = r_step(state, model, grads)
        assert out.kind == "R"
        assert any(not np.array_equal(model.params[n], before[n])
                   for n in model.param_names())
        assert state.e == 2
        assert state.means_produced == 4  # 2 experts x 2 layers, dense routing
        assert all(len(v) == 1 for v in state.buffers.values())

    def test_zero_token_expert_no_buffer_entry(self):
        model = small_model(M=2, routing="top1")
        # constant positive Z0 plus opposed gate rows routes everything to expert 0
        model.params["input_map.W"][:] = 0.0
        model.params["input_map.b"][:] = 1.0
        model.params["gate.W"][0] = 1.0
        model.params["gate.W"][1] = -1.0
        state = make_state(model)
        X = np.random.default_rng(0).normal(size=(4, model.dims.d_raw))
        grads, tape = grads_for(model, X, [0, 1, 2, 0])
        r_step(state, model, grads)
        assert len(state.buffers[(0, 1)]) == 1
        assert len(state.buffers[(1, 1)]) == 0

    def test_buffered_means_equal_tape_row_means(self):
        # bit for bit: r_step's sum / count is what ndarray.mean computes over an expert's
        # input rows and its span of the hidden buffer; an idle expert (top-1 with four rows
        # over eight experts) buffers nothing
        for routing in ("dense", "top1"):
            model = small_model(M=8, routing=routing)
            state = make_state(model)
            X = np.random.default_rng(1).normal(size=(4, model.dims.d_raw))
            grads, tape = grads_for(model, X, [0, 1, 2, 0])
            r_step(state, model, grads)
            spans = tape.spans
            assert any(s.start == s.stop for s in spans) == (routing == "top1")
            for m, span in enumerate(spans):
                busy = span.stop > span.start
                rows = tape.Z0[tape.order[span]]  # the batch rows of m's pairs
                for layer, acts in ((1, rows), (2, tape.hidden[span])):
                    entries = state.buffers[(m, layer)]
                    assert len(entries) == busy
                    if busy:
                        assert entries[0][0] == 1  # the batch index of the step
                        np.testing.assert_array_equal(entries[0][1], acts.mean(axis=0))
            assert state.means_produced == 2 * sum(s.stop > s.start for s in spans)

    def test_idle_experts_step_without_warning(self):
        # eight experts, four-row batches: idle experts run on empty spans, and neither
        # their forward, backward nor a mean over their rows may divide 0 by 0
        model = small_model(M=8, routing="top1")
        state = make_state(model, s=2)
        rng = np.random.default_rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(4):
                X = rng.normal(size=(4, model.dims.d_raw))
                step_dispatch(state, model, X, rng.integers(0, model.dims.c, size=4))
        assert state.e == 5 and 0 < state.means_produced <= 16  # 2 R steps, <= 4 busy experts

    def test_projectors_untouched(self):
        model = small_model(M=2, routing="dense")
        state = make_state(model)
        X = np.random.default_rng(0).normal(size=(4, model.dims.d_raw))
        grads, tape = grads_for(model, X, [0, 1, 2, 0])
        r_step(state, model, grads)
        for proj in state.projectors.values():
            np.testing.assert_array_equal(proj.P, np.eye(proj.d))


def averaged(state, m, layer):
    """Expert m's averaged projector, from the layer's sum as ``o_step`` forms it."""
    total, norm = average_projector(state, layer)
    return (total - state.projectors[(m, layer)].P) / norm


def random_projector(rng, d):
    """A random symmetric positive definite matrix with eigenvalues in (0, 1]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * rng.uniform(0.05, 1.0, size=d)) @ q.T


class TestAverageProjector:
    def test_paper_literal_identities(self):
        model = small_model(M=4)
        state = make_state(model, avg_norm="paper")
        np.testing.assert_allclose(averaged(state, 0, 1), 0.75 * np.eye(model.dims.d))

    def test_proper_mean_identities(self):
        model = small_model(M=4)
        state = make_state(model, avg_norm="proper")
        np.testing.assert_allclose(averaged(state, 0, 1), np.eye(model.dims.d))

    def test_two_experts_paper_halves(self):
        model = small_model(M=2)
        state = make_state(model, avg_norm="paper")
        other = np.random.default_rng(0).normal(size=(model.dims.d, model.dims.d))
        other = (other + other.T) / 2
        state.projectors[(1, 1)].P = other
        np.testing.assert_allclose(averaged(state, 0, 1), 0.5 * other)

    def test_sum_leaves_projectors_untouched(self):
        model = small_model(M=3)
        state = make_state(model)
        rng = np.random.default_rng(1)
        for proj in state.projectors.values():
            proj.P = random_projector(rng, proj.d)
        before = {key: proj.P.copy() for key, proj in state.projectors.items()}
        total, norm = average_projector(state, 2)
        assert norm == 3
        np.testing.assert_allclose(total, sum(before[(m, 2)] for m in range(3)), rtol=1e-15)
        for key, proj in state.projectors.items():
            np.testing.assert_array_equal(proj.P, before[key])

    def test_single_expert_rejected(self):
        # no average projector is built for one expert: the state refuses M = 1
        with pytest.raises(ContractViolation, match=r"^M: must be >= 2 and be finite, got 1$"):
            make_state(small_model(M=1))

    def test_bad_avg_norm_rejected(self):
        model = small_model(M=2)
        with pytest.raises(ContractViolation):
            make_state(model, avg_norm="mean")


class TestOStep:
    def test_identity_projection_equals_sgd_on_theta(self):
        model = small_model(M=2, routing="dense")
        twin = copy.deepcopy(model)
        state = make_state(model, avg_norm="proper", lr=0.1)
        X = np.random.default_rng(0).normal(size=(4, model.dims.d_raw))
        grads, _ = grads_for(model, X, [0, 1, 2, 0])
        out = o_step(state, model, grads)
        assert out.kind == "O"
        for name in [n for n in model.param_names() if n.startswith("expert")]:
            np.testing.assert_allclose(model.params[name],
                                       twin.params[name] - 0.1 * grads[name],
                                       atol=1e-12)
        for name in [n for n in model.param_names() if not n.startswith("expert")]:
            np.testing.assert_array_equal(model.params[name], twin.params[name])

    def test_zero_projector_freezes_weights_not_biases(self):
        model = small_model(M=2, routing="dense")
        twin = copy.deepcopy(model)
        state = make_state(model, lr=0.1)
        for proj in state.projectors.values():
            proj.P[:] = 0.0
        X = np.random.default_rng(0).normal(size=(4, model.dims.d_raw))
        grads, _ = grads_for(model, X, [0, 1, 2, 0])
        o_step(state, model, grads)
        for m in range(2):
            for w in ("W1", "W2"):
                np.testing.assert_array_equal(model.params[f"expert{m}.{w}"],
                                              twin.params[f"expert{m}.{w}"])
            for b in ("b1", "b2"):
                np.testing.assert_allclose(
                    model.params[f"expert{m}.{b}"],
                    twin.params[f"expert{m}.{b}"] - 0.1 * grads[f"expert{m}.{b}"],
                    atol=1e-12)

    def test_hand_projected_delta(self):
        # G = [[1, 1]], Pbar = diag(0.5, 1), lr = 0.1 -> delta = -0.1 * [[0.5, 1]]
        G = np.array([[1.0, 1.0]])
        pbar = np.diag([0.5, 1.0])
        np.testing.assert_allclose(-0.1 * (G @ pbar), np.array([[-0.05, -0.1]]))

    def test_single_expert_raises_with_remediation(self):
        # an O step projects by the other experts' projectors; the message names M and its floor
        base = make_optimizer("adamw", 1e-2)
        with pytest.raises(ContractViolation, match=r"^M: must be >= 2 and be finite, got 1$"):
            new_omoe_state(base, small_model(M=1), 5, 100, 1e-3, 0.9, "paper", 1e-2)

    def test_drain_exactness(self):
        model = small_model(M=2, routing="dense")
        state = make_state(model, s=3)
        rng = np.random.default_rng(0)
        for i in range(8):
            X = rng.normal(size=(4, model.dims.d_raw))
            step_dispatch(state, model, X, [0, 1, 2, 0])
        o_steps_done = (state.e - 1) // 3
        assert o_steps_done >= 1
        buffered = sum(len(v) for v in state.buffers.values())
        assert state.means_consumed + buffered == state.means_produced
        for proj in state.projectors.values():
            assert proj.updates_applied == state.means_consumed // len(state.projectors)

    def test_projection_containment(self):
        # the weight delta lies in the row space of Pbar
        model = small_model(M=2, routing="dense")
        state = make_state(model, lr=0.1)
        rng = np.random.default_rng(3)
        for key, proj in state.projectors.items():
            for _ in range(3):
                proj.rls_update(rng.normal(size=proj.d), 1e-2)
        X = rng.normal(size=(4, model.dims.d_raw))
        grads, _ = grads_for(model, X, [0, 1, 2, 0])
        before = {n: model.params[n].copy() for n in model.param_names()
                  if n.startswith("expert")}
        o_step(state, model, grads)
        for m in range(2):
            for layer in (1, 2):
                pbar = averaged(state, m, layer)
                pinv = np.linalg.pinv(pbar)
                name = f"expert{m}.W{layer}"
                delta = model.params[name] - before[name]
                resid = delta @ (np.eye(pbar.shape[0]) - pinv @ pbar)
                assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(delta), 1e-30)

    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("avg_norm", ["paper", "proper"])
    def test_matches_per_expert_average(self, M, avg_norm):
        # reference: each expert's average summed from the other experts' projectors
        model = small_model(seed=M, M=M, routing="dense")
        twin = copy.deepcopy(model)
        state = make_state(model, avg_norm=avg_norm, lr=0.1)
        rng = np.random.default_rng(M)
        for proj in state.projectors.values():
            proj.P = random_projector(rng, proj.d)
        grads = Gradients({n: rng.normal(size=p.shape) for n, p in model.params.items()}, 0.0)
        o_step(state, model, grads)
        norm = M if avg_norm == "paper" else M - 1
        for m in range(M):
            for layer in (1, 2):
                pbar = sum(state.projectors[(j, layer)].P for j in range(M) if j != m) / norm
                w, b = f"expert{m}.W{layer}", f"expert{m}.b{layer}"
                want = -0.1 * (grads[w] @ pbar)
                got = model.params[w] - twin.params[w]
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
                np.testing.assert_array_equal(model.params[b],
                                              twin.params[b] - 0.1 * grads[b])
        for name in [n for n in model.param_names() if not n.startswith("expert")]:
            np.testing.assert_array_equal(model.params[name], twin.params[name])

    def test_attenuation_transfer(self):
        # all other projectors built from direction u: the update barely moves along u
        model = small_model(M=3, routing="dense")
        state = make_state(model, avg_norm="proper", lr=0.1)
        rng = np.random.default_rng(5)
        u = {1: rng.normal(size=model.dims.d), 2: rng.normal(size=model.dims.h)}
        for layer in (1, 2):
            u[layer] /= np.linalg.norm(u[layer])
            for m in range(3):
                state.projectors[(m, layer)].rls_update(u[layer], 1e-4)
        X = rng.normal(size=(6, model.dims.d_raw))
        grads, _ = grads_for(model, X, [0, 1, 2, 0, 1, 2])
        before = {n: model.params[n].copy() for n in model.param_names()
                  if n.startswith("expert")}
        o_step(state, model, grads)
        for m in range(3):
            for layer in (1, 2):
                name = f"expert{m}.W{layer}"
                delta = model.params[name] - before[name]
                if np.linalg.norm(delta) == 0:
                    continue
                assert (np.linalg.norm(delta @ u[layer])
                        <= 0.01 * np.linalg.norm(delta) * np.linalg.norm(u[layer]))

    @pytest.mark.parametrize("init", ["replicate", "independent"])
    def test_dense_layer1_projectors_identical(self, init):
        # under dense routing every expert's layer-1 input is the whole batch, so every
        # expert buffers the same layer-1 means and keeps the same layer-1 projector; the
        # O step tells the experts apart only through their layer-2 projectors
        M = 4
        model = small_model(seed=3, M=M, init=init, routing="dense")
        state = make_state(model, s=2, base_kind="adamw", lr=1e-2)
        rng = np.random.default_rng(3)
        for _ in range(8):
            step_dispatch(state, model, rng.normal(size=(6, model.dims.d_raw)),
                          rng.integers(0, model.dims.c, size=6))
        first = {layer: state.projectors[(0, layer)] for layer in (1, 2)}
        assert first[1].updates_applied == first[2].updates_applied == 4
        for m in range(1, M):
            np.testing.assert_array_equal(state.projectors[(m, 1)].P, first[1].P)
        assert not all(np.array_equal(state.projectors[(m, 2)].P, first[2].P)
                       for m in range(1, M))


class TestDispatchSchedule:
    def test_s2_schedule_over_six_batches(self):
        model = small_model(M=2, routing="dense")
        state = make_state(model, s=2, n_total=6)
        rng = np.random.default_rng(0)
        kinds = []
        for _ in range(6):
            out = step_dispatch(state, model, rng.normal(size=(4, model.dims.d_raw)),
                                [0, 1, 2, 0])
            kinds.append(out.kind)
        assert kinds == ["R", "O", "R", "O", "R", "O"]

    def test_s5_schedule_positions(self):
        model = small_model(M=2, routing="dense")
        state = make_state(model, s=5, n_total=12)
        rng = np.random.default_rng(0)
        kinds = [step_dispatch(state, model, rng.normal(size=(4, model.dims.d_raw)),
                               [0, 1, 2, 0]).kind for _ in range(12)]
        assert [i + 1 for i, k in enumerate(kinds) if k == "O"] == [5, 10]

    def test_s_too_small_rejected(self):
        model = small_model(M=2)
        with pytest.raises(ContractViolation):
            make_state(model, s=1)

    @pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
    def test_bare_base_steps_like_hand_loop(self, kind):
        # the baseline arm: forward, backward and one base step, bit for bit
        model = small_model(seed=5, M=3, routing="top1")
        twin = copy.deepcopy(model)
        base, hand = make_optimizer(kind, 1e-2), make_optimizer(kind, 1e-2)
        rng = np.random.default_rng(6)
        for _ in range(3):
            X, y = rng.normal(size=(5, model.dims.d_raw)), rng.integers(0, model.dims.c, size=5)
            outcome = step_dispatch(base, model, X, y)
            _, tape = model_forward(twin, X)
            grads = backward(twin, tape, y)
            hand.step(twin.params, grads)
            assert outcome == StepOutcome("R", grads.loss)
        assert base.t == hand.t == 3
        for name in model.param_names():
            np.testing.assert_array_equal(model.params[name], twin.params[name])
        assert base.state.keys() == hand.state.keys()
        for name, moments in hand.state.items():
            for k, arr in moments.items():
                np.testing.assert_array_equal(base.state[name][k], arr)

    def test_o_steps_ask_backward_for_the_expert_gradients_only(self, monkeypatch):
        asked = []

        def recording(*args, experts_only=False, **kwargs):
            asked.append(experts_only)
            return backward(*args, experts_only=experts_only, **kwargs)
        monkeypatch.setattr(optim, "backward", recording)
        model = small_model(M=2, routing="dense")
        rng = np.random.default_rng(0)
        for state in (make_state(model, s=2, n_total=4), make_optimizer("adamw", 1e-3)):
            kinds = [step_dispatch(state, model, rng.normal(size=(4, model.dims.d_raw)),
                                   [0, 1, 2, 0]).kind for _ in range(4)]
        assert kinds == ["R"] * 4
        assert asked == [False, True, False, True] + [False] * 4

    def test_baseline_trains_through_step_dispatch(self, monkeypatch):
        calls = []

        def counting(state, *args, **kwargs):
            calls.append(state)
            return step_dispatch(state, *args, **kwargs)
        monkeypatch.setattr(harness, "step_dispatch", counting)
        cfg = make_config({"task": {"K": 2, "d_raw": 4, "subspace_dim": 2, "n_per_cluster": 10},
                           "model": {"d": 4, "h": 4, "M": 2, "c": 2},
                           "omoe": {"enabled": False}, "train": {"epochs": 2, "batch_size": 8}})
        result = train_single(cfg, 0)
        assert result.record["step_counts"] == {"R": 4, "O": 0}  # 16 training rows, 2 epochs
        assert len(calls) == 4 and all(isinstance(c, OPTIMIZERS["adamw"]) for c in calls)
        assert result.state is None and result.record["means_produced"] == 0

    @pytest.mark.parametrize("arm, kind", [("baseline", "R"), ("omoe", "R"), ("omoe", "O")])
    def test_one_expert_weight_gradient_alive_inside_the_step(self, monkeypatch, arm, kind):
        # no frame keeps the tape's output buffer while the base step or the O step runs,
        # and each expert weight gradient the step reads is freed before its next read.
        # Expert weights of 64 x 64 floats step alone in the base step: a parameter under
        # GATHER_BELOW floats is read together with the other small ones
        model = small_model(seed=2, d=64, h=64, M=3, routing="top1")
        assert model.params["expert0.W1"].size >= GATHER_BELOW
        base = make_optimizer("adam", 1e-3)
        state = base if arm == "baseline" else new_omoe_state(base, model, 2, 10, 1e-3, 0.9,
                                                              "paper", 1e-3)
        if kind == "O":
            state.e = 2
        out_ref, dead, read_refs, alive_at_read = [], [], [], []
        weights = {f"expert{m}.W{layer}" for m in range(model.M) for layer in (1, 2)}

        def recording(*args, **kwargs):
            logits, tape = model_forward(*args, **kwargs)
            out_ref[:] = [weakref.ref(tape.out)]
            return logits, tape

        def checking(fn):
            def checked(*args, **kwargs):
                dead.append(out_ref[0]() is None)
                return fn(*args, **kwargs)
            return checked

        read = Gradients.__getitem__

        def reading(self, name):
            if name not in weights:
                return read(self, name)
            alive_at_read.append(sum(ref() is not None for ref in read_refs))
            G = read(self, name)
            read_refs.append(weakref.ref(G))
            return G
        monkeypatch.setattr(optim, "model_forward", recording)
        monkeypatch.setattr(optim.BaseOptimizer, "step", checking(optim.BaseOptimizer.step))
        monkeypatch.setattr(optim, "o_step", checking(o_step))
        monkeypatch.setattr(Gradients, "__getitem__", reading)
        rng = np.random.default_rng(8)
        X, y = rng.normal(size=(12, model.dims.d_raw)), rng.integers(0, model.dims.c, size=12)
        assert step_dispatch(state, model, X, y).kind == kind
        assert dead == [True]
        assert alive_at_read == [0] * len(weights)  # each weight read once, alone

    @pytest.mark.parametrize("routing", ["top1", "dense"])
    @pytest.mark.parametrize("kind", ["R", "O"])
    def test_tape_dropped_before_the_step(self, monkeypatch, routing, kind):
        # no frame holds the step's tape once backward returns: the base step and the O
        # step read the batch's rows from the expert weight gradients' factors alone, and
        # an R step its input means too; four rows over four top-1 experts leave some idle
        model = small_model(seed=3, M=4, routing=routing)
        state = make_state(model, s=2)
        state.e = 2 if kind == "O" else 1
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(4, model.dims.d_raw)), rng.integers(0, model.dims.c, size=4)
        _, want = model_forward(model, X)  # the forward the step runs, kept here
        tape_ref, checked_steps = [], []

        def recording(*args, **kwargs):
            logits, tape = model_forward(*args, **kwargs)
            tape_ref[:] = [weakref.ref(tape)]
            return logits, tape

        def checking(fn):
            def checked(*args):  # the grads come last: step(self, params, grads), o_step's
                assert tape_ref[0]() is None
                for m, span in enumerate(want.spans):
                    for layer, rows in ((1, want.inputs[m]), (2, want.hidden[span])):
                        np.testing.assert_array_equal(
                            args[-1].factors(f"expert{m}.W{layer}")[1], rows)
                checked_steps.append(fn.__name__)
                return fn(*args)
            return checked
        monkeypatch.setattr(optim, "model_forward", recording)
        monkeypatch.setattr(optim.BaseOptimizer, "step", checking(optim.BaseOptimizer.step))
        monkeypatch.setattr(optim, "o_step", checking(o_step))
        assert step_dispatch(state, model, X, y).kind == kind
        assert checked_steps == ["step" if kind == "R" else "o_step"]
        if routing == "top1":
            assert any(span.start == span.stop for span in want.spans)

    def test_parity_when_s_exceeds_horizon(self):
        model_a = small_model(seed=9, M=2, routing="dense")
        model_b = copy.deepcopy(model_a)
        base_a = make_optimizer("adamw", 1e-3)
        base_b = make_optimizer("adamw", 1e-3)
        state = new_omoe_state(base_a, model_a, 1000, 10, 1e-3, 0.9, "paper", 1e-3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            X = rng.normal(size=(4, model_a.dims.d_raw))
            y = [0, 1, 2, 0]
            step_dispatch(state, model_a, X, y)
            _, tape = model_forward(model_b, X)
            grads = backward(model_b, tape, y)
            base_b.step(model_b.params, grads)
        for name in model_a.param_names():
            np.testing.assert_array_equal(model_a.params[name], model_b.params[name])

    def test_training_paths_skip_fingerprint(self, monkeypatch, tmp_path):
        # their tapes never leave the call, or go straight to backward, so no
        # stale-tape guard is computed
        model = small_model(M=2, routing="dense")
        state = make_state(model, s=2)
        rng = np.random.default_rng(4)
        X, y = rng.normal(size=(4, model.dims.d_raw)), np.array([0, 1, 2, 0])

        def refuse(self):
            raise AssertionError("fingerprint computed")
        monkeypatch.setattr(MoEModel, "fingerprint", refuse)
        assert [step_dispatch(state, model, X, y).kind for _ in range(2)] == ["R", "O"]
        _eval_score(model, X, y)
        # the baseline arm of train_single steps through step_dispatch too
        cfg = make_config({"task": {"K": 2, "d_raw": 4, "subspace_dim": 2, "n_per_cluster": 10},
                           "model": {"d": 4, "h": 4, "M": 2, "c": 2},
                           "omoe": {"enabled": False}, "train": {"epochs": 1, "batch_size": 8}})
        assert train_single(cfg, 0).record["step_counts"]["R"] == 2
        assert grad_check(model, X, y, n_samples=10).checked > 0
        for name in ("a.json", "b.json"):
            save_model(model, tmp_path / name)
        assert main(["metrics", "--model-a", str(tmp_path / "a.json"),
                     "--model-b", str(tmp_path / "b.json"), "--out", str(tmp_path)]) == 0


def payload(arr):
    """An array as a checkpoint file stores it."""
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def set_entry(stored, index, value):
    """Set entry ``index`` of ``stored``, an array as a checkpoint file stores it."""
    arr = _decode(stored)
    arr[index] = value
    stored.update(payload(arr))


class TestOptimizerCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = small_model(M=2, routing="dense")
        state = make_state(model, s=3, base_kind="adamw", lr=1e-3,
                           alpha0=0.7, lam=0.8, o_lr=2.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            step_dispatch(state, model, rng.normal(size=(4, model.dims.d_raw)), [0, 1, 2, 0])
        path = tmp_path / "opt.json"
        save_optimizer(state, path)
        loaded = load_optimizer(path, model)
        assert (loaded.e, loaded.s, loaded.n_total) == (state.e, state.s, state.n_total)
        assert (loaded.means_produced, loaded.means_consumed) == \
            (state.means_produced, state.means_consumed)
        assert loaded.base.kind == "adamw" and loaded.base.t == state.base.t
        for name, bufs in state.base.state.items():
            for k, arr in bufs.items():
                np.testing.assert_array_equal(loaded.base.state[name][k], arr)
        for key, proj in state.projectors.items():
            np.testing.assert_array_equal(loaded.projectors[key].P, proj.P)
            assert loaded.projectors[key].updates_applied == proj.updates_applied
        # the save applied the means of steps 4 and 5, so both states hold none
        assert loaded.buffers == state.buffers == {key: [] for key in state.projectors}

    @staticmethod
    def cutoff_model(routing="dense"):
        """An M=2 model whose expert W1 (64 x 64) steps alone, at ``GATHER_BELOW`` floats."""
        model = small_model(seed=4, d=64, h=64, M=2, routing=routing)
        assert model.params["expert0.W1"].size == GATHER_BELOW
        return model

    # sha256 of each kind's file after 7 steps; the gathered step must not move a bit of it.
    # The file writes o_lr as the base lr, 0.001. Step 7 is an R step: its means are applied
    # to the projectors before the write, and the v2 file has no buffers or means_consumed
    CHECKPOINT_DIGESTS = {
        "sgd": "f91361bd8acb94fd46fc1b35c3a16d064ad2b79153da47f6d2c991ebebbf2f78",
        "adam": "fcc07e06d05c8f25da47ffd5705421ba7ecb91cb3d4b5047feb2a39074590938",
        "adamw": "25c3c52b8d86bb72abf83c76c77e1203fa60176fa8e0fa22574da25b9bd1fd43",
        "rmsprop": "c8409b219cc1e8b9551fad15654f235636115b10b1ed970ff232ddda05192022",
        "adagrad": "c36324dec756defe2e6d1009dedbc1bf8a065b1eed9f508868373b803e722770",
    }

    @pytest.mark.parametrize("kind", list(CHECKPOINT_DIGESTS))
    def test_checkpoint_pinned(self, tmp_path, kind):
        model = self.cutoff_model()
        state = make_state(model, s=3, base_kind=kind, lr=1e-3)
        rng = np.random.default_rng(2)
        for _ in range(7):
            step_dispatch(state, model, rng.normal(size=(4, model.dims.d_raw)), [0, 1, 2, 0])
        save_optimizer(state, tmp_path / "opt.json")
        digest = hashlib.sha256((tmp_path / "opt.json").read_bytes()).hexdigest()
        assert digest == self.CHECKPOINT_DIGESTS[kind]

    @pytest.mark.parametrize("kind", list(CHECKPOINT_DIGESTS))
    def test_resume_reproduces_trajectory(self, tmp_path, kind):
        # saved after step 5 with the means of steps 4 and 5 pending: the run that saved and
        # the one loaded from its files both stay bit-identical to a twin that never saved,
        # through the O steps 6 and 9 and the R step 10, whose means stay pending; the loaded
        # per-name moments are packed into the flat ones on the first step
        for routing in ("top1", "dense"):
            twin = self.cutoff_model(routing)
            model = copy.deepcopy(twin)
            twin_state, state = (make_state(m, s=3, base_kind=kind, lr=1e-3, o_lr=2.0)
                                 for m in (twin, model))
            rng = np.random.default_rng(1)
            batch_list = [(rng.normal(size=(4, model.dims.d_raw)), [0, 1, 2, 0])
                          for _ in range(10)]
            for X, y in batch_list[:5]:
                step_dispatch(twin_state, twin, X, y)
                step_dispatch(state, model, X, y)
            assert state.e == 6 and all(len(v) == 2 for v in state.buffers.values())
            save_optimizer(state, tmp_path / "opt.json")
            save_model(model, tmp_path / "model.json")
            resumed_model = load_model(tmp_path / "model.json")
            resumed_state = load_optimizer(tmp_path / "opt.json", resumed_model)
            for X, y in batch_list[5:]:
                for st, m in ((twin_state, twin), (state, model), (resumed_state, resumed_model)):
                    step_dispatch(st, m, X, y)
            for st, m in ((state, model), (resumed_state, resumed_model)):
                for name in twin.param_names():
                    np.testing.assert_array_equal(m.params[name], twin.params[name])
                for name, moments in twin_state.base.state.items():
                    for k, arr in moments.items():
                        np.testing.assert_array_equal(st.base.state[name][k], arr)
                for key, proj in twin_state.projectors.items():
                    np.testing.assert_array_equal(st.projectors[key].P, proj.P)
                    assert st.projectors[key].updates_applied == proj.updates_applied
                    pending = zip(st.buffers[key], twin_state.buffers[key], strict=True)
                    for (i, xbar), (twin_i, twin_xbar) in pending:
                        assert i == twin_i
                        np.testing.assert_array_equal(xbar, twin_xbar)
                assert (st.e, st.means_produced, st.means_consumed) == \
                    (twin_state.e, twin_state.means_produced, twin_state.means_consumed)

    # n_total=1 puts e=3, the next step's batch index, past the schedule
    @pytest.mark.parametrize("key, bad", [("alpha0", 0.0), ("lam", 0.0), ("lam", 1.5),
                                          ("n_total", 0), ("alpha0", float("nan")), ("e", -7),
                                          ("e", 0), ("o_lr", 0.0), ("o_lr", -5.0),
                                          ("n_total", 1), ("means_produced", -1),
                                          ("o_lr", None)])
    def test_bad_schedule_rejected(self, tmp_path, key, bad):
        path = tmp_path / "opt.json"
        model, state = self.buffered_state()
        save_optimizer(state, path)
        doc = json.loads(path.read_text())
        doc[key] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolation, match="opt.json"):
            load_optimizer(path, model)

    def test_state_before_first_base_step_loads(self, tmp_path):
        # t = 0 is a state saved before its first base step; it resumes bit for bit
        model = small_model(M=2, routing="dense")
        state = make_state(model, s=3, base_kind="adam", lr=1e-3)
        save_optimizer(state, tmp_path / "opt.json")
        assert json.loads((tmp_path / "opt.json").read_text())["base"]["t"] == 0
        twin = copy.deepcopy(model)
        resumed = load_optimizer(tmp_path / "opt.json", twin)
        X = np.random.default_rng(0).normal(size=(4, model.dims.d_raw))
        step_dispatch(state, model, X, [0, 1, 2, 0])
        step_dispatch(resumed, twin, X, [0, 1, 2, 0])
        assert resumed.base.t == 1
        for name in model.param_names():
            np.testing.assert_array_equal(twin.params[name], model.params[name])

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ContractViolation):
            load_optimizer(path, small_model(M=2))

    def test_v1_file_rejected(self, tmp_path):
        # a v1 file held the pending means and means_consumed; v2 applies the means first
        path = tmp_path / "opt.json"
        model, state = self.buffered_state()
        save_optimizer(state, path)
        doc = json.loads(path.read_text())
        doc.update(format="omoe-lab-optimizer-v1", means_consumed=doc["means_produced"],
                   buffers=[{"m": m, "layer": layer, "entries": []} for m, layer in state.buffers])
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolation, match=r"opt\.json: unknown checkpoint format "
                                                    r"'omoe-lab-optimizer-v1'"):
            load_optimizer(path, model)

    @staticmethod
    def buffered_state(base_kind="adamw"):
        """A dense M=2 model (d=4, h=5) and its state two R steps in: two means per buffer."""
        model = small_model(M=2, routing="dense")
        state = make_state(model, s=3, base_kind=base_kind, lr=1e-3, alpha0=0.7, lam=0.8)
        rng = np.random.default_rng(0)
        for _ in range(2):
            step_dispatch(state, model, rng.normal(size=(4, model.dims.d_raw)), [0, 1, 2, 0])
        assert all(len(entries) == 2 for entries in state.buffers.values())
        return model, state

    def test_file_layout(self, tmp_path):
        path = tmp_path / "opt.json"
        save_optimizer(self.buffered_state()[1], path)
        assert list(json.loads(path.read_text())) == \
            ["format", "base", *_STATE_SCALARS, "projectors"]

    def test_load_then_save_reproduces_file(self, tmp_path):
        model, state = self.buffered_state()
        save_optimizer(state, tmp_path / "a.json")
        save_optimizer(load_optimizer(tmp_path / "a.json", model), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "opt.json"
        model, state = self.buffered_state()
        save_optimizer(state, path)
        path.write_text(path.read_text()[:-10])
        with pytest.raises(ContractViolation, match="opt.json"):
            load_optimizer(path, model)

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["projectors"].pop(3), r"projector \(1, 2\): found no entry"),
        (lambda doc: doc.update(M=3), r"opt\.json: M: the file has 3 experts, the model 2"),
        (lambda doc: doc["projectors"][3].update(d=6, P=payload(np.eye(6))),
         r"projector \(1, 2\): found shape \(6, 6\), expected shape \(5, 5\)"),
        (lambda doc: doc["projectors"][1]["P"].update(shape=[1, 25]),
         r"opt\.json: projectors\[1\]: P of shape \(1, 25\) does not fit dimension 5"),
        (lambda doc: doc["projectors"][1].update(d=0),
         r"opt\.json: projectors\[1\]: projector dimension must be >= 1"),
        (lambda doc: doc.pop("s"), "checkpoint: missing key 's'"),
        (lambda doc: doc["base"].pop("t"), "base: missing key 't'"),
        (lambda doc: doc["base"]["hyper"].update(momentum=0.9), "base.hyper: unexpected key"),
        (lambda doc: doc["base"]["state"]["expert0.W1"]["m"].update(shape=[1, 20]),
         r"base\.state expert0\.W1 moment m: found shape \(1, 20\), expected shape \(5, 4\)"),
        (lambda doc: doc["base"]["state"].pop("expert0.W1"),
         "base.state: missing key 'expert0.W1'"),
        (lambda doc: doc["base"]["state"]["expert1.b2"].pop("v"),
         r"base\.state expert1\.b2 moment v: found no entry, expected shape \(4,\)"),
        (lambda doc: doc["base"]["state"]["input_map.W"]["m"].update(shape=[2, 12]),
         r"input_map\.W moment m: found shape \(2, 12\), expected shape \(4, 6\)"),
        (lambda doc: doc.update(M="2"), r"opt\.json: M: expected an integer, got '2'"),
        (lambda doc: doc.update(s="3"), r"opt\.json: s: expected an integer, got '3'"),
        (lambda doc: doc["base"].update(t="x"), r"opt\.json: base\.t: expected an integer"),
        (lambda doc: doc["base"]["hyper"].update(lr="x"),
         r"opt\.json: base\.hyper\.lr: expected a number"),
        (lambda doc: doc["projectors"][3].pop("P"), r"opt\.json: projectors\[3\]: missing key 'P'"),
        (lambda doc: doc["projectors"][0].update(P=np.eye(4).tolist()),
         r"opt\.json: projectors\[0\]\.P: expected an array"),
        # a second copy would replace the first, and its P and updates_applied
        (lambda doc: doc["projectors"].append(doc["projectors"][0]),
         r"opt\.json: projectors\[4\]: \(expert, layer\) \(0, 1\) is listed twice"),
        # a negative t would make the next Adam step divide by 1 - beta1^0 = 0
        (lambda doc: doc["base"].update(t=-1), r"opt\.json: base\.t: must be >= 0"),
        (lambda doc: doc["projectors"][2].update(updates_applied=-1),
         r"opt\.json: projectors\[2\]: updates_applied: must be >= 0, got -1"),
    ], ids=["missing_projector", "wrong_M", "wrong_projector_size", "projector_not_square",
            "projector_zero_d", "missing_scalar", "missing_base_field", "unknown_hyper",
            "misshapen_moment", "missing_moments", "missing_moment", "misshapen_input_moment",
            "string_M", "string_s", "string_t", "string_hyper", "missing_P", "P_not_an_array",
            "projector_twice", "negative_t", "negative_updates_applied"])
    def test_bad_layout_named(self, tmp_path, edit, field):
        path = tmp_path / "opt.json"
        model, state = self.buffered_state()
        save_optimizer(state, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolation, match=field):
            load_optimizer(path, model)

    # a projector is corrupted in the file: saving runs rls_update on the live one
    @pytest.mark.parametrize("where, edit, field", [
        ("file", lambda doc: set_entry(doc["projectors"][1]["P"], (1, 1), math.inf),
         r"opt\.json: projectors\[1\]\.P"),
        ("file", lambda doc: set_entry(doc["projectors"][2]["P"], (0, 3), -math.inf),
         r"opt\.json: projectors\[2\]\.P"),
        # saving applies the pending means, and rls_update refuses a non-finite one
        ("state", lambda state: state.buffers[(1, 1)][1][1].__setitem__(2, NAN),
         "^projector input"),
        ("state", lambda state: state.base.state["expert0.W1"]["v"].__setitem__((0, 0), NAN),
         r"opt\.json: base\.state expert0\.W1 moment v"),
        ("state", lambda state: state.base.state["head.b"]["m"].__setitem__(0, math.inf),
         r"opt\.json: base\.state head\.b moment m"),
    ], ids=["inf_projector", "minus_inf_projector", "nan_mean", "nan_moment",
            "inf_gathered_moment"])
    def test_non_finite_array_named(self, tmp_path, where, edit, field):
        # caught when the file is saved or loads, not by a diverging step mid-run
        path = tmp_path / "opt.json"
        model, state = self.buffered_state()
        with pytest.raises(ContractViolation, match=rf"{field} contains non-finite entries"):
            if where == "state":
                edit(state)
            save_optimizer(state, path)
            doc = json.loads(path.read_text())
            if where == "file":
                edit(doc)
            path.write_text(json.dumps(doc))
            load_optimizer(path, model)

    def test_single_expert_file_rejected(self, tmp_path):
        # a file whose M matches an M=1 model still fails, as the state it would build
        path = tmp_path / "opt.json"
        save_optimizer(self.buffered_state()[1], path)
        doc = json.loads(path.read_text())
        doc["M"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolation, match=r"opt\.json: M: must be >= 2"):
            load_optimizer(path, small_model(M=1, routing="dense"))

    @pytest.mark.parametrize("other", [dict(M=3), dict(d_raw=7), dict(h=6), dict(c=4)],
                             ids=["M", "d_raw", "h", "c"])
    def test_optimizer_for_other_model_rejected(self, tmp_path, other):
        path = tmp_path / "opt.json"
        save_optimizer(self.buffered_state()[1], path)
        with pytest.raises(ContractViolation, match="opt.json"):
            load_optimizer(path, small_model(**{"M": 2, "routing": "dense", **other}))


NAN = float("nan")
# a bad value for each key of optim.RANGES, and the config section that holds the key
# (None: n_total and e are worked out and the counters counted, not configured);
# NaN must fail every range. OMoEState and the base optimizers take the optimizer and omoe
# keys and the unconfigured ones, and an optimizer file holds all of them but means_consumed;
# of the model, task and train keys, OMoEState takes M alone
BAD_RANGES = [("lr", NAN, "optimizer"), ("lr", -1.0, "optimizer"), ("eps", 0.0, "optimizer"),
              ("beta1", 2.0, "optimizer"), ("beta2", NAN, "optimizer"),
              ("rho", 1.0, "optimizer"), ("weight_decay", -0.1, "optimizer"),
              ("s", 1, "omoe"), ("n_total", 0, None), ("alpha0", NAN, "omoe"),
              ("lambda", 1.5, "omoe"), ("o_lr", 0.0, "omoe"), ("e", 0, None),
              ("t", -1, None), ("means_produced", -1, None), ("means_consumed", -1, None),
              ("d", 0, "model"), ("h", -1, "model"), ("c", 0, "model"), ("M", 1, "model"),
              ("d_raw", 0, "task"), ("K", 1, "task"), ("n_per_cluster", 0, "task"),
              ("subspace_dim", 0, "task"), ("noise_std", -0.5, "task"), ("epochs", 0, "train"),
              ("batch_size", 0, "train"), ("eval_fraction", 1.0, "train")]
BASE_KEYS = ("lr", "eps", "beta1", "beta2", "rho", "weight_decay")
IN_FILE = [case for case in BAD_RANGES if case[2] in ("optimizer", "omoe", None)]


def kind_for(key):
    """A base optimizer kind that takes ``key``."""
    return "rmsprop" if key == "rho" else "adamw"


class TestRanges:
    """The config, the constructors and the optimizer loader all read optim.RANGES."""

    def test_every_range_has_a_bad_value(self):
        assert {key for key, _bad, _section in BAD_RANGES} == set(RANGES)

    @pytest.mark.parametrize("key", sorted(RANGES))
    def test_nan_fails_and_none_passes(self, key):
        # None and bools fail too, named like any value out of range
        for bad in (NAN, math.inf, -math.inf, None, True, False):  # ±inf: even with no top
            with pytest.raises(ContractViolation, match=rf"^{key}: must .*, got {bad!r}$"):
                check_ranges({key: bad})

    @pytest.mark.parametrize("key, bad, section",
                             [case for case in BAD_RANGES if case[2] is not None])
    def test_config_names_field(self, key, bad, section):
        overrides = {section: {key: bad}}
        if section == "optimizer":
            overrides["optimizer"]["kind"] = kind_for(key)
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must "):
            make_config(overrides)

    # base.t is no constructor parameter: only steps and the loader set it; None is no
    # number, and neither is a bool, although bool is a numbers.Real
    @pytest.mark.parametrize("key, bad, section", [
        *(case for case in IN_FILE if case[0] != "t"), ("M", 1, "model"),
        *((key, None, None) for key in ("lr", "s", "alpha0", "lambda", "n_total", "M")),
        ("lr", True, None), ("n_total", True, None)])
    def test_constructor_rejects(self, key, bad, section):
        with pytest.raises(ContractViolation, match=rf"^{key}: must "):
            if key in BASE_KEYS:
                make_optimizer(kind_for(key), **{"lr": 1e-3, key: bad})
            else:
                schedule = {"M": 2, "s": 2, "n_total": 10, "alpha0": 1.0, "lambda": 0.9,
                            "o_lr": 0.1, "e": 1, key: bad}
                OMoEState(base=make_optimizer("sgd", 0.1), avg_norm="paper",
                          lam=schedule.pop("lambda"), **schedule)

    # a file holds no means_consumed: the loader sets it to means_produced
    @pytest.mark.parametrize("key, bad, section",
                             [case for case in IN_FILE if case[0] != "means_consumed"])
    def test_loader_names_file_and_field(self, tmp_path, key, bad, section):
        path = tmp_path / "opt.json"
        model, state = TestOptimizerCheckpoint.buffered_state(kind_for(key))
        save_optimizer(state, path)
        doc = json.loads(path.read_text())
        if key in BASE_KEYS:
            doc["base"]["hyper"][key], field = bad, f"base.hyper.{key}"
        elif key == "t":
            doc["base"]["t"], field = bad, "base.t"
        else:  # OMoEState.lam is written as "lam" and named by its config name
            doc["lam" if key == "lambda" else key], field = bad, key
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolation, match=rf"opt\.json: {re.escape(field)}: must "):
            load_optimizer(path, model)

    def test_batch_counter_past_schedule_rejected(self, tmp_path):
        # e = n_total + 1 is a state saved after its last step; a larger e would have the
        # next step read alpha at a batch index past the schedule
        schedule = {"base": make_optimizer("sgd", 0.1), "M": 2, "s": 2, "n_total": 100,
                    "alpha0": 1e-3, "lam": 0.9, "avg_norm": "paper", "o_lr": 0.1}
        assert OMoEState(**schedule, e=101).e == 101
        with pytest.raises(ContractViolation, match=r"^e: must be <= n_total \+ 1 = 101, "
                                                    r"got 102$"):
            OMoEState(**schedule, e=102)
        path = tmp_path / "opt.json"
        model, state = TestOptimizerCheckpoint.buffered_state()
        save_optimizer(state, path)
        doc = json.loads(path.read_text())
        doc.update(e=1000000, n_total=100)
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolation,
                           match=r"opt\.json: e: must be <= n_total \+ 1 = 101, got 1000000"):
            load_optimizer(path, model)


class TestMacCounter:
    def test_counter_totals(self):
        c = MacCounter(rls=3, average=4, project=5)
        assert c.total == 12

    def test_o_step_charges_counter(self):
        model = small_model(M=2, routing="dense")
        state = make_state(model, s=2)
        state.mac_counter = MacCounter()
        rng = np.random.default_rng(0)
        step_dispatch(state, model, rng.normal(size=(4, model.dims.d_raw)), [0, 1, 2, 0])
        step_dispatch(state, model, rng.normal(size=(4, model.dims.d_raw)), [0, 1, 2, 0])
        assert state.mac_counter.rls > 0
        assert state.mac_counter.average > 0
        assert state.mac_counter.project > 0
