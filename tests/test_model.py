import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from omoe_lab import ModelDims, Rng, init_model, load_model, model_forward, save_model
from omoe_lab.errors import ContractViolation
from omoe_lab.metrics import model_param_variance
from omoe_lab.model import expert_forward, moe_block_forward, param_shapes, softmax


def small_model(seed=0, d_raw=6, d=4, h=5, c=3, M=3, init="independent", routing="top1"):
    model = init_model(Rng(seed), ModelDims(d_raw, d, h, c), M, init)
    model.routing = routing
    return model


class TestInit:
    def test_replicate_zero_variance(self):
        model = small_model(init="replicate", M=4)
        assert model_param_variance(model) == 0.0

    def test_independent_determinism(self):
        a = small_model(seed=7, init="independent", M=2)
        b = small_model(seed=7, init="independent", M=2)
        for name in a.param_names():
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_parameter_count_closed_form(self):
        d_raw, d, h, c, M = 6, 8, 16, 3, 4
        model = small_model(d_raw=d_raw, d=d, h=h, c=c, M=M, init="replicate")
        total = sum(p.size for p in model.params.values())
        expected = (d * d_raw + d) + M * d + M * (h * d + h + d * h + d) + (c * d + c)
        assert total == expected

    # sha256 over the parameters' bytes, in order; a refactor that reorders or
    # rescales the initializer's draws changes them
    @pytest.mark.parametrize("mode, digest", [
        ("replicate", "cee0b66957f553c0e7ffa47dd1b18b942d95eb58820057186bedfa4fd8f765ab"),
        ("independent", "bd966be51304cce6fccf72d0658cb31fcdd027627c0b988554b0ccaca00a9aeb")])
    def test_init_draws_pinned(self, mode, digest):
        dims = ModelDims(6, 4, 5, 3)
        model = init_model(Rng(0), dims, 3, mode)
        assert list(param_shapes(dims, 3)) == list(model.params) == model.param_names()
        h = hashlib.sha256()
        for arr in model.params.values():
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    def test_param_name_partition(self):
        model = small_model(M=2)
        assert set(model.param_names()) == set(model.params)

    @pytest.mark.parametrize("dims, name", [
        ((0, 4, 4, 2), "d_raw"), ((None, 16, 32, 4), "d_raw"), ((4, 16.0, 4, 2), "d"),
        ((4, 4, None, 2), "h"), ((4, 4, True, 2), "h"), ((4, 4, 4, -1), "c")])
    def test_bad_dimension_named(self, dims, name):
        with pytest.raises(ContractViolation,
                           match=rf"^dimension {name} must be a positive integer, got "):
            init_model(Rng(0), ModelDims(*dims), 2)

    def test_bad_expert_count(self):
        with pytest.raises(ContractViolation):
            init_model(Rng(0), ModelDims(4, 4, 4, 2), 0)

    def test_bad_init_mode(self):
        with pytest.raises(ContractViolation):
            init_model(Rng(0), ModelDims(4, 4, 4, 2), 2, "banana")


def gated_model(Wg, routing):
    """Model whose gate matrix is Wg (M, d); everything else from small_model."""
    model = small_model(d=Wg.shape[1], M=Wg.shape[0], routing=routing)
    model.params["gate.W"] = np.asarray(Wg, dtype=np.float64)
    return model


class TestGate:
    def test_zero_gate_uniform_and_tie_to_lowest(self):
        _, rec, _ = moe_block_forward(gated_model(np.zeros((4, 3)), "top1"), np.ones((1, 3)))
        np.testing.assert_allclose(rec.weights[0], np.full(4, 0.25))
        assert rec.selected[0] == 0

    def test_hand_softmax(self):
        # gate logits (3, 1): weights (e^2/(e^2+1), 1/(e^2+1))
        model = gated_model(np.array([[3.0], [1.0]]), "dense")
        _, rec, _ = moe_block_forward(model, np.array([[1.0]]))
        e2 = np.exp(2.0)
        np.testing.assert_allclose(rec.weights[0], [e2 / (e2 + 1), 1 / (e2 + 1)], atol=1e-12)
        np.testing.assert_allclose(rec.weights[0], [0.8808, 0.1192], atol=5e-5)
        assert rec.selected is None

    def test_saturation(self):
        Wg = np.zeros((3, 2))
        Wg[1] = [10.0, 10.0]  # large-margin row favoring expert 1
        _, rec, _ = moe_block_forward(gated_model(Wg, "top1"), np.ones((1, 2)))
        assert rec.selected.shape == (1,) and rec.selected[0] == 1
        assert rec.weights[0, 1] >= 0.99

    def test_unknown_mode(self, tmp_path):
        # a checkpoint naming an unknown routing mode must not load (and run dense)
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        doc = json.loads(path.read_text())
        doc["routing"] = "topk"
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolation, match="topk"):
            load_model(path)

    def test_unknown_mode_in_memory(self):
        model = small_model()
        model.routing = "topk"
        with pytest.raises(ContractViolation, match="topk"):
            moe_block_forward(model, np.zeros((2, model.dims.d)))


class TestMoEForward:
    def test_single_expert_full_weight(self):
        model = small_model(M=1)
        x = np.ones(model.dims.d)
        y, routing, caches = moe_block_forward(model, x[None, :])
        assert routing.weights[0, 0] == pytest.approx(1.0)
        # direct expert evaluation
        p = model.params
        expected_hidden = np.maximum(p["expert0.W1"] @ x + p["expert0.b1"], 0.0)
        expected = p["expert0.W2"] @ expected_hidden + p["expert0.b2"]
        np.testing.assert_allclose(y[0], expected)
        np.testing.assert_array_equal(caches["order"], [0])
        assert caches["spans"] == [slice(0, 1)]
        np.testing.assert_allclose(caches["hidden"][0], expected_hidden)

    def test_dense_cancellation(self):
        model = small_model(M=2, routing="dense")
        p = model.params
        p["gate.W"][:] = 0.0  # uniform gates
        for name in ("W1", "b1", "W2", "b2"):
            p[f"expert1.{name}"] = p[f"expert0.{name}"].copy()
        p["expert1.W2"] *= -1.0
        p["expert0.b2"][:] = 0.0
        p["expert1.b2"][:] = 0.0
        y, _, _ = moe_block_forward(model, np.full((1, model.dims.d), 0.3))
        np.testing.assert_allclose(y[0], np.zeros(model.dims.d), atol=1e-12)

    def test_zero_experts_zero_output(self):
        model = small_model(M=3)
        for m in range(3):
            for name in ("W1", "b1", "W2", "b2"):
                model.params[f"expert{m}.{name}"][:] = 0.0
        y, _, _ = moe_block_forward(model, np.ones((1, model.dims.d)))
        np.testing.assert_array_equal(y[0], np.zeros(model.dims.d))

    def test_replicate_invariant_to_selection(self):
        # identical experts + uniform gate: output equal no matter who is chosen
        model = small_model(M=3, init="replicate")
        model.params["gate.W"][:] = 0.0
        Z0 = np.full((1, model.dims.d), 0.5)
        y_top1, _, _ = moe_block_forward(model, Z0)
        model.routing = "dense"
        y_dense, _, _ = moe_block_forward(model, Z0)
        np.testing.assert_allclose(y_top1 * 3, y_dense, atol=1e-12)

    def test_top1_equals_dense_under_saturation(self):
        model = small_model(M=2, routing="top1")
        model.params["gate.W"][0] = 50.0  # saturate the gate toward expert 0
        model.params["gate.W"][1] = -50.0
        Z0 = np.ones((1, model.dims.d))
        y_top1, routing, _ = moe_block_forward(model, Z0)
        assert routing.weights[0, routing.selected[0]] >= 1 - 1e-12
        model.routing = "dense"
        y_dense, _, _ = moe_block_forward(model, Z0)
        np.testing.assert_allclose(y_top1, y_dense, atol=1e-9)


def reference_moe_forward(model, Z0):
    """y_moe by the per-expert fancy-index formulation: gather each expert's batch rows,
    run it on them and add its gated output back into those rows."""
    p = model.params
    probs = softmax(Z0 @ p["gate.W"].T)
    y = np.zeros((Z0.shape[0], model.dims.d))
    for m in range(model.M):
        rows = slice(None) if model.routing == "dense" else np.flatnonzero(probs.argmax(axis=1) == m)
        if Z0[rows].shape[0]:
            y[rows] += probs[rows, m][:, None] * expert_forward(p, m, Z0[rows])[1]
    return y


class TestDispatch:
    """(batch row, expert) pairs are grouped by expert; each expert writes one span of them."""

    @staticmethod
    def dispatch(model, Z0):
        """Run the block, check the pair layout and return (spans, order)."""
        y, rec, caches = moe_block_forward(model, Z0)
        order, spans, experts = caches["order"], caches["spans"], caches["experts"]
        N, M = Z0.shape[0], model.M
        P = N * M if model.routing == "dense" else N
        assert order.shape == experts.shape == (P,) and len(spans) == M
        # the spans, empty ones included, tile the pairs in expert order
        starts, stops = [s.start for s in spans], [s.stop for s in spans]
        assert starts == [0, *stops[:-1]] and stops[-1] == P
        for m, span in enumerate(spans):
            np.testing.assert_array_equal(experts[span], m)
            assert np.all(np.diff(order[span]) > 0)  # rows ascend within an expert
            if span.stop - span.start == N:  # it reads Z0 itself: dense makes no M-fold copy
                assert caches["inputs"][m] is Z0
        # slots name each row's P // N pairs, each pair once, in expert order
        slots = caches["slots"]
        np.testing.assert_array_equal(np.sort(slots, axis=None), np.arange(P))
        np.testing.assert_array_equal(order[slots], np.repeat(np.arange(N)[:, None], P // N, 1))
        assert np.all(np.diff(experts[slots], axis=1) > 0)
        if model.routing == "dense":
            np.testing.assert_array_equal(order, np.tile(np.arange(N), M))
        else:
            np.testing.assert_array_equal(np.sort(order), np.arange(N))  # a permutation
            for m, span in enumerate(spans):  # exactly the rows whose argmax is m
                rows = np.flatnonzero(np.argmax(rec.weights, axis=1) == m)
                np.testing.assert_array_equal(order[span], rows)
                np.testing.assert_array_equal(caches["inputs"][m], Z0[rows])
        assert caches["hidden"].shape == (P, model.dims.h)
        assert caches["out"].shape == (P, model.dims.d)
        for m, (span, Z_m) in enumerate(zip(spans, caches["inputs"])):
            hidden, out = expert_forward(model.params, m, Z_m)
            np.testing.assert_array_equal(caches["hidden"][span], hidden)
            np.testing.assert_array_equal(caches["out"][span], out)
        np.testing.assert_array_equal(y, reference_moe_forward(model, Z0))
        return spans, order

    @pytest.mark.parametrize("routing", ["top1", "dense"])
    @pytest.mark.parametrize("M", [2, 4, 8])
    @pytest.mark.parametrize("N", [1, 7, 64])
    def test_spans_and_output(self, routing, M, N):
        model = small_model(seed=M + N, M=M, routing=routing)
        Z0 = np.random.default_rng(N).normal(size=(N, model.dims.d)) * 3.0
        spans, _ = self.dispatch(model, Z0)
        if routing == "top1" and N == 64:
            assert sum(s.stop > s.start for s in spans) > 1  # rows really are split

    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_every_row_to_one_expert(self, M):
        Wg = np.zeros((M, 4))
        Wg[M - 1] = 10.0  # positive rows all pick the last expert
        Z0 = np.abs(np.random.default_rng(M).normal(size=(9, 4))) + 0.1
        spans, order = self.dispatch(gated_model(Wg, "top1"), Z0)
        assert spans == [slice(0, 0)] * (M - 1) + [slice(0, 9)]
        np.testing.assert_array_equal(order, np.arange(9))

    def test_idle_experts_between_busy_ones(self):
        # experts 1 and 3 of 5 win every row; 0, 2 and 4 are idle
        Wg = np.zeros((5, 2))
        Wg[1], Wg[3] = [10.0, 0.0], [0.0, 10.0]
        Z0 = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.5, 1.0]])
        spans, order = self.dispatch(gated_model(Wg, "top1"), Z0)
        assert spans == [slice(0, 0), slice(0, 2), slice(2, 2), slice(2, 5), slice(5, 5)]
        np.testing.assert_array_equal(order, [1, 3, 0, 2, 4])

    @pytest.mark.parametrize("routing", ["top1", "dense"])
    def test_partial_tie(self, routing):
        # experts 1 and 2 of 4 have one gate row, so they tie for the top probability
        # in every row that favours them; top-1 gives those rows to expert 1
        Wg = np.array([[4.0, 0.0], [0.0, 4.0], [0.0, 4.0], [-4.0, -4.0]])
        Z0 = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [0.5, 3.0], [1.0, 1.5]])
        model = gated_model(Wg, routing)
        spans, order = self.dispatch(model, Z0)
        probs = moe_block_forward(model, Z0)[1].weights
        tied = probs[:, 1] == probs[:, 2]
        assert tied.all() and (probs[:, 1] > probs[:, 0]).sum() == 3  # tied at the top in 3 rows
        if routing == "top1":
            assert spans == [slice(0, 2), slice(2, 5), slice(5, 5), slice(5, 5)]
            np.testing.assert_array_equal(order, [0, 2, 1, 3, 4])

    def test_dense_traced_memory_bound(self):
        # the forward's peak over what it keeps is at most one P x d array: the fold
        # gathers N rows per slot, so no P x d gated product or fold temporary is made
        model = small_model(d_raw=8, d=128, h=256, M=8, routing="dense")
        Z0 = np.random.default_rng(0).normal(size=(32, 128))
        moe_block_forward(model, Z0)  # warm up numpy's lazily built state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y, routing, caches = moe_block_forward(model, Z0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = y.nbytes + routing.weights.nbytes + sum(
            caches[name].nbytes for name in ("order", "experts", "slots", "hidden", "out"))
        P, d = caches["out"].shape
        assert P == 32 * 8
        assert peak <= kept + P * d * 8, (peak, kept)

    def test_single_row(self):
        Wg = np.zeros((4, 3))
        Wg[2] = 1.0
        spans, order = self.dispatch(gated_model(Wg, "top1"), np.ones((1, 3)))
        assert spans == [slice(0, 0), slice(0, 0), slice(0, 1), slice(1, 1)]
        np.testing.assert_array_equal(order, [0])


class TestModelForward:
    def test_identical_rows_identical_logits(self):
        model = small_model()
        X = np.tile(np.linspace(-1, 1, model.dims.d_raw), (5, 1))
        logits, _ = model_forward(model, X)
        for row in logits[1:]:
            np.testing.assert_array_equal(row, logits[0])

    def test_single_row_matches_hand_composition(self):
        model = small_model()
        x = np.linspace(-1, 1, model.dims.d_raw)
        logits, _ = model_forward(model, x)
        p = model.params
        z0 = p["input_map.W"] @ x + p["input_map.b"]
        probs = softmax(p["gate.W"] @ z0)
        m = int(np.argmax(probs))
        hidden = np.maximum(p[f"expert{m}.W1"] @ z0 + p[f"expert{m}.b1"], 0.0)
        y = probs[m] * (p[f"expert{m}.W2"] @ hidden + p[f"expert{m}.b2"])
        np.testing.assert_allclose(logits[0], p["head.W"] @ y + p["head.b"], atol=1e-12)

    def test_row_permutation_equivariance(self):
        model = small_model()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, model.dims.d_raw))
        perm = rng.permutation(7)
        logits, _ = model_forward(model, X)
        logits_p, _ = model_forward(model, X[perm])
        np.testing.assert_allclose(logits_p, logits[perm], atol=1e-12)

    def test_empty_batch_rejected(self):
        model = small_model()
        with pytest.raises(ContractViolation):
            model_forward(model, np.zeros((0, model.dims.d_raw)))

    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(1).normal(size=(4, 6)) * 10
        np.testing.assert_allclose(softmax(z).sum(axis=1), np.ones(4), atol=1e-12)


class TestTapelessForward:
    """backward=False keeps no pair buffers and changes no bit of what it returns."""

    @staticmethod
    def assert_same_bits(model, X):
        logits, tape = model_forward(model, X)
        logits_bare, bare = model_forward(model, X, backward=False)
        np.testing.assert_array_equal(logits_bare, logits)
        np.testing.assert_array_equal(bare.routing.weights, tape.routing.weights)
        if tape.routing.selected is None:
            assert bare.routing.selected is None
        else:
            np.testing.assert_array_equal(bare.routing.selected, tape.routing.selected)
        for name in ("experts", "slots", "y_moe"):
            np.testing.assert_array_equal(getattr(bare, name), getattr(tape, name))
        assert bare.spans == tape.spans
        assert bare.hidden is None and bare.out is None and bare.fingerprint is None
        return tape.spans

    @pytest.mark.parametrize("routing", ["top1", "dense"])
    @pytest.mark.parametrize("N", [1, 40])
    def test_same_bits_as_taped(self, routing, N):
        model = small_model(seed=N, M=4, routing=routing)
        X = np.random.default_rng(N).normal(size=(N, model.dims.d_raw)) * 3.0
        self.assert_same_bits(model, X)

    def test_same_bits_with_idle_experts(self):
        # experts 1 and 3 of 5 win every row, through an input map that passes the
        # first two raw columns on as Z0; 0, 2 and 4 are idle
        Wg = np.zeros((5, 2))
        Wg[1], Wg[3] = [10.0, 0.0], [0.0, 10.0]
        model = gated_model(Wg, "top1")
        model.params["input_map.W"] = np.eye(2, model.dims.d_raw)
        X = np.zeros((5, model.dims.d_raw))
        X[:, :2] = [[0.0, 1.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.5, 1.0]]
        spans = self.assert_same_bits(model, X)
        assert spans == [slice(0, 0), slice(0, 2), slice(2, 2), slice(2, 5), slice(5, 5)]

    def test_wide_peak_drops_by_the_hidden_buffer(self):
        # the experts share one widest-span scratch block instead of the P x h hidden
        # and P x d output buffers
        model = small_model(d_raw=8, d=128, h=256, M=8, routing="dense")
        X = np.random.default_rng(0).normal(size=(400, 8))
        peaks = {}
        for backward in (True, False):
            model_forward(model, X, guard=False, backward=backward)  # warm up
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _, tape = model_forward(model, X, guard=False, backward=backward)
                peaks[backward] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            del tape
        # Python's own small objects move a traced peak by tens of bytes from call to call
        P, widest, noise = 400 * 8, 400, 1024
        saved = (P - widest) * (model.dims.h + model.dims.d) * 8
        assert peaks[True] - peaks[False] >= saved - noise, peaks


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        model = small_model(seed=3, M=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dims == model.dims
        assert loaded.M == model.M and loaded.routing == model.routing
        for name in model.param_names():
            assert model.params[name].dtype == loaded.params[name].dtype
            np.testing.assert_array_equal(model.params[name], loaded.params[name])

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ContractViolation):
            load_model(path)

    def test_file_layout(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        assert list(json.loads(path.read_text())) == ["format", "dims", "M", "routing", "params"]

    def test_load_then_save_reproduces_file(self, tmp_path):
        model = small_model(seed=3, M=2, routing="dense")
        save_model(model, tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        path.write_text(path.read_text()[:300])
        with pytest.raises(ContractViolation, match="model.json"):
            load_model(path)

    @pytest.mark.parametrize("name", ["head.W", "expert1.b2", "gate.W"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_named(self, tmp_path, name, bad):
        # a file's payload can hold any float64; training would start from it
        model = small_model()
        model.params[name].reshape(-1)[-1] = bad
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(ContractViolation,
                           match=rf"model\.json: params {re.escape(name)} contains non-finite"):
            load_model(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["params"].pop("expert2.W2"), "expert2.W2: found no entry"),
        (lambda doc: doc["params"].update(extra=doc["params"]["head.b"]), "extra"),
        (lambda doc: doc["params"]["head.b"].update(shape=[1, 3]),
         r"head\.b: found shape \(1, 3\)"),
        (lambda doc: doc.update(M=5), r"gate\.W.*expected shape \(5, 4\)"),
        (lambda doc: doc["dims"].update(h=6), "expert0.W1"),
        (lambda doc: doc["dims"].update(d=0), "dimension d"),
        (lambda doc: doc["dims"].update(w=1), "dims: unexpected key 'w'"),
        (lambda doc: doc.pop("routing"), "checkpoint: missing key 'routing'"),
        (lambda doc: doc.update(M="2"), "M: expected an integer, got '2'"),
        (lambda doc: doc.update(M=0), r"model\.json: M: expert count must be >= 1, got 0"),
        (lambda doc: doc.update(M=-1), "M: expert count must be >= 1, got -1"),
        (lambda doc: doc["dims"].update(h=5.0), r"model\.json: h: expected an integer, got 5\.0"),
        # the format tag is checked before the keys
        (lambda doc: doc.update(format="omoe-lab-optimizer-v1"), "unknown checkpoint format"),
        (lambda doc: doc["params"]["head.b"].update(shape="x"), "unreadable checkpoint"),
        (lambda doc: doc.update(params=5), r"model\.json: params: not a JSON object"),
        (lambda doc: doc["params"].update({"head.b": [0.0, 0.0, 0.0]}),
         r"model\.json: params head\.b: expected an array"),
    ], ids=["missing", "unexpected", "wrong_shape", "wrong_M", "wrong_dims", "zero_dim",
            "extra_dim", "missing_routing", "string_M", "zero_M", "negative_M", "float_dim",
            "wrong_format", "payload_shape_not_a_list", "params_not_an_object",
            "param_not_an_array"])
    def test_bad_parameters_named(self, tmp_path, edit, field):
        # small_model: d_raw=6, d=4, h=5, c=3, M=3
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolation, match=field):
            load_model(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ContractViolation, match="model.json: unknown checkpoint format None"):
            load_model(path)
