"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Shared training runs are computed once per session.
"""

import json
import statistics
import time
from collections import defaultdict

import numpy as np
import pytest

from omoe_lab import (OrthoProjector, Rng, compare_optimizers, diverse_degree,
                      direct_projector, grad_check, init_model, make_config, model_forward,
                      make_optimizer, new_omoe_state, optim, predict_o_step_macs, run,
                      step_dispatch)
from omoe_lab.cli import main as cli_main
from omoe_lab.harness import ablate_skip, train_single
from omoe_lab.linalg import sym_eigvals
from omoe_lab.metrics import model_param_variance
from omoe_lab.model import ModelDims
from omoe_lab.optim import rls_update_macs


def report_line(n, ok, detail):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="session")
def default_runs():
    """Paired OMoE / baseline runs on the default config, 5 seeds, with models."""
    omoe_cfg = make_config()
    base_cfg = make_config({"omoe": {"enabled": False}})
    omoe_report, omoe_models = run(omoe_cfg, return_models=True)
    base_report, base_models = run(base_cfg, return_models=True)
    return {"omoe": (omoe_report, omoe_models), "base": (base_report, base_models)}


def test_criterion_01_woodbury_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for case in range(50):
        d = int(rng.choice([4, 8, 16, 32]))
        m = int(rng.integers(1, 2 * d + 1))
        alpha = float(rng.choice([1.0, 1e-2, 1e-4]))
        cols = rng.normal(size=(d, m))
        cols *= rng.uniform(0.1, 10.0, size=m) / np.linalg.norm(cols, axis=0)
        proj = OrthoProjector(d)
        for j in range(m):
            proj.rls_update(cols[:, j], alpha)
        oracle = direct_projector(cols, alpha)
        rel = np.linalg.norm(proj.P - oracle) / np.linalg.norm(oracle)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report_line(1, ok, f"50 cases, worst relative Frobenius error {worst:.2e} "
                       f"(limit 1e-9), {elapsed:.2f}s (limit 10s)")


def test_criterion_02_projector_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_sym = worst_low = worst_high = worst_att = 0.0
    rank_ok = True
    for seq in range(100):
        d = int(rng.integers(2, 17))
        m = int(rng.integers(1, 30))
        alpha = float(10.0 ** rng.uniform(-4, np.log10(1e-3)))  # <= 1e-3
        cols = rng.normal(size=(d, m))
        cols /= np.linalg.norm(cols, axis=0)
        proj = OrthoProjector(d)
        prev_rank = proj.effective_rank(0.5)
        for j in range(m):
            proj.rls_update(cols[:, j], alpha)
            worst_sym = max(worst_sym, float(np.max(np.abs(proj.P - proj.P.T))))
            eigs = sym_eigvals(proj.P)
            worst_low = min(worst_low, float(eigs.min()))
            worst_high = max(worst_high, float(eigs.max()))
            rank = proj.effective_rank(0.5)
            rank_ok = rank_ok and rank <= prev_rank
            prev_rank = rank
        sigma_min = np.linalg.svd(cols, compute_uv=False).min()
        bound = alpha / (alpha + sigma_min ** 2)
        for j in range(m):
            a = cols[:, j]
            excess = np.linalg.norm(proj.P @ a) - (bound * np.linalg.norm(a) + 1e-9)
            worst_att = max(worst_att, float(excess))
    elapsed = time.perf_counter() - t0
    ok = (worst_sym <= 1e-10 and worst_low >= -1e-10 and worst_high <= 1 + 1e-10
          and rank_ok and worst_att <= 0.0 and elapsed < 30.0)
    report_line(2, ok, f"100 sequences: symmetry {worst_sym:.1e}, eig range "
                       f"[{worst_low:.1e}, {worst_high:.10f}], rank monotone {rank_ok}, "
                       f"attenuation excess {worst_att:.1e}, {elapsed:.2f}s (limit 30s)")


def test_criterion_03_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = init_model(Rng(seed), ModelDims(12, 16, 32, 4), 4, "independent")
        X = rng.normal(size=(16, 12))
        targets = rng.integers(0, 4, size=16)
        for routing in ("dense", "top1"):
            model.routing = routing
            result = grad_check(model, X, targets, h=1e-5, n_samples=200,
                                rng=np.random.default_rng(seed))
            assert result.checked > 0
            worst = max(worst, result.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    report_line(3, ok, f"5 seeds x (dense, top1): max relative error {worst:.2e} "
                       f"(limit 1e-5), {elapsed:.2f}s (limit 60s)")


def test_criterion_04_parity_degenerate_schedule(default_runs):
    _, base_models = default_runs["base"]
    parity_cfg = make_config({"omoe": {"s": 10 ** 9}})
    _, parity_models = run(parity_cfg, return_models=True)
    mismatches = []
    for seed in parity_cfg["seeds"]:
        a, b = parity_models[seed], base_models[seed]
        for name in a.param_names():
            if not np.array_equal(a.params[name], b.params[name]):
                mismatches.append((seed, name))
    ok = not mismatches
    report_line(4, ok, f"s > total steps vs plain base optimizer, 5 seeds: "
                       f"{'bit-identical' if ok else f'mismatches {mismatches[:3]}'}")


def test_criterion_05_scope_invariants():
    rng = np.random.default_rng(0)
    model = init_model(Rng(0), ModelDims(8, 6, 6, 3), 2, "independent")
    model.routing = "dense"
    base = make_optimizer("adamw", 1e-3)
    state = new_omoe_state(base, model, s=5, n_total=1000, alpha0=1.0, lam=0.9,
                           avg_norm="paper", o_lr=0.5)
    X_all = rng.normal(size=(64, 8))
    y_all = rng.integers(0, 3, size=64)
    phi_violations = proj_violations = 0
    for step in range(1000):
        idx = rng.integers(0, 64, size=8)
        is_o = state.e % state.s == 0
        if is_o:
            before = {n: model.params[n].copy() for n in model.param_names()
                      if not n.startswith("expert")}
        else:
            before = {k: p.P.copy() for k, p in state.projectors.items()}
        step_dispatch(state, model, X_all[idx], y_all[idx])
        if is_o:
            phi_violations += sum(not np.array_equal(model.params[n], before[n])
                                  for n in model.param_names() if not n.startswith("expert"))
        else:
            proj_violations += sum(not np.array_equal(state.projectors[k].P, before[k])
                                   for k in state.projectors)
    balanced = state.means_produced == state.means_consumed
    ok = phi_violations == 0 and proj_violations == 0 and balanced
    report_line(5, ok, f"1000 steps (s=5): phi changed on O steps {phi_violations}x, "
                       f"projectors changed on R steps {proj_violations}x, means "
                       f"produced {state.means_produced} == consumed {state.means_consumed}")


def test_criterion_06_diversity_direction(default_runs):
    t0 = time.perf_counter()
    _, omoe_models = default_runs["omoe"]
    _, base_models = default_runs["base"]
    seeds = make_config()["seeds"]
    var_wins = sum(model_param_variance(omoe_models[s])
                   > model_param_variance(base_models[s]) for s in seeds)
    dd = [diverse_degree(omoe_models[s], base_models[s]) for s in seeds]
    dd_wins = sum(v > 0.5 for v in dd)
    elapsed = time.perf_counter() - t0
    ok = var_wins >= 4 and dd_wins >= 4 and elapsed < 600.0
    report_line(6, ok, f"variance wins {var_wins}/5 (need >=4), diverse_degree > 0.5 "
                       f"in {dd_wins}/5 (values {[round(v, 3) for v in dd]})")


def test_criterion_07_skip_step_trend():
    t0 = time.perf_counter()
    out = ablate_skip(make_config(), [2, 5, 10, 20])
    series = [row["param_variance"] for row in out["table"]]
    rng_span = max(series) - min(series)
    inversions = [(i, series[i + 1] - series[i]) for i in range(len(series) - 1)
                  if series[i + 1] > series[i]]
    ok_shape = (len(inversions) == 0
                or (len(inversions) == 1 and inversions[0][1] <= 0.10 * rng_span))
    elapsed = time.perf_counter() - t0
    ok = ok_shape and elapsed < 1800.0
    report_line(7, ok, f"variance over s=2,5,10,20: {[f'{v:.5f}' for v in series]}, "
                       f"{len(inversions)} adjacent inversion(s), {elapsed:.1f}s (limit 1800s)")


def test_criterion_08_performance_non_degradation(default_runs):
    omoe_report, _ = default_runs["omoe"]
    base_report, _ = default_runs["base"]
    omoe_mean = omoe_report["aggregate"]["eval_score_mean"]
    base_mean = base_report["aggregate"]["eval_score_mean"]
    deltas = [o["final_eval_score"] - b["final_eval_score"]
              for o, b in zip(omoe_report["per_seed"], base_report["per_seed"])]
    med = statistics.median(deltas)
    ok = omoe_mean >= base_mean - 0.005 and med >= 0.0
    report_line(8, ok, f"mean {omoe_mean:.4f} vs baseline {base_mean:.4f} "
                       f"(margin 0.5pp), median per-seed delta {med:+.4f} (need >= 0)")


def test_criterion_09_optimizer_generality():
    out = compare_optimizers(make_config(), ["sgd", "adamw", "rmsprop", "adagrad"])
    medians = {row["optimizer"]: statistics.median(row["per_seed_delta"])
               for row in out["table"]}
    ok = all(m >= -0.005 for m in medians.values())
    report_line(9, ok, "median per-seed delta by base optimizer: "
                       + ", ".join(f"{k} {v:+.4f}" for k, v in medians.items())
                       + " (floor -0.005)")


def test_criterion_10_overhead_exactness():
    rng = np.random.default_rng(99)
    mismatches = []
    for case in range(10):
        d = int(rng.integers(2, 13))
        h = int(rng.integers(2, 13))
        M = int(rng.integers(2, 5))
        model = init_model(Rng(case), ModelDims(d, d, h, 3), M, "independent")
        base = make_optimizer("sgd", 0.1)
        state = new_omoe_state(base, model, s=5, n_total=100, alpha0=1.0, lam=0.9,
                               avg_norm="paper", o_lr=0.1)
        means_counts = {}
        for key in state.buffers:
            n = int(rng.integers(0, 4))
            means_counts[key] = n
            dim = state.projectors[key].d
            for _ in range(n):
                state.buffers[key].append((int(rng.integers(0, 101)),
                                           rng.normal(size=dim)))
        grads_dict = {name: rng.normal(size=p.shape) for name, p in model.params.items()}
        from omoe_lab.grad import Gradients
        from omoe_lab.optim import MacCounter, o_step
        state.mac_counter = MacCounter()
        o_step(state, model, Gradients(grads_dict, 0.0))
        predicted = predict_o_step_macs(d, h, M, means_counts)
        got = state.mac_counter
        if (got.rls, got.average, got.project) != \
                (predicted.rls, predicted.average, predicted.project):
            mismatches.append((case, (got.rls, got.average, got.project),
                               (predicted.rls, predicted.average, predicted.project)))
    ratio = rls_update_macs(512) / rls_update_macs(256)
    ok = not mismatches and 3.9 < ratio < 4.1
    report_line(10, ok, f"10 random shapes predicted == instrumented exactly "
                        f"({'yes' if not mismatches else mismatches[:2]}), doubling the "
                        f"layer width scales the per-update cost x{ratio:.4f} (need (3.9, 4.1))")


def test_criterion_11_determinism(tmp_path):
    cfg = {"seeds": [0, 1], "train": {"epochs": 3}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "run_report.json").read_text())
        doc.pop("timing")
        payloads.append(json.dumps(doc, sort_keys=True))
    ok = payloads[0] == payloads[1]
    report_line(11, ok, "two train executions, numeric payloads byte-identical "
                        "after dropping the timing section: " + ("yes" if ok else "NO"))


def relative_error(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def record_projector_run(monkeypatch, cfg):
    """Train the config's first seed, recording every mean the projectors consume with
    the alpha it was consumed at and its batch index, and the expert weights and
    gradients around the run's last O step. Returns (SeedResult, record)."""
    rls_update, o_step = OrthoProjector.rls_update, optim.o_step
    record = {"consumed": defaultdict(list), "batch": defaultdict(list), "o_step": None}

    def recording_update(proj, xbar, alpha):
        record["consumed"][id(proj)].append((np.array(xbar), alpha))
        rls_update(proj, xbar, alpha)

    def recording_o_step(state, model, grads):
        for key, entries in state.buffers.items():  # o_step drains them first
            record["batch"][key].extend(i for i, _xbar in entries)
        keys = list(state.projectors)  # (expert, layer) of every weight matrix
        before = {key: model.params["expert%d.W%d" % key].copy() for key in keys}
        outcome = o_step(state, model, grads)
        record["o_step"] = {key: (before[key], grads["expert%d.W%d" % key].copy(),
                                  model.params["expert%d.W%d" % key].copy()) for key in keys}
        return outcome

    with monkeypatch.context() as patched:
        patched.setattr(OrthoProjector, "rls_update", recording_update)
        patched.setattr(optim, "o_step", recording_o_step)
        result = train_single(cfg, cfg["seeds"][0])
    return result, record


def test_criterion_13_run_level_projector_oracle(monkeypatch):
    t0 = time.perf_counter()
    worst_alpha = worst_proj = worst_step = 0.0
    updates = 0
    runs = {"top1": {}, "dense s=2": {"model": {"routing": "dense"}, "omoe": {"s": 2}}}
    for overrides in runs.values():
        cfg = make_config({**overrides, "seeds": [0]})
        omoe = cfg["omoe"]
        result, record = record_projector_run(monkeypatch, cfg)
        state = result.state
        assert state.means_consumed == sum(map(len, record["batch"].values())) > 0
        # each (expert, layer) projector against the closed form over the means it
        # consumed, at the alphas the decay schedule gives their batch indices
        oracle = {}
        for key, proj in state.projectors.items():
            consumed = record["consumed"][id(proj)]
            assert len(consumed) == len(record["batch"][key]) == proj.updates_applied
            alphas = np.array([omoe["alpha0"] * omoe["lambda"] ** (i / state.n_total)
                               for i in record["batch"][key]])
            if consumed:
                used = np.array([alpha for _xbar, alpha in consumed])
                worst_alpha = max(worst_alpha, float(np.max(np.abs(used - alphas) / alphas)))
                cols = np.column_stack([xbar for xbar, _alpha in consumed])
            else:
                cols = np.zeros((proj.d, 0))
            oracle[key] = direct_projector(cols, alphas)
            worst_proj = max(worst_proj, relative_error(proj.P, oracle[key]))
            updates += len(consumed)
        # the last O step drained every consumed mean, so the oracle projectors are the
        # ones it used: W_m moves by -(o_lr / norm) G_m sum_{j != m} P_j
        norm = state.M if omoe["avg_norm"] == "paper" else state.M - 1
        for (m, layer), (before, G, after) in record["o_step"].items():
            others = sum(oracle[(j, layer)] for j in range(state.M) if j != m)
            want = -(omoe["o_lr"] / norm) * G @ others
            worst_step = max(worst_step, relative_error(after - before, want))
    elapsed = time.perf_counter() - t0
    ok = (worst_alpha <= 1e-12 and worst_proj <= 1e-9 and worst_step <= 1e-9
          and elapsed < 60.0)
    report_line(13, ok, f"top-1 and dense s=2 seeds, {updates} RLS updates: consumed alphas "
                        f"vs schedule {worst_alpha:.1e} (limit 1e-12), projectors vs closed "
                        f"form {worst_proj:.1e} (limit 1e-9), last O step's weight deltas "
                        f"{worst_step:.1e} (limit 1e-9), {elapsed:.2f}s (limit 60s)")
