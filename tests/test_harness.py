import copy
import json
import weakref

import numpy as np
import pytest

from omoe_lab import (DEFAULT_CONFIG, ablate_experts, ablate_skip, compare_optimizers,
                      make_config, overhead_report, predict_o_step_macs, run, train_single)
from omoe_lab.errors import ConfigError
from omoe_lab import harness
from omoe_lab.harness import build_dataset, step_dispatch, validate_config
from omoe_lab.optim import (average_projector_macs, projection_macs, rls_update_macs)


def tiny_config(**over):
    """Small fast config for harness behavior tests; ``omoe__s=3`` sets omoe.s."""
    overrides = {
        "task": {"K": 3, "d_raw": 12, "subspace_dim": 3, "n_per_cluster": 40},
        "model": {"d": 8, "h": 8, "M": 3, "c": 3},
        "train": {"epochs": 2, "batch_size": 16},
        "seeds": [0, 1],
    }
    for dotted, value in over.items():
        section, key = dotted.split("__")
        overrides.setdefault(section, {})[key] = value
    return make_config(overrides)


class TestConfig:
    def test_defaults_validate(self):
        validate_config(make_config())

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            make_config({"optimiser": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="omoe.momentum"):
            make_config({"omoe": {"momentum": 0.9}})

    def test_partial_merge_keeps_defaults(self):
        cfg = make_config({"train": {"epochs": 3}})
        assert cfg["train"]["epochs"] == 3
        assert cfg["train"]["batch_size"] == DEFAULT_CONFIG["train"]["batch_size"]

    def test_bad_s_rejected(self):
        with pytest.raises(ConfigError, match="omoe.s"):
            make_config({"omoe": {"s": 1}})

    def test_bad_routing_rejected(self):
        with pytest.raises(ConfigError, match="model.routing"):
            make_config({"model": {"routing": "topk"}})

    def test_more_clusters_than_classes_rejected(self):
        with pytest.raises(ConfigError, match=r"task\.K.*model\.c"):
            make_config({"task": {"K": 6}})

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds: need at least one seed"):
            make_config({"seeds": []})

    def test_repeated_seed_rejected(self):
        # a repeated seed would train twice and count twice in the aggregate
        with pytest.raises(ConfigError, match=r"seeds: duplicate seeds rejected: \[0, 1, 0\]"):
            make_config({"seeds": [0, 1, 0]})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"seeds: must be >= 0, got -1"):
            make_config({"seeds": [0, -1]})

    @pytest.mark.parametrize("overrides, field", [
        ({"model": {"M": "abc"}}, "model.M"),
        ({"train": {"batch_size": 2.5}}, "train.batch_size"),
        ({"train": {"epochs": True}}, "train.epochs"),
        ({"seeds": [0, "1"]}, "seeds"),
        ({"task": {"kind": "csv", "path": "x.csv"}}, "task.feature_columns"),
        ({"optimizer": {"kind": "sgd", "beta1": 0.5}}, r"optimizer\.beta1.*'sgd'"),
        ({"optimizer": {"kind": "adagrad", "beta1": 0.5}}, r"optimizer\.beta1.*'adagrad'"),
        ({"optimizer": {"kind": "adam", "rho": 0.9}}, "optimizer.rho"),
        ({"optimizer": {"kind": ["adam"]}}, "optimizer.kind"),
        # cross-entropy is the only loss: a config naming train.loss names an unknown key
        ({"train": {"loss": "mse"}}, "train.loss"),
        ({"train": {"loss": "ce"}}, "train.loss"),
        # so does a config of the deleted regression task, at its first unknown key
        ({"task": {"kind": "piecewise_regression", "pieces": "a", "n": 100},
          "train": {"loss": "mse"}, "model": {"c": 1}}, "task.pieces"),
        ({"task": {"kind": "csv", "path": "x.csv", "feature_columns": "f0",
                   "target_column": "y"}}, "task.feature_columns"),
        ({"task": {"kind": "csv", "path": "x.csv", "feature_columns": ["f0", "f1"],
                   "target_column": "y"}}, r"task\.feature_columns.*task\.d_raw"),
        ({"train": {"loss": "xyz"}}, "train.loss"),
        ({"model": {"init": "foo"}}, "model.init"),
        ({"model": {"d": 0}}, "model.d"),
        ({"model": {"h": 0}}, "model.h"),
        ({"model": {"c": 0}}, r"model\.c: must be"),
        ({"task": {"d_raw": 0}}, "task.d_raw"),
        ({"omoe": {"alpha0": 0}}, "omoe.alpha0"),
        ({"omoe": {"lambda": 0}}, "omoe.lambda"),
        ({"omoe": {"lambda": 1.5}}, "omoe.lambda"),
        ({"task": {"n_per_cluster": 0}}, "task.n_per_cluster"),
        ({"task": {"n": 0}}, "task.n"),
        ({"task": {"kind": "piecewise_regression", "pieces": 1, "n": 100},
          "train": {"loss": "mse"}, "model": {"c": 1}}, "task.pieces"),
        ({"task": {"K": 1}}, "task.K"),
        ({"task": {"subspace_dim": 33}}, r"task\.subspace_dim.*task\.d_raw"),
        ({"train": {"eval_fraction": -1}}, "train.eval_fraction"),
        ({"train": {"eval_fraction": 1.0}}, "train.eval_fraction"),
        ({"task": {"noise_std": -1}}, "task.noise_std"),
        ({"train": {"batch_size": 5000}}, r"train\.batch_size.*training rows"),
        ({"task": {"n_per_cluster": 5}}, r"train\.batch_size.*training rows"),  # 16 rows
        ({"model": {"M": 1}}, r"model\.M: must be >= 2"),
        ({"task": {"kind": "bogus"}}, "task.kind"),
        ({"task": {"noise_std": float("nan")}}, r"task\.noise_std: must be >= 0 and be finite"),
        ({"task": {"noise_std": float("inf")}}, r"task\.noise_std: must be >= 0 and be finite"),
        ({"task": {"kind": "piecewise_regression"}}, "task.kind"),
        # o_lr is a number: a run whose O steps take the base lr sets it to optimizer.lr
        ({"omoe": {"o_lr": None}}, r"^omoe\.o_lr: expected a value like the default 2\.5, "
                                   r"got None$"),
    ])
    def test_bad_value_rejected(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            make_config(overrides)

    def test_well_typed_values_accepted(self):
        # an int passes for a float, rmsprop's constructor takes rho
        cfg = make_config({"optimizer": {"kind": "rmsprop", "lr": 1, "rho": 0.9}})
        assert cfg["optimizer"] == {"kind": "rmsprop", "lr": 1, "rho": 0.9}

    def test_defaults_not_mutated_by_make_config(self):
        snapshot = copy.deepcopy(DEFAULT_CONFIG)
        cfg = make_config({"omoe": {"s": 9}})
        cfg["train"]["epochs"] = 99
        assert DEFAULT_CONFIG == snapshot


class TestTrainSingle:
    def test_deterministic_in_config_and_seed(self):
        cfg = tiny_config()
        a = train_single(cfg, 0)
        b = train_single(cfg, 0)
        assert a.record == b.record
        for name in a.model.param_names():
            np.testing.assert_array_equal(a.model.params[name], b.model.params[name])

    def test_record_schema(self):
        rec = train_single(tiny_config(), 0).record
        for key in ("seed", "final_train_loss", "final_eval_score",
                    "final_param_variance", "loss_curve", "eval_curve",
                    "diversity_curve", "load_entropy_curve", "step_counts",
                    "means_produced", "means_consumed"):
            assert key in rec
        assert len(rec["loss_curve"]) == 2
        assert rec["step_counts"]["O"] >= 1

    def test_unsplit_dataset_freed_before_training(self, monkeypatch):
        # only the split rows, which are copies, live through the training steps
        refs, dead = [], []

        def recording(cfg, rng):
            dataset = build_dataset(cfg, rng)
            refs.append(weakref.ref(dataset.X))
            return dataset

        def checking(*args, **kwargs):
            dead.append(refs[-1]() is None)
            return step_dispatch(*args, **kwargs)
        monkeypatch.setattr(harness, "build_dataset", recording)
        monkeypatch.setattr(harness, "step_dispatch", checking)
        train_single(tiny_config(), 0)
        assert len(refs) == 1 and dead and all(dead)

    def test_baseline_has_no_o_steps(self):
        rec = train_single(tiny_config(omoe__enabled=False), 0).record
        assert rec["step_counts"]["O"] == 0
        assert rec["means_produced"] == 0


class TestRun:
    def test_report_schema_and_aggregates(self):
        cfg = tiny_config()
        report = run(cfg)
        assert report["config"] == cfg
        assert [r["seed"] for r in report["per_seed"]] == [0, 1]
        scores = [r["final_eval_score"] for r in report["per_seed"]]
        assert report["aggregate"]["eval_score_mean"] == pytest.approx(np.mean(scores))
        assert set(report["timing"]) == {"per_seed_s", "total_s"}

    def test_json_serializable(self):
        json.dumps(run(tiny_config()))

    def test_return_models(self):
        report, models = run(tiny_config(), return_models=True)
        assert set(models) == {0, 1}
        assert models[0].M == 3


class TestAblations:
    def test_ablate_skip_table(self):
        out = ablate_skip(tiny_config(), [2, 4])
        assert [row["s"] for row in out["table"]] == [2, 4]
        assert out["normalized"][0]["normalized_variance"] == pytest.approx(1.0)

    @pytest.mark.parametrize("sweep, over", [
        (lambda cfg: ablate_skip(cfg, [5, 1]), {}),
        # omoe disabled makes s=1 valid for the baseline side only
        (lambda cfg: ablate_experts(cfg, [2, 3]), {"omoe__enabled": False, "omoe__s": 1}),
        (lambda cfg: compare_optimizers(cfg, ["sgd", "adam"]),
         {"omoe__enabled": False, "omoe__s": 1}),
    ], ids=["ablate_skip", "ablate_experts", "compare_optimizers"])
    def test_bad_variant_rejected_before_training(self, monkeypatch, sweep, over):
        def never(cfg, seed):
            raise AssertionError("a variant trained before every variant was validated")
        monkeypatch.setattr(harness, "train_single", never)
        with pytest.raises(ConfigError, match="omoe.s"):
            sweep(tiny_config(**over))

    def test_ablate_skip_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ablate_skip(tiny_config(), [2, 2])

    @pytest.mark.parametrize("sweep, message", [
        (lambda cfg: ablate_skip(cfg, []), "s_values must be non-empty"),
        (lambda cfg: ablate_experts(cfg, []), "m_values must be non-empty"),
        (lambda cfg: ablate_experts(cfg, [2, 2]), "duplicate m_values"),
        (lambda cfg: compare_optimizers(cfg, ["sgd", "sgd"]), "duplicate kinds"),
    ], ids=["ablate_skip_empty", "ablate_experts_empty", "ablate_experts_repeated",
            "compare_optimizers_repeated"])
    def test_empty_or_repeated_values_rejected(self, monkeypatch, sweep, message):
        def never(cfg, seed):
            raise AssertionError("a sweep trained on an empty or repeated value list")
        monkeypatch.setattr(harness, "train_single", never)
        with pytest.raises(ConfigError, match=message):
            sweep(tiny_config())

    def test_ablate_skip_requires_omoe(self):
        with pytest.raises(ConfigError):
            ablate_skip(tiny_config(omoe__enabled=False), [2])

    def test_ablate_experts_improvement_column(self):
        out = ablate_experts(tiny_config(), [2, 3])
        assert [row["M"] for row in out["table"]] == [2, 3]
        for row in out["table"]:
            assert row["improvement"] == pytest.approx(
                row["omoe_score"] - row["baseline_score"])

    def test_ablate_experts_m1_rejected(self):
        with pytest.raises(ConfigError, match=">= 2"):
            ablate_experts(tiny_config(), [1, 2])

    def test_compare_optimizers_rows(self):
        # each kind gets a fresh optimizer section: adamw's weight_decay does not reach sgd
        out = compare_optimizers(tiny_config(optimizer__weight_decay=0.1), ["sgd"])
        assert len(out["table"]) == 1
        row = out["table"][0]
        assert row["optimizer"] == "sgd"
        assert len(row["per_seed_delta"]) == 2
        assert out["reports"]["sgd"]["omoe"]["config"]["optimizer"] == {"kind": "sgd", "lr": 0.1}

    def test_compare_optimizers_empty_rejected(self):
        with pytest.raises(ConfigError):
            compare_optimizers(tiny_config(), [])

    def test_compare_optimizers_unknown_kind(self):
        with pytest.raises(ConfigError, match="lion"):
            compare_optimizers(tiny_config(), ["lion"])

    def test_report_key_order(self):
        # the JSON payloads list their keys in this order
        cfg = tiny_config()
        skip = ablate_skip(cfg, [2])
        assert list(skip["table"][0]) == ["s", "param_variance", "eval_score"]
        assert list(skip["normalized"][0]) == ["s", "normalized_variance"]
        assert list(ablate_experts(cfg, [2])["table"][0]) == [
            "M", "baseline_score", "omoe_score", "improvement"]
        assert list(compare_optimizers(cfg, ["sgd"])["table"][0]) == [
            "optimizer", "baseline_score", "omoe_score", "per_seed_delta"]
        assert list(overhead_report(cfg)) == [
            "macs_rls", "macs_average", "macs_project", "macs_total", "projector_floats",
            "base_state_floats", "param_floats", "optimizer_memory_ratio"]
        assert list(train_single(cfg, 0).record["diversity_curve"][0]) == [
            "param_variance", "similar_fraction", "output_variance", "load_entropy"]

    @pytest.mark.parametrize("sweep, field", [
        (lambda cfg: ablate_skip(cfg, [2.7]), "omoe.s"),
        (lambda cfg: ablate_skip(cfg, [2, 3.0]), "omoe.s"),
        (lambda cfg: ablate_experts(cfg, [2, 2.5]), "model.M"),
        (lambda cfg: ablate_experts(cfg, [np.float64(3)]), "model.M"),
    ], ids=["skip_fraction", "skip_float", "experts_fraction", "experts_numpy_float"])
    def test_non_integer_value_rejected_before_training(self, monkeypatch, sweep, field):
        # a value is validated as given, not truncated to an int
        def never(cfg, seed):
            raise AssertionError("a sweep trained on a non-integer value")
        monkeypatch.setattr(harness, "train_single", never)
        with pytest.raises(ConfigError, match=f"{field}: expected a value like the default"):
            sweep(tiny_config())

    def test_numpy_integer_values_become_plain_ints(self):
        cfg = tiny_config(train__epochs=1)
        skip = ablate_skip(cfg, list(np.array([3, 2])))
        experts = ablate_experts(cfg, [np.int64(2)])
        assert list(skip["reports"]) == [3, 2] and list(experts["reports"]) == [2]
        values = [*skip["reports"], *experts["reports"], *(row["s"] for row in skip["table"]),
                  *(row["s"] for row in skip["normalized"]), experts["table"][0]["M"],
                  *(rep["config"]["omoe"]["s"] for rep in skip["reports"].values()),
                  *(rep["config"]["model"]["M"] for rep in experts["reports"][2].values())]
        assert all(type(v) is int for v in values)
        json.dumps([skip, experts], allow_nan=False)

    def test_each_report_is_the_plain_run_of_its_variant(self):
        # every (value, arm) report is what run gives on its hand-built config, timing aside
        cfg = tiny_config(optimizer__weight_decay=0.1, train__epochs=1)

        def plain_run(arm, section, replacement):
            variant = copy.deepcopy(cfg)
            variant[section] = replacement
            variant["omoe"]["enabled"] = arm == "omoe"
            return run(variant)

        both = ("baseline", "omoe")
        cases = [
            # the whole optimizer section is replaced: the kind's default lr, no weight_decay
            (compare_optimizers(cfg, ["sgd", "adam"])["reports"],
             {kind: {arm: plain_run(arm, "optimizer", {"kind": kind, "lr": lr}) for arm in both}
              for kind, lr in (("sgd", 0.1), ("adam", 1e-3))}),
            (ablate_experts(cfg, [2, 4])["reports"],
             {m: {arm: plain_run(arm, "model", {**cfg["model"], "M": m}) for arm in both}
              for m in (2, 4)}),
            # OMoE only, one report per s
            (ablate_skip(cfg, [3, 2])["reports"],
             {s: plain_run("omoe", "omoe", {**cfg["omoe"], "s": s}) for s in (3, 2)}),
        ]

        def untimed(reports):
            if "timing" in reports:
                return {k: v for k, v in reports.items() if k != "timing"}
            return {k: untimed(v) for k, v in reports.items()}

        for got, want in cases:
            assert json.dumps(untimed(got)) == json.dumps(untimed(want))


class TestOverhead:
    def test_predict_matches_formula_single_mean(self):
        # d = 2, one expert layer with one buffered mean: rls cost 3*4 + 2*2
        counter = predict_o_step_macs(d=2, h=2, M=2, means_counts={(0, 1): 1})
        assert counter.rls == rls_update_macs(2) == 3 * 4 + 2 * 2

    def test_predict_totals_decompose(self):
        d, h, M = 5, 7, 3
        means = {(m, layer): 2 for m in range(M) for layer in (1, 2)}
        c = predict_o_step_macs(d, h, M, means)
        assert c.rls == M * 2 * (rls_update_macs(d) + rls_update_macs(h))
        # one sum per layer, then one subtraction per expert
        assert c.average == average_projector_macs(d, M) + average_projector_macs(h, M) \
            == (2 * M - 1) * (d * d + h * h)
        assert c.project == M * (projection_macs(h, d) + projection_macs(d, h))

    def test_m1_average_cost_zero(self):
        c = predict_o_step_macs(d=4, h=4, M=1, means_counts={})
        assert c.average == 0

    def test_overhead_report_schema(self):
        d = overhead_report(make_config())
        assert d["macs_total"] == d["macs_rls"] + d["macs_average"] + d["macs_project"]
        assert d["optimizer_memory_ratio"] > 1.0  # adamw default has moments
        mc = DEFAULT_CONFIG["model"]
        assert d["projector_floats"] == mc["M"] * (mc["d"] ** 2 + mc["h"] ** 2)

    def test_sgd_memory_ratio_undefined(self):
        est = overhead_report(make_config({"optimizer": {"kind": "sgd", "lr": 0.1}}))
        assert est["optimizer_memory_ratio"] is None
        assert est["base_state_floats"] == 0
