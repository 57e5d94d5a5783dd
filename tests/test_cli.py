import json
import math

import pytest

from omoe_lab import Rng, gen_subspace_clusters, harness, init_model, save_model
from omoe_lab.cli import main
from omoe_lab.model import ModelDims
from tests.test_tasks import write_csv


TINY = {
    "task": {"K": 3, "d_raw": 12, "subspace_dim": 3, "n_per_cluster": 40},
    "model": {"d": 8, "h": 8, "M": 3, "c": 3},
    "train": {"epochs": 1, "batch_size": 16},
    "seeds": [0],
}


# the options of the deleted piecewise-regression task
REGRESSION = ["--override", "task.kind=piecewise_regression", "--override", "task.pieces=3",
              "--override", "task.n=100", "--override", "train.loss=mse",
              "--override", "model.c=1"]


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture
def no_training_steps(monkeypatch):
    """Any training step fails (exit 3 through ``main``): a refusal comes before the first."""
    def no_step(*_args):
        raise AssertionError("a training step ran before the input was refused")
    monkeypatch.setattr(harness, "step_dispatch", no_step)


class TestTrain:
    def test_writes_report(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--config", tiny_config_path, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["config"]["train"]["epochs"] == 1
        assert len(report["per_seed"]) == 1

    def test_stdout_when_no_out(self, tiny_config_path, capsys):
        assert main(["train", "--config", tiny_config_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "aggregate" in report

    def test_seeds_flag(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", tiny_config_path, "--seeds", "3,4",
              "--out", str(out)])
        report = json.loads((out / "run_report.json").read_text())
        assert [r["seed"] for r in report["per_seed"]] == [3, 4]

    def test_override_flag(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", tiny_config_path, "--override", "omoe.s=3",
              "--override", "omoe.enabled=false", "--out", str(out)])
        report = json.loads((out / "run_report.json").read_text())
        assert report["config"]["omoe"]["s"] == 3
        assert report["config"]["omoe"]["enabled"] is False


class TestErrorPaths:
    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"omoe": {"bogus": 1}}')
        assert main(["train", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_invalid_json_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 2

    def test_non_object_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1]")
        assert main(["overhead", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "JSON object" in err["error"]["message"]

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2

    def test_malformed_override_exit_2(self, tiny_config_path):
        assert main(["train", "--config", tiny_config_path, "--override", "omoe.s"]) == 2

    def test_missing_csv_exit_2(self, tmp_path, capsys):
        cfg = dict(TINY)
        cfg["task"] = {"kind": "csv", "d_raw": 2, "path": str(tmp_path / "absent.csv"),
                       "feature_columns": ["f0", "f1"], "target_column": "target"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DataLoadError"

    def test_more_clusters_than_classes_exit_2(self, tiny_config_path, capsys):
        assert main(["train", "--config", tiny_config_path, "--override", "task.K=6"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "task.K" in err["error"]["message"] and "model.c" in err["error"]["message"]

    # each case has its own id, so inserting a case renames no other; the first 59
    # keep the index-based ids pytest gave them before the ids were written out
    @pytest.mark.parametrize("args, field", [
        (["train", "--override", "model.M=abc"], "model.M"),
        (["train", "--override", "train.batch_size=2.5"], "train.batch_size"),
        (["train", "--seeds", "x"], "--seeds"),
        (["ablate-skip", "--s-values", "2,x"], "--s-values"),
        (["train", "--override", "task.kind=csv", "--override", "task.path=x.csv"],
         "task.feature_columns"),
        (["train", "--override", "optimizer.kind=sgd", "--override", "optimizer.beta1=0.5"],
         "optimizer.beta1"),
        (["train", "--override", "optimizer.kind=adagrad",
          "--override", "optimizer.beta1=0.5"], "optimizer.beta1"),
        (["train", "--override", "omoe.bogus=1"], "omoe.bogus"),
        (["train", "--override", "nosection.s=1"], "nosection"),
        # cross-entropy is the only loss: train.loss is an unknown key
        (["train", "--override", "train.loss=mse"], "train.loss"),
        (["train", "--override", "train.loss=ce"], "train.loss"),
        (["train", "--override", "task.kind=piecewise_regression", "--override", 'task.pieces="a"',
          "--override", "task.n=100", "--override", "train.loss=mse", "--override", "model.c=1"],
         "task.pieces"),
        (["train", "--override", "task.kind=csv", "--override", "task.path=x.csv",
          "--override", 'task.feature_columns=["f0", "f1"]', "--override", "task.target_column=y"],
         "task.d_raw"),
        (["train", "--override", "train.loss=xyz"], "train.loss"),
        (["train", "--override", "model.init=foo"], "model.init"),
        (["train", "--override", "model.d=0"], "model.d"),
        (["train", "--override", "model.h=0"], "model.h"),
        (["train", "--override", "model.c=0"], "model.c: must be"),
        (["train", "--override", "task.d_raw=0"], "task.d_raw"),
        (["train", "--override", "omoe.alpha0=0"], "omoe.alpha0"),
        (["train", "--override", "omoe.lambda=0"], "omoe.lambda"),
        (["train", "--override", "omoe.lambda=1.5"], "omoe.lambda"),
        (["train", "--override", "task.n=0"], "task.n"),
        (["train", "--override", "task.n_per_cluster=0"], "task.n_per_cluster"),
        (["train", *REGRESSION, "--override", "task.pieces=1"], "task.pieces"),
        (["train", "--override", "task.K=1"], "task.K"),
        (["train", "--override", "task.subspace_dim=13"], "task.subspace_dim"),
        (["train", "--override", "train.eval_fraction=-1"], "train.eval_fraction"),
        (["train", "--override", "train.eval_fraction=1.0"], "train.eval_fraction"),
        (["train", "--override", "task.noise_std=-1"], "task.noise_std"),
        (["train", "--override", "train.batch_size=5000"], "train.batch_size"),
        (["train", "--override", "task.n_per_cluster=5"], "train.batch_size"),  # 12 rows
        (["train", "--override", "model.M=1"], "model.M"),
        (["ablate-skip", "--s-values", "2", "--override", "model.M=1"], "model.M"),
        (["overhead", "--override", "task.kind=bogus"], "task.kind"),
        (["ablate-experts", "--m-values", "2,x"], "--m-values"),
        (["compare-optimizers", "--kinds", "sgd,lion"], "lion"),
        # list flags are parsed before the config is loaded
        (["ablate-skip", "--s-values", "2,x", "--override", "model.M=1"], "--s-values"),
        (["ablate-experts", "--m-values", "2,2"], "duplicate m_values"),
        (["compare-optimizers", "--kinds", "sgd,sgd"], "duplicate kinds"),
        (["train", "--override", "optimizer.lr=-1"], "optimizer.lr: must be > 0"),
        (["train", "--override", "optimizer.lr=0"], "optimizer.lr: must be > 0"),
        (["train", "--override", "optimizer.lr=NaN"], "optimizer.lr: must be > 0"),
        (["train", "--override", "omoe.o_lr=-5"], "omoe.o_lr: must be > 0"),
        (["train", "--override", "omoe.o_lr=0"], "omoe.o_lr: must be > 0"),
        (["train", "--override", "optimizer.weight_decay=-3"], "optimizer.weight_decay"),
        (["train", "--override", "optimizer.beta1=2"], "optimizer.beta1: must lie in [0, 1)"),
        (["train", "--override", "optimizer.beta2=1"], "optimizer.beta2: must lie in [0, 1)"),
        (["train", "--override", "optimizer.eps=0"], "optimizer.eps: must be > 0"),
        (["train", "--override", "optimizer.kind=rmsprop", "--override", "optimizer.rho=-0.1"],
         "optimizer.rho: must lie in [0, 1)"),
        # a negative seed once failed inside training (exit 3), or not at all for overhead
        (["train", "--seeds", "-1"], "seeds: must be >= 0"),
        (["overhead", "--seeds", "0,-2"], "seeds: must be >= 0"),
        # a non-finite value once trained the whole run and failed at the report (exit 3)
        (["train", "--override", "task.noise_std=NaN"], "task.noise_std: must be >= 0 and"),
        (["train", "--override", "optimizer.lr=Infinity"], "optimizer.lr: must be > 0 and"),
        # overhead prices the O step with omoe.s even when OMoE is off: no negative MAC counts
        (["overhead", "--override", "omoe.enabled=false", "--override", "omoe.s=0"],
         "omoe.s: must be >= 2"),
        (["overhead", "--override", "omoe.enabled=false", "--override", "omoe.s=-3"],
         "omoe.s: must be >= 2"),
        (["train", "--seeds", "0,0"], "seeds: duplicate seeds rejected"),
        (["train", "--override", "task.kind=piecewise_regression"], "task.kind"),
        (["train", "--override", "omoe.o_lr=null"], "omoe.o_lr: expected a value like"),
        # a target among the features would leak the label
        (["train", "--override", "task.kind=csv", "--override", "task.path=x.csv",
          "--override", 'task.feature_columns=["f0", "y"]', "--override", "task.target_column=y",
          "--override", "task.d_raw=2"], "task.feature_columns: column 'y' is named twice"),
    ], ids=["args0-model.M", "args1-train.batch_size", "args2---seeds", "args3---s-values",
            "args4-task.feature_columns", "args5-optimizer.beta1", "args6-optimizer.beta1",
            "args7-omoe.bogus", "args8-nosection", "args9-train.loss", "args10-train.loss",
            "args11-task.pieces", "args12-task.d_raw", "args13-train.loss", "args14-model.init",
            "args15-model.d", "args16-model.h", "args17-model.c: must be", "args18-task.d_raw",
            "args19-omoe.alpha0", "args20-omoe.lambda", "args21-omoe.lambda", "args22-task.n",
            "args23-task.n_per_cluster", "args24-task.pieces", "args25-task.K",
            "args26-task.subspace_dim", "args27-train.eval_fraction", "args28-train.eval_fraction",
            "args29-task.noise_std", "args30-train.batch_size", "args31-train.batch_size",
            "args32-model.M", "args33-model.M", "args34-task.kind", "args35---m-values",
            "args36-lion", "args37---s-values", "args38-duplicate m_values",
            "args39-duplicate kinds", "args40-optimizer.lr: must be > 0",
            "args41-optimizer.lr: must be > 0", "args42-optimizer.lr: must be > 0",
            "args43-omoe.o_lr: must be > 0", "args44-omoe.o_lr: must be > 0",
            "args45-optimizer.weight_decay", "args46-optimizer.beta1: must lie in [0, 1)",
            "args47-optimizer.beta2: must lie in [0, 1)", "args48-optimizer.eps: must be > 0",
            "args49-optimizer.rho: must lie in [0, 1)", "args50-seeds: must be >= 0",
            "args51-seeds: must be >= 0", "args52-task.noise_std: must be >= 0 and",
            "args53-optimizer.lr: must be > 0 and", "args54-omoe.s: must be >= 2",
            "args55-omoe.s: must be >= 2", "args56-seeds: duplicate seeds rejected",
            "args57-task.kind", "args58-omoe.o_lr: expected a value like",
            "target_among_features"])
    def test_bad_config_value_exit_2(self, tiny_config_path, capsys, no_training_steps, args,
                                     field):
        assert main([*args, "--config", tiny_config_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert field in err["error"]["message"]

    # the diverging run takes log(0) in the loss before the report check stops it
    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
    def test_non_finite_report_exit_3(self, tmp_path, capsys):
        # a diverging O-step rate drives the report to inf/nan: no report is written
        out = tmp_path / "out"
        code = main(["train", "--override", "omoe.o_lr=10000", "--override", "train.epochs=2",
                     "--seeds", "0", "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert "JSON compliant" in err["error"]["message"]
        assert not (out / "run_report.json").exists()

    def test_csv_too_few_rows_exit_2(self, tmp_path, capsys):
        # a CSV task's rows are counted once the file is read, before the first step
        data = tmp_path / "small.csv"
        write_csv(gen_subspace_clusters(Rng(0), 3, 12, 3, 3), data)  # 9 rows, 8 to train
        cfg = json.loads(json.dumps(TINY))
        cfg["task"].update(kind="csv", path=str(data), target_column="target",
                           feature_columns=[f"f{i}" for i in range(12)])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ConfigError",
                                "message": "train.batch_size: 16 > 8 training rows"}

    def test_csv_more_classes_than_outputs_exit_2(self, tmp_path, capsys):
        # a CSV task's classes are counted once the file is read, before the first step
        data = tmp_path / "eight.csv"
        write_csv(gen_subspace_clusters(Rng(0), 8, 12, 5, 3), data)  # classes 0..7
        cfg = json.loads(json.dumps(TINY))
        cfg["task"].update(kind="csv", path=str(data), target_column="target",
                           feature_columns=[f"f{i}" for i in range(12)])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ConfigError",
                                "message": "model.c: 3 outputs, but the data has 8 classes"}

    def test_truncated_model_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        save_model(init_model(Rng(1), ModelDims(6, 4, 4, 3), 3), path)
        path.write_text(path.read_text()[:200])
        assert main(["metrics", "--model-a", str(path), "--model-b", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ContractViolation"
        assert "a.json" in err["error"]["message"]


class TestRegression:
    """The regression path is deleted: its task and real-valued CSV targets are
    refused with exit 2, before any training."""

    @staticmethod
    def refused(args, capsys) -> dict:
        assert main(args) == 2
        return json.loads(capsys.readouterr().err)["error"]

    def test_piecewise_mse(self, tiny_config_path, no_training_steps, capsys):
        # the deleted task's options, the first of them unknown
        error = self.refused(["train", "--config", tiny_config_path, *REGRESSION], capsys)
        assert error == {"type": "ConfigError", "message": "unknown config key: task.pieces"}

    def test_csv_real_targets(self, tiny_config_path, tmp_path, no_training_steps, capsys):
        # a real-valued target cell is not truncated to a class index
        path = tmp_path / "regression.csv"
        path.write_text("f0,f1,target\n0.5,1.5,2\n1.0,-0.5,0.75\n")
        error = self.refused(["train", "--config", tiny_config_path,
                              "--override", "task.kind=csv", "--override", f"task.path={path}",
                              "--override", 'task.feature_columns=["f0", "f1"]',
                              "--override", "task.d_raw=2",
                              "--override", "task.target_column=target"], capsys)
        assert error == {"type": "DataLoadError",
                         "message": "row 2, column 'target': unparsable cell '0.75'"}


class TestOtherSubcommands:
    def test_ablate_skip(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["ablate-skip", "--config", tiny_config_path,
                     "--s-values", "2,3", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "ablate_skip.json").read_text())
        assert [r["s"] for r in payload["table"]] == [2, 3]

    def test_ablate_experts(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["ablate-experts", "--config", tiny_config_path,
                     "--m-values", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "ablate_experts.json").read_text())
        assert payload["table"][0]["M"] == 2
        assert "improvement" in payload["table"][0]

    def test_compare_optimizers(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["compare-optimizers", "--config", tiny_config_path,
                     "--kinds", "sgd", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "compare_optimizers.json").read_text())
        assert payload["table"][0]["optimizer"] == "sgd"

    def test_overhead(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["overhead", "--config", tiny_config_path, "--out", str(out)]) == 0
        payload = json.loads((out / "overhead.json").read_text())
        assert payload["macs_total"] > 0

    def test_metrics(self, tmp_path):
        dims = ModelDims(6, 4, 4, 3)
        for tag, seed in (("a", 1), ("b", 2)):
            model = init_model(Rng(seed), dims, 3, "independent")
            save_model(model, tmp_path / f"{tag}.json")
        out = tmp_path / "out"
        code = main(["metrics", "--model-a", str(tmp_path / "a.json"),
                     "--model-b", str(tmp_path / "b.json"), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload["per_model"]) == {"model_a", "model_b"}
        assert 0.0 <= payload["diverse_degree_a_over_b"] <= 1.0

    def test_metrics_negative_probe_seed_exit_2(self, tmp_path, capsys):
        # checked before the checkpoints are read; numpy once failed on it with exit 3
        save_model(init_model(Rng(1), ModelDims(6, 4, 4, 3), 3), tmp_path / "a.json")
        assert main(["metrics", "--model-a", str(tmp_path / "a.json"),
                     "--model-b", str(tmp_path / "a.json"), "--probe-seed", "-1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ConfigError",
                                "message": "--probe-seed: must be >= 0, got -1"}

    @pytest.mark.parametrize("dims_b, M_b", [(ModelDims(9, 4, 4, 3), 3),
                                             (ModelDims(8, 4, 4, 3), 4)])
    def test_metrics_mismatched_architecture_exit_3(self, tmp_path, capsys, dims_b, M_b):
        # checked before either forward pass: a d_raw mismatch once failed inside numpy
        save_model(init_model(Rng(1), ModelDims(8, 4, 4, 3), 3), tmp_path / "a.json")
        save_model(init_model(Rng(2), dims_b, M_b), tmp_path / "b.json")
        assert main(["metrics", "--model-a", str(tmp_path / "a.json"),
                     "--model-b", str(tmp_path / "b.json")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ContractViolation",
                                "message": "models have mismatched architecture"}

    def test_metrics_non_finite_checkpoint_exit_3(self, tmp_path, capsys):
        # refused when the file loads, before either forward pass
        model = init_model(Rng(1), ModelDims(6, 4, 4, 3), 3)
        save_model(model, tmp_path / "a.json")
        model.params["head.W"][0, 0] = math.nan
        save_model(model, tmp_path / "b.json")
        assert main(["metrics", "--model-a", str(tmp_path / "a.json"),
                     "--model-b", str(tmp_path / "b.json")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ContractViolation", "message":
                                f"{tmp_path / 'b.json'}: params head.W contains "
                                "non-finite entries"}

    def test_metrics_one_expert_exit_3(self, tmp_path, capsys):
        # a one-expert checkpoint loads, but has no expert pair to compare
        save_model(init_model(Rng(1), ModelDims(6, 4, 4, 3), 1), tmp_path / "a.json")
        assert main(["metrics", "--model-a", str(tmp_path / "a.json"),
                     "--model-b", str(tmp_path / "a.json")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ContractViolation", "message":
                                "diverse_degree needs at least two experts, got M = 1"}
