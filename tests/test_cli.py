import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import open_rebalance
from open_rebalance import oracle
from open_rebalance.cli import main
from open_rebalance.data import read_dataset


def write_config(path, config):
    path.write_text(json.dumps(config, indent=2))
    return path


def synth_config(name="task", seed=7, aux_kind="shifted-mixture"):
    aux = {"kind": aux_kind, "size": 400}
    if aux_kind == "shifted-mixture":
        aux.update({"margin": 2.0, "clusters": 8})
    return {
        "command": "synth",
        "name": name,
        "seed": seed,
        "classes": 3,
        "dim": 2,
        "mean_radius": 2.0,
        "sigma": 1.0,
        "train": {"n_max": 60, "ratio": 10.0},
        "test": {"per_class": 30},
        "aux": aux,
    }


def train_config(name="run", seeds=(0,), method="open-sampling", eta=1.5, extra=None):
    section = {"method": method, "epochs": 3,
               "schedule": {"warmup_epochs": 1, "milestones": [], "decay_factor": 0.1}}
    if method in ("open-sampling", "balanced-softmax+open-sampling"):
        section["eta"] = eta
    if method == "oe":
        section["eta"] = eta
    if extra:
        section.update(extra)
    config = {
        "command": "train",
        "name": name,
        "data": {"train": "task_train.osds", "test": "task_test.osds"},
        "model": {"hidden_dim": 4},
        "train": section,
        "seeds": list(seeds),
    }
    if method in ("open-sampling", "oe", "balanced-softmax+open-sampling"):
        config["data"]["aux"] = "task_aux.osds"
    return config


@pytest.fixture
def workspace(tmp_path):
    cfg = write_config(tmp_path / "synth.json", synth_config())
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    return tmp_path


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestSynth:
    def test_writes_files_and_manifest(self, workspace):
        manifest = json.loads((workspace / "task_manifest.json").read_text())
        assert manifest["train_counts"] == [60, 19, 6]
        assert manifest["aux_kind"] == "shifted-mixture"
        ds = read_dataset(workspace / "task_train.osds")
        assert ds.class_counts().tolist() == [60, 19, 6]
        assert (workspace / "task_aux.osds").exists()

    def test_balanced_ratio_one(self, tmp_path):
        config = synth_config(name="flat")
        config["train"]["ratio"] = 1.0
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "flat_manifest.json").read_text())
        assert manifest["train_counts"] == [60, 60, 60]

    def test_bad_ratio_rejected(self, tmp_path, capsys):
        config = synth_config()
        config["train"]["ratio"] = 0.25
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "ratio" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = synth_config()
        config["ratio_typo"] = 5
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_rejected(self, tmp_path, capsys, constant):
        text = json.dumps(synth_config()).replace('"mean_radius": 2.0', f'"mean_radius": {constant}')
        cfg = tmp_path / "synth.json"
        cfg.write_text(text)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"non-finite number {constant}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.osds"))

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "synth.json", synth_config())
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_cifar_source(self, tmp_path):
        record = lambda label: bytes([label]) + bytes(3072)
        batch = b"".join(record(j) for j in range(10) for _ in range(5))
        (tmp_path / "batch.bin").write_bytes(batch)
        config = {
            "command": "synth",
            "name": "cifar",
            "seed": 0,
            "cifar": {"train_paths": ["batch.bin"], "ratio": 2.0},
        }
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "cifar_manifest.json").read_text())
        assert manifest["dim"] == 3072
        counts = manifest["train_counts"]
        assert counts[0] == 5 and counts[0] / counts[-1] == pytest.approx(2.0, abs=0.5)
        ds = read_dataset(tmp_path / "cifar_train.osds")
        assert ds.num_classes == 10


class TestTrain:
    def test_seed_suffixed_outputs(self, workspace):
        cfg = write_config(workspace / "train.json", train_config(seeds=(0, 1, 2, 3, 4)))
        assert main(["train", "--config", str(cfg), "--out", str(workspace)]) == 0
        for seed in range(5):
            assert (workspace / f"run_seed{seed}_result.json").exists()
            assert (workspace / f"run_seed{seed}_epochs.csv").exists()
            assert (workspace / f"run_seed{seed}.osnn").exists()

    def test_result_payload(self, workspace):
        cfg = write_config(workspace / "train.json", train_config())
        main(["train", "--config", str(cfg), "--out", str(workspace)])
        result = json.loads((workspace / "run_seed0_result.json").read_text())
        assert result["seed"] == 0
        assert len(result["history"]) == 3
        assert result["config_hash"]
        assert 0.0 <= result["final"]["overall_acc"] <= 1.0
        assert len(result["final"]["per_class_acc"]) == 3

    def test_eta_zero_matches_standard_csv(self, workspace):
        # Identical per-epoch CSVs under a shared seed, hash column aside.
        cfg_a = write_config(workspace / "a.json", train_config(name="zeroeta", eta=0.0))
        cfg_b = write_config(workspace / "b.json", train_config(name="plain", method="standard"))
        main(["train", "--config", str(cfg_a), "--out", str(workspace)])
        main(["train", "--config", str(cfg_b), "--out", str(workspace)])
        rows_a = read_rows(workspace / "zeroeta_seed0_epochs.csv")
        rows_b = read_rows(workspace / "plain_seed0_epochs.csv")
        drop = rows_a[0].index("config_hash")
        aux_col = rows_a[0].index("aux_loss")
        total_col = rows_a[0].index("total_loss")
        base_col = rows_a[0].index("base_loss")
        keep = [
            i for i in range(len(rows_a[0]))
            if i not in (drop, aux_col, total_col)
        ]
        for ra, rb in zip(rows_a, rows_b):
            assert [ra[i] for i in keep] == [rb[i] for i in keep]
            if ra[0] != "epoch":
                assert ra[base_col] == rb[base_col] == rb[total_col]

    @pytest.mark.parametrize("method", ["open-sampling", "standard"])
    def test_seed_outputs_same_alone_or_batched(self, workspace, method):
        alone = workspace / "alone"
        batched = workspace / "batched"
        for out, seeds in ((alone, (4,)), (batched, (3, 4, 5))):
            cfg = write_config(workspace / "train.json", train_config(seeds=seeds, method=method))
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (alone / "run_seed4.osnn").read_bytes() == (batched / "run_seed4.osnn").read_bytes()
        rows = [read_rows(out / "run_seed4_epochs.csv") for out in (alone, batched)]
        assert [r[:-1] for r in rows[0]] == [r[:-1] for r in rows[1]]

    def test_missing_aux_rejected(self, workspace, capsys):
        config = train_config()
        del config["data"]["aux"]
        cfg = write_config(workspace / "train.json", config)
        assert main(["train", "--config", str(cfg), "--out", str(workspace)]) == 1
        assert "auxiliary" in capsys.readouterr().err

    def test_missing_file_rejected(self, workspace, capsys):
        config = train_config()
        config["data"]["train"] = "nope.osds"
        cfg = write_config(workspace / "train.json", config)
        assert main(["train", "--config", str(cfg), "--out", str(workspace)]) == 1


class TestSweep:
    def test_rows_and_summary(self, workspace):
        config = {
            "command": "sweep",
            "name": "etas",
            "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
            "model": {"hidden_dim": 4},
            "train": {"method": "open-sampling", "epochs": 2},
            "grid": {"param": "eta", "values": [0.0, 0.5, 1.0, 1.5]},
            "seeds": [0, 1],
        }
        cfg = write_config(workspace / "sweep.json", config)
        assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 0
        rows = read_rows(workspace / "etas_sweep.csv")
        body = rows[1:]
        detail = [r for r in body if r[2] != ""]
        summary = [r for r in body if r[2] == ""]
        assert len(detail) == 4 * 2
        assert len(summary) == 4
        for srow in summary:
            value = srow[1]
            accs = [float(r[3]) for r in detail if r[1] == value]
            assert float(srow[5]) == pytest.approx(np.mean(accs), abs=1e-12)
            assert float(srow[6]) == pytest.approx(np.std(accs), abs=1e-12)

    def test_alpha_grid_with_labels(self, workspace):
        config = {
            "command": "sweep",
            "name": "alphas",
            "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
            "model": {"hidden_dim": 4},
            "train": {"method": "open-sampling", "epochs": 2},
            "grid": {"param": "alpha", "values": ["mcd", "M", 2.0, 10.0]},
            "seeds": [0],
        }
        cfg = write_config(workspace / "sweep.json", config)
        assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 0
        rows = read_rows(workspace / "alphas_sweep.csv")
        assert {r[1] for r in rows[1:]} == {"mcd", "M", "2.0", "10.0"}

    def test_empty_grid_rejected(self, workspace, capsys):
        config = {
            "command": "sweep",
            "name": "empty",
            "data": {"train": "task_train.osds", "test": "task_test.osds"},
            "train": {"method": "standard", "epochs": 1},
            "grid": {"param": "eta", "values": []},
            "seeds": [0],
        }
        cfg = write_config(workspace / "sweep.json", config)
        assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_partial_failure_enumerated(self, workspace, capsys):
        config = {
            "command": "sweep",
            "name": "partial",
            "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
            "model": {"hidden_dim": 4},
            "train": {"method": "open-sampling", "epochs": 1},
            "grid": {"param": "aux_size", "values": [10, 999999]},
            "seeds": [0],
        }
        cfg = write_config(workspace / "sweep.json", config)
        assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 1
        err = capsys.readouterr().err
        assert "failed" in err and "999999" in err
        rows = read_rows(workspace / "partial_sweep.csv")
        assert any(r[1] == "10" for r in rows[1:])


    def test_divergence_names_run_epoch_and_step(self, workspace, capsys):
        config = {
            "command": "sweep",
            "name": "diverge",
            "data": {"train": "task_train.osds", "test": "task_test.osds"},
            "model": {"hidden_dim": 4},
            "train": {"method": "standard", "epochs": 20, "base_lr": 1e8},
            "grid": {"param": "method", "values": ["standard"]},
            "seeds": [0],
        }
        cfg = write_config(workspace / "sweep.json", config)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 1
        err = capsys.readouterr().err
        assert re.search(
            r"failed: diverge\[method=standard,seed=0\]: non-finite logits "
            r"at epoch \d+, step \d+ \(last finite loss [-+.e\d]+\)",
            err,
        ), err


    def test_divergent_point_fails_alone(self, tmp_path, capsys):
        # The README task (K=5, d=16, 729 samples): eta = 1e12 overflows the
        # loss several steps before the logits, so the last finite loss must
        # be an earlier step's, and the stable point must not notice.
        synth = synth_config(name="lt5", seed=1)
        synth.update({"classes": 5, "dim": 16, "mean_radius": 1.8,
                      "train": {"n_max": 500, "ratio": 100.0}, "test": {"per_class": 100},
                      "aux": {"kind": "shifted-mixture", "size": 5000, "margin": 2.0,
                              "clusters": 256}})
        cfg = write_config(tmp_path / "synth.json", synth)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0

        def sweep(name, values):
            config = {
                "command": "sweep",
                "name": name,
                "data": {"train": "lt5_train.osds", "test": "lt5_test.osds", "aux": "lt5_aux.osds"},
                "model": {"hidden_dim": 8},
                "train": {"method": "open-sampling", "epochs": 10, "base_lr": 0.01},
                "grid": {"param": "eta", "values": values},
                "seeds": [0],
            }
            path = write_config(tmp_path / f"{name}.json", config)
            with np.errstate(over="ignore", invalid="ignore"):
                code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
            return code, capsys.readouterr().err, read_rows(tmp_path / f"{name}_sweep.csv")

        code, err, mixed = sweep("mixed", [0.5, 1e12])
        assert code == 1
        found = re.search(
            r"failed: mixed\[eta=1000000000000.0,seed=0\]: non-finite logits at epoch \d+, "
            r"step \d+ \(last finite loss (\S+)\)\n",
            err,
        )
        assert found, err
        assert math.isfinite(float(found.group(1)))
        code, _, alone = sweep("alone", [0.5])
        assert code == 0
        # Every field but the config hash, which covers the grid values.
        assert [r[:-1] for r in mixed] == [r[:-1] for r in alone]
        assert len(alone) == 3 and alone[1][:3] == ["eta", "0.5", "0"]

_GAUSS = {"name": "g", "kind": "gaussian", "size": 10, "seed": 1}


class TestEvalOod:
    @pytest.fixture
    def trained(self, workspace):
        cfg = write_config(workspace / "train.json", train_config())
        main(["train", "--config", str(cfg), "--out", str(workspace)])
        return workspace

    def test_rows_plus_average(self, trained):
        config = {
            "command": "eval-ood",
            "name": "oodrep",
            "checkpoint": "run_seed0.osnn",
            "test": "task_test.osds",
            "pools": [
                {"name": "gaussian", "kind": "gaussian", "size": 200, "seed": 5, "sigma": 4.0},
                {"name": "rademacher", "kind": "rademacher", "size": 200, "seed": 6},
                {"name": "blobs", "kind": "blobs", "size": 200, "seed": 7},
            ],
        }
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained)]) == 0
        rows = read_rows(trained / "oodrep_ood.csv")
        assert len(rows) == 1 + 3 + 1
        assert rows[-1][0] == "average"
        for col in (1, 2, 3):
            vals = [float(r[col]) for r in rows[1:4]]
            assert float(rows[4][col]) == pytest.approx(np.mean(vals), abs=1e-12)

    def test_file_pool(self, trained):
        config = {
            "command": "eval-ood",
            "name": "filepool",
            "checkpoint": "run_seed0.osnn",
            "test": "task_test.osds",
            "pools": [{"name": "reuse", "kind": "file", "path": "task_aux.osds"}],
        }
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained)]) == 0
        rows = read_rows(trained / "filepool_ood.csv")
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"pools": [_GAUSS, {"name": "f", "kind": "file"}]},
             r"pools\[1\]: file pools need a path"),
            ({"pools": [_GAUSS, {**_GAUSS, "sigmaa": 2.0}]}, r"pools\[1\]: unknown keys"),
            ({"pools": [_GAUSS, {"name": "b", "kind": "blobs", "size": 10}]},
             r"pools\[1\]: generated pools need size and seed"),
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "shifted-mixture"}]},
             r"pools\[1\]: shifted-mixture pools need synthetic class means"),
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "perlin"}]}, r"pools\[1\]: unknown pool kind"),
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "blobs", "window": 0}]},
             r"pools\[1\]: window must be at least 1, got 0"),
            # The config loader rejects the NaN constant before any spec check.
            ({"pools": [_GAUSS, {**_GAUSS, "sigma": math.nan}]},
             r"ood\.json: non-finite number NaN is not allowed"),
            ({"aupr_positive": "ood"}, "aupr_positive must be 'in' or 'out'"),
        ],
        ids=["file-without-path", "key-typo", "no-seed", "shifted-mixture", "unknown-kind",
             "zero-window", "nan-sigma", "aupr-positive"],
    )
    def test_bad_spec_fails_before_any_file_is_read(self, tmp_path, capsys, change, message):
        # Neither the checkpoint nor the test set exists, so the spec error
        # can only come first if every spec is checked before any loading.
        config = {
            "command": "eval-ood",
            "name": "bad",
            "checkpoint": "missing.osnn",
            "test": "missing.osds",
            "pools": [_GAUSS],
            **change,
        }
        cfg = write_config(tmp_path / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert not (tmp_path / "bad_ood.csv").exists()


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # scipy.ndimage is most of the package's import time; only blobs pools
    # need it, so it is imported on first use.
    code = "import sys, open_rebalance.cli; print('scipy.ndimage' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(open_rebalance.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestBayesCheck:
    def test_report(self, tmp_path):
        config = {
            "command": "bayes-check",
            "name": "oracle",
            "seed": 1,
            "cases": 100,
            "one_hot_stress": {"cases": 10},
            "rebalance": {
                "counts": [60, 19, 6],
                "alphas": [0.8, 2.0],
                "aux_sizes": [0, 100],
            },
        }
        cfg = write_config(tmp_path / "bayes.json", config)
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_bayes.json").read_text())
        assert report["uniform"] == {"cases": 100, "violations": 0, "violating_cases": []}
        assert report["one_hot_stress"]["constructed_flips"] > 0
        assert len(report["rebalance"]["rows"]) == 4

    def test_infinite_ratio_written_as_strict_json(self, tmp_path):
        # A zero class count with aux size 0 makes the prior ratio infinite.
        config = {
            "command": "bayes-check",
            "name": "strict",
            "seed": 1,
            "cases": 0,
            "rebalance": {"counts": [5, 0, 3], "alphas": [1.0], "aux_sizes": [0, 10]},
        }
        cfg = write_config(tmp_path / "bayes.json", config)
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "strict_bayes.json").read_text(encoding="utf-8")
        rows = json.loads(text, parse_constant=reject)["rebalance"]["rows"]
        assert [r["aux_size"] for r in rows] == [0, 10]
        assert rows[0]["prior_ratio"] is None
        assert rows[1]["prior_ratio"] > 1.0

    def test_report_equals_per_case_calls(self, tmp_path):
        # Cases cross two block boundaries; the reference draws the same
        # stream and checks every case with the one-case public calls.
        config = {
            "command": "bayes-check", "name": "oracle", "seed": 3, "cases": 2 * oracle.BLOCK + 17,
            "max_support": 12, "max_classes": 9,
            "one_hot_stress": {"cases": oracle.BLOCK + 3, "m_scale": 30.0},
        }
        cfg = write_config(tmp_path / "bayes.json", config)
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_bayes.json").read_text())

        rng = np.random.default_rng([3, 0xBA4E5])
        violating = []
        for i in range(config["cases"]):
            ok, bad = oracle.bayes_invariance_check(*oracle.random_case(rng, 12, 9, bool(i % 2)))
            if not ok:
                violating.append({"case": i, "instances": bad})
        assert report["uniform"] == {
            "cases": config["cases"], "violations": len(violating), "violating_cases": violating,
        }
        counts = []
        for _ in range(oracle.BLOCK + 3):
            source, px, n, m = oracle.random_case(rng, 12, 9)
            py = np.zeros(source.num_classes)
            py[int(np.argmin(source.label_marginal()))] = 1.0
            counts.append(oracle.toxicity_count(source, oracle.OodMarginal(px=px, py=py), n, 30.0 * m)[0])
        stress = report["one_hot_stress"]
        assert stress["random_cases"] == len(counts)
        assert stress["random_cases_with_flips"] == sum(c > 0 for c in counts) > 0
        assert stress["total_flips"] == sum(counts)
        source = oracle.DiscreteJoint(table=np.array([[0.45, 0.05], [0.05, 0.45]]))
        ood = oracle.OodMarginal(px=np.array([0.5, 0.5]), py=np.array([0.0, 1.0]))
        flips, mass = oracle.toxicity_count(source, ood, 1.0, 10.0)
        instances = oracle.flipped_instances(source, oracle.mix(source, ood, 1.0, 10.0)).tolist()
        assert (stress["constructed_flips"], stress["constructed_mass"]) == (flips, mass)
        assert stress["constructed_instances"] == instances

    def test_zero_cases_empty_report(self, tmp_path):
        config = {"command": "bayes-check", "name": "empty", "seed": 0, "cases": 0}
        cfg = write_config(tmp_path / "bayes.json", config)
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "empty_bayes.json").read_text())
        assert report["uniform"]["cases"] == 0
        assert report["uniform"]["violations"] == 0


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path / "synth.json", synth_config())
        for out in (out_a, out_b):
            assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
            tcfg = write_config(out / "train.json", train_config(seeds=(0, 1)))
            assert main(["train", "--config", str(tcfg), "--out", str(out)]) == 0
        for name in sorted(p.name for p in out_a.iterdir()):
            fa = out_a / name
            fb = out_b / name
            if fb.exists() and fa.suffix in (".json", ".csv", ".osds", ".osnn"):
                assert fa.read_bytes() == fb.read_bytes(), name
