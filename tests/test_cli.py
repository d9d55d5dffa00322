import csv
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import open_rebalance
from open_rebalance import cli, data, metrics, nn, oracle, train
from open_rebalance.cli import main
from open_rebalance.data import read_dataset
from open_rebalance.priors import LabelDistributionKind


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

    @pytest.mark.parametrize(
        "change,key,shown",
        [({"size": 400.5}, "size", "400.5"),
         ({"clusters": 8.5}, "clusters", "8.5"),
         ({"seed": False}, "seed", "false")],
        ids=["float-size", "float-clusters", "bool-seed"],
    )
    def test_pool_integers_not_coerced(self, tmp_path, capsys, change, key, shown):
        # Checked before the train and test sets are written.
        config = synth_config()
        config["aux"].update(change)
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"synth.aux.{key} must be a non-negative integer, got {shown}" in err, err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "path,value,message",
        [(("seed",), 7.9, "seed must be a non-negative integer, got 7.9"),
         (("seed",), True, "seed must be a non-negative integer, got true"),
         (("classes",), 3.0, "classes must be a non-negative integer, got 3.0"),
         (("classes",), 1, "classes must be at least 2, got 1"),
         (("dim",), "2", 'dim must be a non-negative integer, got "2"'),
         (("train", "n_max"), 20.7, "train.n_max must be a non-negative integer, got 20.7"),
         (("test", "per_class"), False, "test.per_class must be a non-negative integer, got false")],
        ids=["seed-float", "seed-bool", "classes-float", "classes-one", "dim-string", "n_max-float",
             "per_class-bool"],
    )
    def test_integers_not_coerced(self, tmp_path, capsys, path, value, message):
        config = synth_config()
        *parents, key = path
        section = config
        for parent in parents:
            section = section[parent]
        section[key] = value
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: synth.{message}\n" in err, err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "path,value,shown",
        [(("mean_radius",), True, "true"),
         (("sigma",), True, "true"),
         (("sigma",), "1.0", '"1.0"'),
         (("train", "ratio"), True, "true"),
         (("train", "ratio"), [10.0], "[10.0]")],
        ids=["mean_radius-bool", "sigma-bool", "sigma-string", "ratio-bool", "ratio-list"],
    )
    def test_floats_not_coerced(self, tmp_path, capsys, path, value, shown):
        config = synth_config()
        *parents, key = path
        section = config
        for parent in parents:
            section = section[parent]
        section[key] = value
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: synth.{'.'.join(path)} must be a finite number, got {shown}\n" in err, err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_cifar_ratio_checked_before_any_file_is_read(self, tmp_path, capsys):
        config = {"command": "synth", "name": "c", "seed": 1,
                  "cifar": {"train_paths": ["missing.bin"], "ratio": True}}
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: synth.cifar.ratio must be a finite number, got true\n" in err, err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_cifar_n_max_checked_before_any_file_is_read(self, tmp_path, capsys):
        config = {"command": "synth", "name": "c", "seed": 1,
                  "cifar": {"train_paths": ["missing.bin"], "n_max": 5.5}}
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: synth.cifar.n_max must be a non-negative integer, got 5.5\n" in err, err
        assert list(tmp_path.iterdir()) == [cfg]

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

    def test_cifar_sets_released_before_the_pool_is_built(self, tmp_path, monkeypatch):
        # The source, the long-tailed subsample and the test set are each
        # written and dropped before the pool is built: no full-size set is
        # alive beside it.
        rng = np.random.default_rng(5)
        for name in ("train.bin", "test.bin"):
            records = rng.integers(0, 256, size=(60, 3073), dtype=np.uint8)
            records[:, 0] = np.arange(60) % 10
            records.tofile(tmp_path / name)
        config = {"command": "synth", "name": "c", "seed": 2,
                  "cifar": {"train_paths": ["train.bin"], "test_paths": ["test.bin"], "ratio": 3.0},
                  "aux": {"kind": "gaussian", "size": 50}}
        sets = []

        def track(fn):
            def tracked(*args, **kwargs):
                ds = fn(*args, **kwargs)
                sets.append((fn.__name__, weakref.ref(ds), weakref.ref(ds.features)))
                return ds
            return tracked

        alive = []

        def build_pool(*args):
            alive.extend(name for name, *refs in sets if any(ref() is not None for ref in refs))
            return build(*args)

        build = cli._build_pool
        monkeypatch.setattr(data, "read_cifar10_binary", track(data.read_cifar10_binary))
        monkeypatch.setattr(data, "subsample_longtail", track(data.subsample_longtail))
        monkeypatch.setattr(cli, "_build_pool", build_pool)
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert [name for name, *_ in sets] == [
            "read_cifar10_binary", "subsample_longtail", "read_cifar10_binary"]
        assert alive == []
        assert (tmp_path / "c_aux.osds").exists()

    @pytest.mark.parametrize(
        "test_rows,pool_rows,reused",
        [(40, 60, (True, True)), (80, 30, (False, False)), (40, 90, (True, False))],
        ids=["both-fit", "test-larger", "pool-larger"],
    )
    def test_cifar_test_set_and_pool_reuse_the_source_memory(self, tmp_path, monkeypatch,
                                                            test_rows, pool_rows, reused):
        # The 60-record source's mapping takes the test set and then the pool
        # when each fits; one that does not is built in a fresh mapping, with
        # the source's memory released first. The files have the bytes of
        # fresh builds either way.
        rng = np.random.default_rng(8)
        for name, n in (("train.bin", 60), ("test.bin", test_rows)):
            records = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
            records[:, 0] = np.arange(n) % 10
            records.tofile(tmp_path / name)
        config = {"command": "synth", "name": "c", "seed": 2,
                  "cifar": {"train_paths": ["train.bin"], "test_paths": ["test.bin"], "ratio": 3.0},
                  "aux": {"kind": "blobs", "size": pool_rows, "seed": 4}}
        source, alive = [], []

        def read_cifar(paths, **kwargs):
            if source:
                alive.append(source[0]() is not None)
            ds = read(paths, **kwargs)
            if not source:
                base = ds.features
                while isinstance(base, np.ndarray):
                    base = base.base
                source.append(weakref.ref(base))
            return ds

        def build_pool(*args):
            alive.append(source[0]() is not None)
            return build(*args)

        read, build = data.read_cifar10_binary, cli._build_pool
        monkeypatch.setattr(data, "read_cifar10_binary", read_cifar)
        monkeypatch.setattr(cli, "_build_pool", build_pool)
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert tuple(alive) == reused
        data.write_dataset(read([tmp_path / "test.bin"]), tmp_path / "want_test.osds")
        data.write_pool(data.gen_ood_pool("blobs", pool_rows, 3072, seed=4), tmp_path / "want_aux.osds")
        for part in ("test", "aux"):
            assert (tmp_path / f"c_{part}.osds").read_bytes() == (
                tmp_path / f"want_{part}.osds").read_bytes()


    @pytest.mark.parametrize(
        "cifar,shape,size,message",
        [(False, (50, 5), 50, "aux: dimension 5 != data 2"),
         (True, (50, 5), 50, "aux: dimension 5 != data 3072"),
         (False, (50, 2), 1, "aux: size 1 != 50 rows in the file")],
        ids=["gaussian-dim", "cifar-dim", "size"],
    )
    def test_file_pool_checked_before_any_set_is_read(self, tmp_path, capsys, cifar, shape, size,
                                                     message):
        # The CIFAR source is missing: the pool's header is refused first.
        data.write_pool(data.AuxiliaryPool(np.ones(shape), "file"), tmp_path / "pool.osds")
        config = synth_config()
        if cifar:
            config = {"command": "synth", "name": "task", "seed": 1,
                      "cifar": {"train_paths": ["missing.bin"]}}
        config["aux"] = {"kind": "file", "size": size, "path": "pool.osds"}
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err, err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "pool.osds", cfg]

    def test_cifar_file_pool_copied(self, tmp_path):
        rng = np.random.default_rng(3)
        records = rng.integers(0, 256, size=(60, 3073), dtype=np.uint8)
        records[:, 0] = np.arange(60) % 10
        records.tofile(tmp_path / "train.bin")
        data.write_pool(data.AuxiliaryPool(rng.standard_normal((20, 3072)), "file"), tmp_path / "pool.osds")
        config = {"command": "synth", "name": "c", "seed": 2,
                  "cifar": {"train_paths": ["train.bin"], "ratio": 3.0},
                  "aux": {"kind": "file", "size": 20, "path": "pool.osds"}}
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "c_aux.osds").read_bytes() == (tmp_path / "pool.osds").read_bytes()
        assert json.loads((tmp_path / "c_manifest.json").read_text())["aux_size"] == 20


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

    @pytest.mark.parametrize("epochs", [3, 0])
    def test_outputs_from_one_source(self, workspace, epochs):
        # The JSON history and final, the epochs CSV and a one-value sweep's
        # accuracy cells all read the same epoch records.
        config = train_config(seeds=(0, 1), extra={"epochs": epochs})
        cfg = write_config(workspace / "train.json", config)
        assert main(["train", "--config", str(cfg), "--out", str(workspace)]) == 0
        config.update(command="sweep", name="one", grid={"param": "eta", "values": [1.5]})
        cfg = write_config(workspace / "sweep.json", config)
        assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 0
        swept = {int(row[2]): row[3] for row in read_rows(workspace / "one_sweep.csv")[1:] if row[2]}
        counts = read_dataset(workspace / "task_train.osds").class_counts()
        for seed in (0, 1):
            result = json.loads((workspace / f"run_seed{seed}_result.json").read_text())
            header, *body = read_rows(workspace / f"run_seed{seed}_epochs.csv")
            assert header[6:] == ["acc_class_0", "acc_class_1", "acc_class_2", "config_hash"]
            assert len(body) == len(result["history"]) == epochs
            for entry, row in zip(result["history"], body):
                assert sorted(entry) == sorted(header[:6])
                assert [entry[field] for field in header[:6]] == [float(v) for v in row[:6]]
            final = result["final"]
            assert (float(swept[seed]) if swept[seed] else None) == final["overall_acc"]
            if not epochs:
                assert final == {"overall_acc": None, "per_class_acc": None, "group_acc": None}
                init = nn.init_params(2, 4, 3, np.random.default_rng([seed, train._STREAM_INIT]))
                saved = nn.load_params(workspace / f"run_seed{seed}.osnn")
                for (w, b), (w0, b0) in zip(saved.layers, init.layers, strict=True):
                    assert w.tobytes() == w0.tobytes() and b.tobytes() == b0.tobytes()
                continue
            per_class = [float(v) if v else None for v in body[-1][6:9]]
            assert final["overall_acc"] == float(body[-1][5])
            assert final["per_class_acc"] == per_class
            assert final["group_acc"] == metrics.group_accuracy(
                [math.nan if a is None else a for a in per_class], counts, metrics.GROUP_THRESHOLDS)

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

    def test_alpha_grid_matches_label_dist_grid(self, workspace):
        # An alpha value sets train.label_dist: a number x is the complementary
        # distribution at x, "M" the complementary one at its default alpha.
        grids = {"alpha": ["mcd", "M", 2.0],
                 "label_dist": ["mcd", "complementary", {"tag": "complementary", "alpha": 2.0}]}
        accs = {}
        for param, values in grids.items():
            config = {
                "command": "sweep",
                "name": param,
                "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
                "model": {"hidden_dim": 4},
                "train": {"method": "open-sampling", "epochs": 3},
                "grid": {"param": param, "values": values},
                "seeds": [0, 1],
            }
            cfg = write_config(workspace / f"{param}.json", config)
            assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 0
            rows = read_rows(workspace / f"{param}_sweep.csv")
            assert rows[0][2:5] == ["seed", "overall_acc", "few_acc"]
            accs[param] = [row[2:5] for row in rows[1:] if row[2] != ""]
        assert len({tuple(row[1:]) for row in accs["alpha"]}) == 3 * 2  # six different runs
        assert accs["alpha"] == accs["label_dist"]

    def test_zero_epochs_write_empty_accuracy_cells(self, workspace, capsys):
        config = {
            "command": "sweep",
            "name": "zero",
            "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
            "model": {"hidden_dim": 4},
            "train": {"method": "open-sampling", "epochs": 0},
            "grid": {"param": "eta", "values": [0.5, 1.5]},
            "seeds": [0, 1],
        }
        cfg = write_config(workspace / "sweep.json", config)
        assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 0
        err = capsys.readouterr().err
        assert re.findall(r"^(.*): done in ", err, re.M) == [
            f"zero[eta={v},seed={s}]" for v in (0.5, 1.5) for s in (0, 1)]
        chash = cli._config_hash(config)
        # No run has an accuracy, so no value gets a summary row.
        assert read_rows(workspace / "zero_sweep.csv")[1:] == [
            ["eta", v, s, "", "", "", "", chash] for v in ("0.5", "1.5") for s in ("0", "1")]

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
        # eta = 1e100 overflows the logits within the first epoch on its own.
        config = {
            "command": "sweep",
            "name": "partial",
            "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
            "model": {"hidden_dim": 4},
            "train": {"method": "open-sampling", "epochs": 1},
            "grid": {"param": "eta", "values": [1.5, 1e100]},
            "seeds": [0],
        }
        cfg = write_config(workspace / "sweep.json", config)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 1
        err = capsys.readouterr().err
        assert "failed: partial[eta=1e+100,seed=0]" in err
        rows = read_rows(workspace / "partial_sweep.csv")
        assert [r[1] for r in rows[1:]] == ["1.5", "1.5"]


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


class TestSeeds:
    # The data files do not exist, so the seed error can only come first if
    # the seeds are checked before any loading.
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "seeds,shown", [([1.5], "1.5"), ([True], "true"), ([0, -1], "-1")],
        ids=["float", "bool", "negative"],
    )
    def test_bad_seed_fails_before_any_file_is_read(self, tmp_path, capsys, command, seeds, shown):
        config = train_config(seeds=seeds)
        config["data"] = {"train": "missing_train.osds", "test": "missing_test.osds"}
        if command == "sweep":
            config.update(command="sweep", grid={"param": "eta", "values": [0.5]})
        cfg = write_config(tmp_path / "bad.json", config)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        index = len(seeds) - 1
        assert f"{command}.seeds[{index}] must be a non-negative integer, got {shown}" in err, err
        assert list(tmp_path.iterdir()) == [cfg]


def _missing_data_config(command, method="open-sampling"):
    """A train or sweep config whose data files do not exist."""
    config = train_config(method=method)
    config["data"] = {"train": "missing_train.osds", "test": "missing_test.osds", "aux": "missing_aux.osds"}
    if command == "sweep":
        config.update(command="sweep", grid={"param": "eta", "values": [0.5]})
    return config


def _fails_before_any_file_is_read(tmp_path, capsys, command, config, text=None):
    """Run the config; it must exit 1 with nothing but the config in tmp_path. Returns stderr."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config) if text is None else text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == [cfg]
    return capsys.readouterr().err


class TestTrainSectionIntegers:
    # The data files do not exist, so the error can only come first if the
    # integers are checked before any loading.
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "path,value,message",
        [(("train", "epochs"), 2.0, "train.epochs must be a non-negative integer, got 2.0"),
         (("train", "epochs"), True, "train.epochs must be a non-negative integer, got true"),
         (("train", "batch_train"), 32.0, "train.batch_train must be a non-negative integer, got 32.0"),
         (("train", "batch_train"), 0, "train.batch_train must be at least 1, got 0"),
         (("train", "batch_aux"), 16.0, "train.batch_aux must be a non-negative integer, got 16.0"),
         (("model", "hidden_dim"), 8.7, "model.hidden_dim must be a non-negative integer, got 8.7"),
         (("model", "hidden_dim"), -1, "model.hidden_dim must be a non-negative integer, got -1"),
         (("train", "schedule", "warmup_epochs"), 1.0,
          "train.schedule.warmup_epochs must be a non-negative integer, got 1.0"),
         (("train", "schedule", "milestones"), [1, 2.5],
          "train.schedule.milestones[1] must be a non-negative integer, got 2.5"),
         (("train", "schedule", "milestones"), 2, "train.schedule.milestones must be a list, got 2")],
        ids=["epochs-float", "epochs-bool", "batch_train-float", "batch_train-zero", "batch_aux-float",
             "hidden_dim-float", "hidden_dim-negative", "warmup-float", "milestone-float", "milestones-scalar"],
    )
    def test_bad_integer_fails_before_any_file_is_read(self, tmp_path, capsys, command, path, value, message):
        config = _missing_data_config(command)
        *parents, key = path
        section = config
        for parent in parents:
            section = section[parent]
        section[key] = value
        err = _fails_before_any_file_is_read(tmp_path, capsys, command, config)
        assert f"error: {command}.{message}\n" in err, err


class TestTrainSectionFloats:
    # As for the integers: the data files do not exist.
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "path,value,shown",
        [(("eta",), True, "true"),
         (("eta",), "1.5", '"1.5"'),
         (("base_lr",), False, "false"),
         (("momentum",), "0.9", '"0.9"'),
         (("weight_decay",), True, "true"),
         (("weight_decay",), 1e999, "Infinity"),
         (("beta_cb",), [0.99], "[0.99]"),
         (("schedule", "decay_factor"), "0.1", '"0.1"'),
         (("schedule", "decay_factor"), None, "null")],
        ids=["eta-bool", "eta-string", "base_lr-bool", "momentum-string", "weight_decay-bool",
             "weight_decay-overflow", "beta_cb-list", "decay_factor-string", "decay_factor-null"],
    )
    def test_bad_float_fails_before_any_file_is_read(self, tmp_path, capsys, command, path, value, shown):
        config = _missing_data_config(command)
        *parents, key = path
        section = config["train"]
        for parent in parents:
            section = section[parent]
        section[key] = value
        # A literal that overflows to inf only shows up once parsed.
        text = json.dumps(config).replace("Infinity", "1e999")
        err = _fails_before_any_file_is_read(tmp_path, capsys, command, config, text)
        dotted = ".".join(path)
        assert f"error: {command}.train.{dotted} must be a finite number, got {shown}\n" in err, err


class TestTrainSectionRanges:
    # Values TrainConfig refuses are one config error before any file is
    # read, not one failed run per seed after the data is loaded.
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "change,message",
        [({"momentum": 1.5}, "train.momentum must lie in [0, 1)"),
         ({"eta": -1.0}, "train.eta must be non-negative"),
         ({"base_lr": -0.1}, "train.base_lr must be non-negative"),
         ({"weight_decay": -1e-4}, "train.weight_decay must be non-negative"),
         ({"beta_cb": 1.0}, "train.beta_cb must lie in [0, 1)"),
         ({"method": "mixup"}, "train.method 'mixup' is not one of"),
         ({"label_dist": {"tag": "zipf"}}, "train.label_dist: unknown label distribution tag 'zipf'"),
         ({"label_dist": {"tag": "mcd", "alpha": 2.0}},
          "train.label_dist: alpha only applies to the complementary tag"),
         ({"schedule": {"milestones": [3, 2]}}, "train.schedule: milestones must be strictly increasing"),
         ({"method": "standard", "fixed_labels": True},
          "train.fixed_labels has no effect for method 'standard'")],
        ids=["momentum", "eta", "base_lr", "weight_decay", "beta_cb", "method", "label_dist-tag",
             "label_dist-alpha", "milestones", "fixed_labels"],
    )
    def test_refused_value_fails_before_any_file_is_read(self, tmp_path, capsys, command, change, message):
        config = _missing_data_config(command)
        config["seeds"] = [0, 1]
        config["train"].update(change)
        if command == "sweep":
            config["grid"] = {"param": "aux_size", "values": [10, 20]}  # overrides no train key
        err = _fails_before_any_file_is_read(tmp_path, capsys, command, config)
        assert f"error: {command}.{message}" in err, err
        assert err.count("error:") == 1 and "failed:" not in err, err

    @pytest.mark.parametrize(
        "param,values,message",
        [("eta", [0.5, -1.0], "sweep.train.eta must be non-negative, at grid.values[1]"),
         ("method", ["standard", "mixup"], "sweep.train.method 'mixup' is not one of"),
         ("label_dist", ["complementary", "zipf"],
          "sweep.train.label_dist: unknown label distribution tag 'zipf', at grid.values[1]")],
        ids=["eta", "method", "label_dist"],
    )
    def test_refused_grid_value_fails_before_any_file_is_read(self, tmp_path, capsys, param, values,
                                                              message):
        config = _missing_data_config("sweep")
        config["grid"] = {"param": param, "values": values}
        err = _fails_before_any_file_is_read(tmp_path, capsys, "sweep", config)
        assert f"error: {message}" in err, err


class TestSweepGridValues:
    @pytest.mark.parametrize(
        "param,values,message",
        [("aux_size", [200.7, 200], "values[0] must be a non-negative integer, got 200.7"),
         ("aux_size", [10, True], "values[1] must be a non-negative integer, got true"),
         ("aux_size", [10, 0], "values[1] must be at least 1, got 0"),
         ("eta", [0.5, "1.5"], 'values[1] must be a finite number, got "1.5"'),
         ("eta", [True], "values[0] must be a finite number, got true"),
         ("eta", [0.5, 1e999], "values[1] must be a finite number, got Infinity"),
         ("eta", [10**400], "values[0] must be a finite number, got 1000000"),
         ("alpha", ["M", "1.5"], 'values[1] must be a finite number, got "1.5"'),
         ("alpha", ["mcd", False], "values[1] must be a finite number, got false"),
         ("alpha", [[2.0]], "values[0] must be a finite number, got [2.0]")],
        ids=["size-float", "size-bool", "size-zero", "eta-string", "eta-bool", "eta-overflow", "eta-huge-int",
             "alpha-string", "alpha-bool", "alpha-list"],
    )
    def test_bad_value_fails_before_any_file_is_read(self, tmp_path, capsys, param, values, message):
        config = _missing_data_config("sweep")
        config["grid"] = {"param": param, "values": values}
        # json.dumps writes 1e999 as Infinity, which the loader rejects; a
        # literal that overflows to inf only shows up once parsed.
        text = json.dumps(config).replace("Infinity", "1e999")
        err = _fails_before_any_file_is_read(tmp_path, capsys, "sweep", config, text)
        assert f"error: sweep.grid.{message}" in err, err

    def test_method_grid_follows_train_method_sets(self):
        config = _missing_data_config("sweep")
        config["train"].update(label_dist="complementary", fixed_labels=True)
        config["grid"] = {"param": "method", "values": list(train.METHODS)}
        runs = cli._runs(config, "sweep")["runs"]
        assert [run[2].method for run in runs] == list(train.METHODS)
        assert sum(method in train._RELABEL_METHODS for method in train.METHODS) == 2
        for _, _, run_config, *_ in runs:
            relabels = run_config.method in train._RELABEL_METHODS
            assert run_config.label_dist == (LabelDistributionKind("complementary") if relabels else None)
            assert run_config.fixed_labels is relabels

    def test_grid_values_must_be_a_list(self, tmp_path, capsys):
        config = _missing_data_config("sweep")
        config["grid"] = {"param": "eta", "values": "0.5"}
        err = _fails_before_any_file_is_read(tmp_path, capsys, "sweep", config)
        assert "grid.values must be a non-empty list" in err, err


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

    def test_one_pool_alive_at_a_time(self, trained, monkeypatch):
        # Each pool and the test set are released before the next pool is
        # built; the file pool is read, the others generated.
        config = {
            "command": "eval-ood",
            "name": "oneatatime",
            "checkpoint": "run_seed0.osnn",
            "test": "task_test.osds",
            "pools": [
                {"name": "gaussian", "kind": "gaussian", "size": 50, "seed": 5},
                {"name": "reuse", "kind": "file", "path": "task_aux.osds"},
                {"name": "blobs", "kind": "blobs", "size": 50, "seed": 7},
            ],
        }
        refs, alive = [], []

        def read_dataset(path, **kwargs):
            ds = read(path, **kwargs)
            if not refs:  # the test set, read before any pool
                refs.append(weakref.ref(ds.features))
            return ds

        def build_pool(*args):
            alive.append(sum(ref() is not None for ref in refs))
            pool = build(*args)
            refs.append(weakref.ref(pool.features))
            return pool

        read, build = data.read_dataset, cli._build_pool
        monkeypatch.setattr(data, "read_dataset", read_dataset)
        monkeypatch.setattr(cli, "_build_pool", build_pool)
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained)]) == 0
        assert alive == [0, 0, 0] and len(refs) == 4
        assert len(read_rows(trained / "oneatatime_ood.csv")) == 1 + 3 + 1

    def test_mixed_pools_in_one_buffer_match_one_run_per_pool(self, trained, monkeypatch):
        # Pools of every kind eval-ood allows, growing and then shrinking, the
        # 400-row file pool the largest. In the run over all of them the
        # shared memory is NaN-poisoned before each set is built into it, so
        # an element left unwritten would change the metrics of its pool.
        pools = [
            {"name": "blobs", "kind": "blobs", "size": 30, "seed": 7, "window": 3},
            {"name": "rademacher", "kind": "rademacher", "size": 90, "seed": 6},
            {"name": "reuse", "kind": "file", "path": "task_aux.osds"},
            {"name": "gaussian", "kind": "gaussian", "size": 60, "seed": 5, "sigma": 2.0},
            {"name": "blobs-small", "kind": "blobs", "size": 10, "seed": 8},
        ]

        def eval_ood(name, pools):
            config = {"command": "eval-ood", "name": name, "checkpoint": "run_seed0.osnn",
                      "test": "task_test.osds", "pools": pools}
            cfg = write_config(trained / f"{name}.json", config)
            assert main(["eval-ood", "--config", str(cfg), "--out", str(trained)]) == 0
            return [row[:5] for row in read_rows(trained / f"{name}_ood.csv")]

        alone = [eval_ood(f"alone{i}", [pool])[1] for i, pool in enumerate(pools)]
        filled = []

        def poisoned(fn):
            def build(*args, out=None, **kwargs):
                if out is not None:
                    out[:] = np.nan
                    filled.append(out.size)
                return fn(*args, out=out, **kwargs)
            return build

        monkeypatch.setattr(data, "read_dataset", poisoned(data.read_dataset))
        monkeypatch.setattr(data, "gen_ood_pool", poisoned(data.gen_ood_pool))
        rows = eval_ood("mixed", pools)
        # The test set (90 rows, dim 2) and five pools, all in one 400 x 2 buffer.
        assert filled == [800] * 6
        assert rows[1:-1] == alone and rows[-1][0] == "average"

    def test_maps_one_full_size_buffer(self, trained, monkeypatch):
        # The test set and every pool, read or generated, go into the one
        # buffer sized for the largest: the 400-row file pool at dim 2.
        config = {
            "command": "eval-ood",
            "name": "onebuffer",
            "checkpoint": "run_seed0.osnn",
            "test": "task_test.osds",
            "pools": [
                {"name": "gaussian", "kind": "gaussian", "size": 50, "seed": 5},
                {"name": "reuse", "kind": "file", "path": "task_aux.osds"},
                {"name": "rademacher", "kind": "rademacher", "size": 300, "seed": 6},
                {"name": "blobs", "kind": "blobs", "size": 120, "seed": 7},
            ],
        }
        mapped = []

        def anonymous(shape, dtype=np.float64):
            mapped.append((shape, np.dtype(dtype)))
            return make(shape, dtype)

        make = data._anonymous
        monkeypatch.setattr(data, "_anonymous", anonymous)
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained)]) == 0
        assert mapped == [((400 * 2,), np.dtype(np.float64))]
        assert len(read_rows(trained / "onebuffer_ood.csv")) == 1 + 4 + 1

    @pytest.mark.parametrize(
        "bad,message",
        [("missing-pool", r"error: pools\[1\]: \[Errno 2\] No such file or directory: '.*nope\.osds'"),
         ("wrong-dim-pool", r"error: pools\[1\]: dimension 5 != test 2\n"),
         ("truncated-pool", r"error: pools\[1\]: .*nope\.osds: short read, expected"),
         ("missing-test", r"error: test: \[Errno 2\] No such file or directory: '.*nope\.osds'"),
         ("bad-magic-test", r"error: test: .*nope\.osds: bad magic, not a dataset file"),
         ("wrong-dim-test", r"error: test dimension 5 does not match checkpoint input 2\n")],
        ids=["missing-pool", "wrong-dim-pool", "truncated-pool", "missing-test", "bad-magic-test",
             "wrong-dim-test"],
    )
    def test_bad_file_fails_before_any_row_is_read(self, trained, capsys, monkeypatch, bad, message):
        # gen_ood_pool and read_dataset fail if called, so a file's error can
        # only come first if every header is checked before any set is built.
        def no_rows(*args, **kwargs):
            raise AssertionError("a set was built")

        if bad.startswith("wrong-dim"):
            data.write_dataset(data.gen_gaussian_classes(2, 5, [3, 3], 1.0, 1.0, seed=0),
                               trained / "nope.osds")
        elif bad == "truncated-pool":
            (trained / "nope.osds").write_bytes((trained / "task_aux.osds").read_bytes()[:-1])
        elif bad == "bad-magic-test":
            (trained / "nope.osds").write_bytes(b"OSDS2" + bytes(100))
        pools = [{"name": "big", "kind": "blobs", "size": 3000, "seed": 1}]
        test = "task_test.osds"
        if bad.endswith("pool"):
            pools.append({"name": "f", "kind": "file", "path": "nope.osds"})
        else:
            test = "nope.osds"
        config = {"command": "eval-ood", "name": "bad", "checkpoint": "run_seed0.osnn",
                  "test": test, "pools": pools}
        monkeypatch.setattr(data, "gen_ood_pool", no_rows)
        monkeypatch.setattr(data, "read_dataset", no_rows)
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained)]) == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert not (trained / "bad_ood.csv").exists()

    def test_file_pool_size_checked_against_its_rows(self, trained, capsys, monkeypatch):
        # As in synth, a file pool that gives a size must hold that many rows.
        def run(size):
            config = {"command": "eval-ood", "name": f"s{size}", "checkpoint": "run_seed0.osnn",
                      "test": "task_test.osds",
                      "pools": [{"name": "f", "kind": "file", "size": size, "path": "task_aux.osds"}]}
            cfg = write_config(trained / "ood.json", config)
            return main(["eval-ood", "--config", str(cfg), "--out", str(trained)])

        assert run(400) == 0
        monkeypatch.setattr(data, "read_dataset", lambda *a, **k: pytest.fail("a set was read"))
        assert run(10) == 1
        assert "error: pools[0]: size 10 != 400 rows in the file\n" in capsys.readouterr().err
        assert not (trained / "s10_ood.csv").exists()

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
            # Pool integers are JSON integers, never coerced.
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "rademacher", "size": 200.7, "seed": True}]},
             r"pools\[1\]\.size must be a non-negative integer, got 200\.7"),
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "rademacher", "seed": True}]},
             r"pools\[1\]\.seed must be a non-negative integer, got true"),
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "blobs", "window": 4.9}]},
             r"pools\[1\]\.window must be a non-negative integer, got 4\.9"),
            ({"pools": [_GAUSS, {**_GAUSS, "clusters": -2}]},
             r"pools\[1\]\.clusters must be a non-negative integer, got -2"),
        ],
        ids=["file-without-path", "key-typo", "no-seed", "shifted-mixture", "unknown-kind",
             "zero-window", "nan-sigma", "aupr-positive", "float-size", "bool-seed",
             "float-window", "negative-clusters"],
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


def forbid_draws(monkeypatch):
    """Make drawing any bayes-check case fail the test."""

    def no_draws(*args, **kwargs):
        raise AssertionError("a case was drawn")

    for name in ("random_case", "random_invariance_checks", "random_toxicity_counts"):
        monkeypatch.setattr(oracle, name, no_draws)


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
        # Cases cross two block boundaries, and stress cases one; the
        # reference draws the same stream and checks every case with the
        # one-case public calls.
        block = oracle.BLOCK_WORDS // oracle._mean_words(12, 9)
        config = {
            "command": "bayes-check", "name": "oracle", "seed": 3, "cases": 2 * block + 17,
            "max_support": 12, "max_classes": 9,
            "one_hot_stress": {"cases": block + 3, "m_scale": 30.0},
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
        for _ in range(block + 3):
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

    @pytest.mark.parametrize("replayed", [False, True], ids=["decoded", "replayed"])
    @pytest.mark.parametrize("budget", ["one-case", "few", "one-block"])
    def test_report_bytes_same_for_any_block_budget(self, tmp_path, monkeypatch, budget, replayed):
        config = {
            "command": "bayes-check", "name": "oracle", "seed": 5, "cases": 150,
            "max_support": 12, "max_classes": 9,
            "one_hot_stress": {"cases": 90, "m_scale": 30.0},
            "rebalance": {"counts": [50, 16, 5], "alphas": [0.8, 2.0], "aux_sizes": [0, 40]},
        }
        cfg = write_config(tmp_path / "bayes.json", config)

        def report(out):
            assert main(["bayes-check", "--config", str(cfg), "--out", str(out)]) == 0
            return (out / "oracle_bayes.json").read_bytes()

        want = report(tmp_path / "default")
        few = 40 * oracle._mean_words(12, 9)
        monkeypatch.setattr(oracle, "BLOCK_WORDS", {"one-case": 1, "few": few, "one-block": 2**40}[budget])
        if replayed:
            monkeypatch.setattr(oracle, "_redraws", lambda halves, spans: True)
        assert report(tmp_path / budget) == want

    @pytest.mark.parametrize(
        "change,key,shown",
        [({"cases": -5}, "cases", "-5"),
         ({"one_hot_stress": {"cases": -3}}, "one_hot_stress.cases", "-3"),
         ({"cases": 2.5}, "cases", "2.5"),
         ({"one_hot_stress": {"cases": True}}, "one_hot_stress.cases", "true")],
        ids=["negative", "negative-stress", "float", "bool-stress"],
    )
    def test_bad_case_count_fails_before_any_case_is_drawn(
        self, tmp_path, capsys, monkeypatch, change, key, shown
    ):
        forbid_draws(monkeypatch)
        config = {"command": "bayes-check", "name": "bad", "seed": 0, "cases": 4, **change}
        cfg = write_config(tmp_path / "bayes.json", config)
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"bayes-check.{key} must be a non-negative integer, got {shown}" in err, err
        assert not (tmp_path / "bad_bayes.json").exists()

    @pytest.mark.parametrize(
        "change,message",
        [({"seed": True, "max_support": 4.9}, "seed must be a non-negative integer, got true"),
         ({"max_support": 4.9}, "max_support must be a non-negative integer, got 4.9"),
         ({"max_support": 1}, "max_support must be at least 2, got 1"),
         ({"max_classes": 3.0}, "max_classes must be a non-negative integer, got 3.0"),
         ({"rebalance": {"support": 2.5}}, "rebalance.support must be a non-negative integer, got 2.5"),
         ({"rebalance": {"support": 0}}, "rebalance.support must be at least 1, got 0"),
         ({"rebalance": {"seed": True}}, "rebalance.seed must be a non-negative integer, got true"),
         ({"rebalance": {"seed": -1}}, "rebalance.seed must be a non-negative integer, got -1")],
        ids=["bool-seed", "float-max-support", "small-max-support", "float-max-classes",
             "float-support", "zero-support", "bool-rebalance-seed", "negative-rebalance-seed"],
    )
    def test_bad_integer_fails_before_any_case_is_drawn(
        self, tmp_path, capsys, monkeypatch, change, message
    ):
        forbid_draws(monkeypatch)
        config = {"command": "bayes-check", "name": "bad", "seed": 0, "cases": 4, **change}
        if "rebalance" in change:
            config["rebalance"] = {
                "counts": [50, 10], "alphas": [0.5], "aux_sizes": [10], **change["rebalance"]
            }
        cfg = write_config(tmp_path / "bayes.json", config)
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"bayes-check.{message}" in err, err
        assert not (tmp_path / "bad_bayes.json").exists()

    @pytest.mark.parametrize(
        "stress,rebalance,message",
        [({"m_scale": True}, {}, "one_hot_stress.m_scale must be a finite number, got true"),
         ({"m_scale": "x"}, {}, 'one_hot_stress.m_scale must be a finite number, got "x"'),
         ({"m_scale": -1.0}, {}, "one_hot_stress.m_scale must be at least 0, got -1.0"),
         ({}, {"alphas": [True, 2.0]}, "rebalance.alphas[0] must be a finite number, got true"),
         ({}, {"alphas": []}, "rebalance.alphas must be a non-empty list, got []"),
         ({}, {"alphas": [2.0, 0.5]}, "rebalance.alphas[1]: alpha=0.5 out of range"),
         ({}, {"aux_sizes": [-100]}, "rebalance.aux_sizes[0] must be at least 0, got -100"),
         ({}, {"counts": [500, 50.5, 5]},
          "rebalance.counts[1] must be a non-negative integer, got 50.5"),
         ({}, {"counts": [0, 0]}, "rebalance.counts: invalid prior: all class counts are zero"),
         ({}, {"disjoint": "no"}, 'rebalance.disjoint must be true or false, got "no"')],
        ids=["bool-m-scale", "string-m-scale", "negative-m-scale", "bool-alpha", "no-alphas",
             "small-alpha", "negative-aux-size", "float-count", "zero-counts", "string-disjoint"],
    )
    def test_bad_section_value_fails_before_any_case_is_drawn(
        self, tmp_path, capsys, monkeypatch, stress, rebalance, message
    ):
        forbid_draws(monkeypatch)
        config = {
            "command": "bayes-check", "name": "bad", "seed": 0, "cases": 4,
            "one_hot_stress": {"cases": 2, **stress},
            "rebalance": {"counts": [50, 10], "alphas": [1.0], "aux_sizes": [0, 10], **rebalance},
        }
        cfg = write_config(tmp_path / "bayes.json", config)
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and f"error: bayes-check.{message}" in err, err
        assert not (tmp_path / "bad_bayes.json").exists()

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


class TestParser:
    def test_reused_parser_speaks_as_a_fresh_one(self, workspace, capsys):
        # main builds its parser once: after two commands through it, a usage
        # error and --help must still read as a freshly built parser's.
        bayes = write_config(workspace / "bayes.json", _bayes_config())
        run = write_config(workspace / "train.json", train_config())
        assert main(["bayes-check", "--config", str(bayes), "--out", str(workspace / "b")]) == 0
        assert main(["train", "--config", str(run), "--out", str(workspace)]) == 0
        capsys.readouterr()
        fresh = cli._parser.__wrapped__()
        assert fresh is not cli._parser() and cli._parser() is cli._parser()
        outputs = []
        for argv in (["sweep", "--out", str(workspace)], ["--help"], ["train", "--help"]):
            for parse in (main, fresh.parse_args):
                with pytest.raises(SystemExit) as exit_:
                    parse(argv)
                outputs.append((exit_.value.code, capsys.readouterr()))
        assert outputs[::2] == outputs[1::2]
        assert [code for code, _ in outputs[::2]] == [2, 0, 0]
        assert "the following arguments are required: --config" in outputs[0][1].err


def forbid_reads(monkeypatch):
    """Make reading any dataset, pool, CIFAR batch or checkpoint fail the test."""

    def no_reads(*args, **kwargs):
        raise AssertionError("a file was read")

    for module, name in ((data, "read_dataset"), (data, "read_pool"),
                         (data, "read_cifar10_binary"), (cli.nn, "load_params")):
        monkeypatch.setattr(module, name, no_reads)


def refused(tmp_path, capsys, monkeypatch, command, config, path, text=None):
    """Run a bad config; return its one error line, which must name the dotted path.

    Nothing may be read, no case drawn, and --out (two levels deep) never
    created: the config must fail as it is parsed.
    """
    forbid_reads(monkeypatch)
    forbid_draws(monkeypatch)
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir(exist_ok=True)
    cfg = cfg_dir / "bad.json"
    cfg.write_text(json.dumps(config) if text is None else text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "failed:" not in err, err
    assert err.startswith(f"error: {path}"), err
    assert not out.exists() and list(cfg_dir.iterdir()) == [cfg]
    return err


def _bayes_config(**change):
    return {"command": "bayes-check", "name": "b", "seed": 0, "cases": 4, **change}


class TestConfigRegressions:
    """Values that used to pass, crash or fail late; each now fails as it is parsed."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "change,path,shown",
        [({"use_class_weights": "no"}, "train.use_class_weights must be true or false", '"no"'),
         ({"fixed_labels": "yes"}, "train.fixed_labels must be true or false", '"yes"'),
         ({"label_dist": {"tag": "complementary", "alpha": True}},
          "train.label_dist.alpha must be a finite number", "true"),
         ({"label_dist": {"tag": "fixed-class", "class_index": 1.0}},
          "train.label_dist.class_index must be a non-negative integer", "1.0")],
        ids=["class-weights-string", "fixed-labels-string", "label-dist-alpha-bool",
             "class-index-float"],
    )
    def test_train_value(self, tmp_path, capsys, monkeypatch, command, change, path, shown):
        config = _missing_data_config(command)
        config["train"].update(change)
        err = refused(tmp_path, capsys, monkeypatch, command, config, f"{command}.{path}")
        assert err.endswith(f", got {shown}\n"), err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_alpha_beside_label_dist(self, tmp_path, capsys, monkeypatch, command):
        # The complementary distribution's alpha is set in label_dist alone.
        config = _missing_data_config(command)
        config["train"].update(alpha=0.9, label_dist="mcd")
        err = refused(tmp_path, capsys, monkeypatch, command, config,
                      f"{command}.train: unknown keys ['alpha']")
        assert err == f"error: {command}.train: unknown keys ['alpha']\n", err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_data_path_not_a_string(self, tmp_path, capsys, monkeypatch, command):
        config = _missing_data_config(command)
        config["data"]["test"] = 5
        refused(tmp_path, capsys, monkeypatch, command, config,
                f"{command}.data.test must be a non-empty string, got 5")

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("thresholds", [[100, 20], [1, 2, 3], [20, 20], [20.0, 100]],
                             ids=["decreasing", "three", "equal", "float"])
    def test_group_thresholds(self, tmp_path, capsys, monkeypatch, command, thresholds):
        config = _missing_data_config(command)
        config["group_thresholds"] = thresholds
        refused(tmp_path, capsys, monkeypatch, command, config, f"{command}.group_thresholds")

    def test_pool_sigma_bool(self, tmp_path, capsys, monkeypatch):
        config = synth_config()
        config["aux"]["sigma"] = True
        refused(tmp_path, capsys, monkeypatch, "synth", config,
                "synth.aux.sigma must be a finite number, got true")

    def test_eval_pool_sigma_bool(self, tmp_path, capsys, monkeypatch):
        config = {"command": "eval-ood", "name": "e", "checkpoint": "m.osnn", "test": "t.osds",
                  "pools": [_GAUSS, {**_GAUSS, "sigma": True}]}
        refused(tmp_path, capsys, monkeypatch, "eval-ood", config,
                "eval-ood.pools[1].sigma must be a finite number, got true")

    def test_file_pool_path_not_a_string(self, tmp_path, capsys, monkeypatch):
        # The train and test sets used to be written before this crashed.
        config = synth_config()
        config["aux"] = {"kind": "file", "size": 1, "path": 5}
        refused(tmp_path, capsys, monkeypatch, "synth", config,
                "synth.aux.path must be a non-empty string, got 5")

    @pytest.mark.parametrize(
        "name,shown",
        [("../escaped", '"../escaped"'), ("a/b", '"a/b"'), ("a\\b", '"a\\\\b"'), (".", '"."'),
         ("..", '".."'), ("", '""'), (None, "null"), (5, "5")],
        ids=["parent", "slash", "backslash", "dot", "dotdot", "empty", "null", "int"],
    )
    @pytest.mark.parametrize("command", ["synth", "train", "sweep", "eval-ood", "bayes-check"])
    def test_name_is_a_bare_file_name(self, tmp_path, capsys, monkeypatch, command, name, shown):
        config = {
            "synth": synth_config(),
            "train": _missing_data_config("train"),
            "sweep": _missing_data_config("sweep"),
            "eval-ood": {"command": "eval-ood", "checkpoint": "m.osnn", "test": "t.osds",
                         "pools": [_GAUSS]},
            "bayes-check": _bayes_config(),
        }[command]
        config["name"] = name
        refused(tmp_path, capsys, monkeypatch, command, config,
                f"{command}.name must be a bare file name, got {shown}\n")

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_aux_method_without_aux_pool(self, tmp_path, capsys, monkeypatch, command):
        # Used to fail once per run, after the train and test sets were read.
        config = _missing_data_config(command)
        del config["data"]["aux"]
        message = "train.train.method: 'open-sampling' requires an auxiliary pool in data.aux"
        if command == "sweep":
            config["train"] = {"method": "standard", "epochs": 3}
            config["grid"] = {"param": "method", "values": ["standard", "oe"]}
            message = "sweep.train.method: 'oe' requires an auxiliary pool in data.aux, at grid.values[1]"
        refused(tmp_path, capsys, monkeypatch, command, config, message + "\n")

    def test_aux_size_without_aux_pool(self, tmp_path, capsys, monkeypatch):
        # Used to fail only after the train and test sets were read, as
        # "aux_size 10 exceeds the 0 rows of data.aux".
        config = _missing_data_config("sweep", method="standard")
        del config["data"]["aux"]
        config["grid"] = {"param": "aux_size", "values": [10, 20]}
        err = refused(tmp_path, capsys, monkeypatch, "sweep", config, "sweep.grid.values[0]")
        assert err == "error: sweep.grid.values[0]: aux_size 10 needs a pool in data.aux\n"

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_class_index_past_the_classes(self, workspace, capsys, monkeypatch, command):
        # Used to fail once per run, and a sweep trained its good values first.
        config = train_config(seeds=(0, 1), extra={"label_dist": {"tag": "fixed-class", "class_index": 7}})
        message = "train.train.label_dist: fixed-class index 7 out of range for K=3"
        if command == "sweep":
            del config["train"]["label_dist"]
            config.update(command="sweep", grid={"param": "label_dist", "values": [
                {"tag": "fixed-class", "class_index": 2}, {"tag": "fixed-class", "class_index": 3}]})
            message = "sweep.train.label_dist: fixed-class index 3 out of range for K=3, at grid.values[1]"
        reads = []
        read = data.read_dataset
        monkeypatch.setattr(data, "read_dataset", lambda path: reads.append(path.name) or read(path))
        monkeypatch.setattr(cli.train, "train_runs", lambda *args: pytest.fail("a run trained"))
        cfg = write_config(workspace / "bad.json", config)
        out = workspace / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert reads == ["task_train.osds"] and list(out.iterdir()) == []

    def test_aux_size_past_the_pool(self, workspace, capsys, monkeypatch):
        # Used to fail as one run, after the sweep's other values trained.
        config = train_config(seeds=(0, 1))
        config.update(command="sweep", grid={"param": "aux_size", "values": [10, 400, 401]})
        monkeypatch.setattr(cli.train, "train_runs", lambda *args: pytest.fail("a run trained"))
        cfg = write_config(workspace / "bad.json", config)
        out = workspace / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: sweep.grid.values[2]: aux_size 401 exceeds the 400 rows of data.aux\n")
        assert list(out.iterdir()) == []

    def test_bad_config_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch):
        refused(tmp_path, capsys, monkeypatch, "bayes-check", _bayes_config(cases=-1),
                "bayes-check.cases must be a non-negative integer, got -1")

    @pytest.mark.parametrize(
        "text,key",
        [('"seeds": [0], "seeds": [0, 1]', "seeds"),
         ('"seeds": [0], "train": {"method": "standard", "epochs": 1, "epochs": 2}', "epochs")],
        ids=["top-level", "nested"],
    )
    def test_duplicate_key(self, tmp_path, capsys, monkeypatch, text, key):
        text = ('{"command": "train", "name": "d", "data": {"train": "a", "test": "b"}, '
                + text + "}")
        err = refused(tmp_path, capsys, monkeypatch, "train", None, str(tmp_path), text)
        assert f"duplicate key {key!r}" in err, err
        # A document without duplicates keeps its hash.
        config = _missing_data_config("train")
        path = write_config(tmp_path / "c.json", config)
        assert cli._config_hash(cli._load_config(path, "train")) == cli._config_hash(config)


# One valid config per variant that, between them, give every key of every
# table; paths below each command are dotted, list items shown as [0].
_TRAIN_SECTION = {
    "method": "open-sampling", "eta": 1.5,
    "label_dist": {"tag": "complementary", "alpha": 2.0}, "use_class_weights": True,
    "fixed_labels": False, "beta_cb": 0.99, "epochs": 3, "batch_train": 8, "batch_aux": 4,
    "base_lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4,
    "schedule": {"warmup_epochs": 1, "milestones": [2], "decay_factor": 0.1},
}
_RUNS = {
    "command": "train", "name": "t", "data": {"train": "a.osds", "test": "b.osds", "aux": "c.osds"},
    "model": {"hidden_dim": 4}, "train": _TRAIN_SECTION, "seeds": [0, 1],
    "group_thresholds": [20, 100],
}
_LABEL_DISTS = ({"tag": "complementary", "alpha": 2.0}, {"tag": "class-balanced", "beta_cb": 0.9},
                {"tag": "fixed-class", "class_index": 0})
_POOL_SPEC = {"kind": "gaussian", "size": 10, "seed": 1, "sigma": 1.0, "margin": 2.0,
              "clusters": 2, "window": 3, "low": 0.0, "high": 1.0, "path": "p.osds"}
_SCHEMA_BASES = {
    "synth": [
        {"command": "synth", "name": "s", "seed": 1, "classes": 3, "dim": 2, "mean_radius": 2.0,
         "sigma": 1.0, "train": {"n_max": 20, "ratio": 10.0}, "test": {"per_class": 5},
         "aux": _POOL_SPEC},
        {"command": "synth", "name": "s", "seed": 1, "aux": _POOL_SPEC,
         "cifar": {"train_paths": ["a.bin"], "test_paths": ["b.bin"], "ratio": 10.0, "n_max": 5}},
    ],
    "train": [
        {**_RUNS, "train": {**_TRAIN_SECTION, "label_dist": label_dist}}
        for label_dist in _LABEL_DISTS
    ],
    "sweep": [
        {**_RUNS, "command": "sweep", "train": {**_TRAIN_SECTION, "label_dist": label_dist},
         "grid": {"param": param, "values": values}}
        for label_dist in _LABEL_DISTS
        for param, values in (("eta", [0.5]), ("aux_size", [10]), ("method", ["standard"]),
                              ("label_dist", ["uniform"]), ("alpha", [2.0]))
    ],
    "eval-ood": [
        {"command": "eval-ood", "name": "e", "checkpoint": "m.osnn", "test": "t.osds",
         "pools": [{"name": "g", **_POOL_SPEC}], "aupr_positive": "in"},
    ],
    "bayes-check": [
        _bayes_config(max_support=5, max_classes=3, one_hot_stress={"cases": 2, "m_scale": 10.0},
                      rebalance={"counts": [50, 10], "alphas": [1.0], "aux_sizes": [0, 10],
                                 "support": 4, "seed": 1, "disjoint": True}),
    ],
}
# The tables each command's config is parsed against, and the tables behind
# the callables that parse the union cases.
_SCHEMA_ROOTS = {
    "synth": [cli._SYNTH_GAUSSIAN, cli._SYNTH_CIFAR],
    "train": [cli._RUNS],
    "sweep": [cli._SWEEP],
    "eval-ood": [cli._EVAL_OOD],
    "bayes-check": [cli._BAYES_CHECK],
}
_UNIONS = {
    cli._label_dist: cli._LABEL_DIST,
    cli._thresholds: [int],
    cli._eval_pool: {"name": (str, None, cli.REQUIRED), **cli._POOL},
    cli._rebalance: cli._REBALANCE,
}


def _union(kind):
    return _UNIONS[kind] if callable(kind) and kind in _UNIONS else kind


def _schema_paths(kind, path):
    """(dotted path, kind) of everything kind describes below path, list items as [0]."""
    kind = _union(kind)
    if isinstance(kind, dict):
        for key, (sub, _, _) in kind.items():
            if key != "command":  # checked against the subcommand, by the loader
                yield f"{path}.{key}", sub
                yield from _schema_paths(sub, f"{path}.{key}")
    elif isinstance(kind, list):
        yield f"{path}[0]", kind[0]
        yield from _schema_paths(kind[0], f"{path}[0]")


def _slots(path):
    for part in path.split(".")[1:]:
        key, *indices = part.replace("]", "").split("[")
        yield key
        yield from map(int, indices)


def _lookup(config, path):
    for slot in _slots(path):
        config = config[slot]
    return config


def _schema_cases():
    """(command, base index, path, kind) per schema path, in the first base that gives it.

    A sweep's grid values are typed by their param, so each base's are tried.
    """
    cases = []
    for command, roots in _SCHEMA_ROOTS.items():
        paths = dict(p for root in roots for p in _schema_paths(root, command))
        for path, kind in paths.items():
            found = False
            for i, base in enumerate(_SCHEMA_BASES[command]):
                try:
                    _lookup(base, path)
                except (KeyError, IndexError):
                    continue
                if path == "sweep.grid.values[0]":
                    param = base["grid"]["param"]
                    kind = cli._GRID_VALUES[param][0]
                elif found:
                    continue
                found = True
                cases.append(pytest.param(command, i, path, kind, id=f"{path}-{i}"))
            if not found:
                cases.append(pytest.param(command, None, path, kind, id=f"{path}-uncovered"))
    return cases


# One JSON value of each type that a kind refuses: bool, string, float for an
# integer, list, null and object.
_WRONG = {
    int: [True, "1", 2.0, [1], None, {}],
    float: [True, "1.0", [1.0], None, {}],
    bool: ["true", 1, [True], None, {}],
    str: [True, 5, 1.5, ["x"], None, {}],
}


def _wrong_types(kind):
    if kind is cli._label_dist:  # a tag string or an object
        return [True, 5, 1.5, [], None]
    kind = _union(kind)
    if isinstance(kind, list):
        return [True, "x", 5, 1.5, None, {}]
    if isinstance(kind, dict):
        return [True, "x", 5, 1.5, [], None]
    if isinstance(kind, tuple) or kind is cli.NAME:
        return _WRONG[str]
    return _WRONG[float if kind is cli._alpha else kind]


class TestConfigSchema:
    @pytest.mark.parametrize("command", list(_SCHEMA_BASES))
    def test_bases_parse(self, command):
        for base in _SCHEMA_BASES[command]:
            cli._parse(cli._COMMANDS[command][0], json.loads(json.dumps(base)), command)

    @pytest.mark.parametrize("command,base,path,kind", _schema_cases())
    def test_every_wrong_type_fails_as_parsed(self, tmp_path, capsys, monkeypatch, command, base,
                                              path, kind):
        assert base is not None, f"no config in _SCHEMA_BASES gives {path}"
        config = _SCHEMA_BASES[command][base]
        *parents, last = _slots(path)
        for wrong in _wrong_types(kind):
            bad = json.loads(json.dumps(config))
            section = bad
            for slot in parents:
                section = section[slot]
            section[last] = wrong
            refused(tmp_path, capsys, monkeypatch, command, bad, path)
