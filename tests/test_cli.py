import csv
import dataclasses
import functools
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


def ci_task_config():
    """The CI smoke runs' task: K=3, d=4, 85 training rows and a 400-row Gaussian pool."""
    return {"command": "synth", "name": "task", "seed": 3, "classes": 3, "dim": 4, "mean_radius": 2.0,
            "sigma": 1.0, "train": {"n_max": 60, "ratio": 10.0}, "test": {"per_class": 30},
            "aux": {"kind": "gaussian", "size": 400, "seed": 4}}


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

    def test_overflowing_pool_scale_refused(self, tmp_path, capsys):
        # sigma 1e308 is finite but overflows 38 of the pool's 400 entries to
        # +-inf. synth refuses it as the pool is built, after the train and
        # test sets are written, with no numpy warning (one fails the run).
        config = synth_config(aux_kind="gaussian")
        config["aux"]["sigma"] = 1e308
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: aux: sigma 1e+308 overflows the pool (overflow encountered in multiply)\n", err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json", "task_test.osds", "task_train.osds"]

    @pytest.mark.parametrize("sigma,mean_radius,op", [(1e308, 2.0, "multiply"), (5e307, 1e308, "add")],
                             ids=["scale", "means-add"])
    def test_overflowing_class_scale_refused(self, tmp_path, capsys, sigma, mean_radius, op):
        # sigma 1e308 is finite but used to overflow 20 of the CI task's 340
        # training entries to +-inf behind a numpy warning, and sigma 5e307
        # beside means of radius 1e308 the mean add. Both sets are generated
        # before either is written, so synth writes nothing.
        config = ci_task_config()
        config.update(sigma=sigma, mean_radius=mean_radius)
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: sigma {sigma} overflows the Gaussian classes (overflow encountered in {op})\n", err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_cifar_source_beside_gaussian_keys_refused(self, tmp_path, capsys):
        config = {"command": "synth", "name": "c", "seed": 1, "sigma": 1.0, "classes": 3,
                  "cifar": {"train_paths": ["missing.bin"]}}
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: synth: cifar source conflicts with keys ['classes', 'sigma']\n", err
        assert not (tmp_path / "out").exists()

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
        "test_rows,pool_rows", [(40, 60), (80, 30), (40, 90)],
        ids=["both-fit", "test-larger", "pool-larger"],
    )
    def test_cifar_test_set_and_pool_reuse_the_source_memory(self, tmp_path, monkeypatch,
                                                            test_rows, pool_rows):
        # One buffer, sized for the largest of the 60-record source, the test
        # set and the pool, takes each in turn. The files have the bytes of
        # fresh builds.
        rng = np.random.default_rng(8)
        for name, n in (("train.bin", 60), ("test.bin", test_rows)):
            records = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
            records[:, 0] = np.arange(n) % 10
            records.tofile(tmp_path / name)
        config = {"command": "synth", "name": "c", "seed": 2,
                  "cifar": {"train_paths": ["train.bin"], "test_paths": ["test.bin"], "ratio": 3.0},
                  "aux": {"kind": "blobs", "size": pool_rows, "seed": 4}}
        mappings = []

        def mapping(features):
            while isinstance(features, np.ndarray):
                features = features.base
            mappings.append(features)

        def read_cifar(paths, **kwargs):
            ds = read(paths, **kwargs)
            mapping(ds.features)
            return ds

        def build_pool(*args):
            pool = build(*args)
            mapping(pool)
            return pool

        read, build = data.read_cifar10_binary, cli._build_pool
        monkeypatch.setattr(data, "read_cifar10_binary", read_cifar)
        monkeypatch.setattr(cli, "_build_pool", build_pool)
        cfg = write_config(tmp_path / "synth.json", config)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        source, test, pool = mappings
        assert (test is source, pool is source) == (True, True)
        data.write_dataset(read([tmp_path / "test.bin"]), tmp_path / "want_test.osds")
        data.write_pool(data.gen_ood_pool("blobs", pool_rows, 3072, seed=4), tmp_path / "want_aux.osds")
        for part in ("test", "aux"):
            assert (tmp_path / f"c_{part}.osds").read_bytes() == (
                tmp_path / f"want_{part}.osds").read_bytes()


    def test_gaussian_class_means_drawn_once(self, tmp_path, monkeypatch):
        # The train set, the test set and the shifted-mixture pool share one
        # means array.
        calls = []
        means = data.gaussian_class_means
        monkeypatch.setattr(data, "gaussian_class_means", lambda *args: calls.append(args) or means(*args))
        cfg = write_config(tmp_path / "synth.json", synth_config())
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert calls == [(3, 2, 2.0, 7)]

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
        data.write_pool(np.ones(shape), tmp_path / "pool.osds")
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
        data.write_pool(rng.standard_normal((20, 3072)), tmp_path / "pool.osds")
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

    def test_failed_runs_write_nothing(self, tmp_path, capsys):
        # eta = 1e12 at base_lr 0.5 diverges on the CI task within 10 epochs:
        # each seed's run fails by name and leaves no file behind.
        cfg = write_config(tmp_path / "synth.json", ci_task_config())
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        config = train_config(name="diverge", seeds=(0, 1), eta=1e12, extra={"epochs": 10, "base_lr": 0.5})
        cfg = write_config(tmp_path / "train.json", config)
        before = sorted(tmp_path.iterdir())
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        failed = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:2] for line in failed] == [["failed", "diverge_seed0"], ["failed", "diverge_seed1"]]
        assert all(": non-finite logits at epoch " in line for line in failed), failed
        assert sorted(tmp_path.iterdir()) == before

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

    @pytest.fixture
    def scored(self, monkeypatch):
        """Per train_runs call: its stack count and its test-set scorings."""
        calls = []
        group, accuracies = train._train_group, metrics._accuracies

        def counted_group(*args):
            calls[-1][0] += 1
            return group(*args)

        def counted_accuracies(*args):
            calls[-1][1] += 1
            return accuracies(*args)

        runs = train.train_runs
        monkeypatch.setattr(train, "train_runs", lambda *args, **kwargs: calls.append([0, 0]) or runs(*args, **kwargs))
        monkeypatch.setattr(train, "_train_group", counted_group)
        monkeypatch.setattr(metrics, "_accuracies", counted_accuracies)
        return calls

    def test_sweep_scores_each_stack_once(self, workspace, scored):
        # A sweep reads each run's last epoch only, so each stack scores its
        # test set after that epoch alone; train scores it after every epoch.
        config = {
            "command": "sweep",
            "name": "once",
            "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
            "model": {"hidden_dim": 4},
            "train": {"method": "open-sampling", "epochs": 5},
            "grid": {"param": "method", "values": list(train.METHODS)},
            "seeds": [0, 1],
        }
        cfg = write_config(workspace / "sweep.json", config)
        assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 0
        assert scored == [[1, 1]]
        cfg = write_config(workspace / "train.json", train_config(seeds=(0, 1)))
        assert main(["train", "--config", str(cfg), "--out", str(workspace)]) == 0
        assert scored[1:] == [[1, 3]]

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
        "seeds,must,shown",
        [([1.5], "a non-negative integer", "1.5"), ([True], "a non-negative integer", "true"),
         ([0, -1], "a non-negative integer", "-1"), ([0, 0], "none of [0]", "0")],
        ids=["float", "bool", "negative", "repeated"],
    )
    def test_bad_seed_fails_before_any_file_is_read(self, tmp_path, capsys, command, seeds, must,
                                                    shown):
        config = train_config(seeds=seeds)
        config["data"] = {"train": "missing_train.osds", "test": "missing_test.osds"}
        if command == "sweep":
            config.update(command="sweep", grid={"param": "eta", "values": [0.5]})
        cfg = write_config(tmp_path / "bad.json", config)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        index = len(seeds) - 1
        assert f"{command}.seeds[{index}] must be {must}, got {shown}" in err, err
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
         (("train", "batch_train"), 0, "train.batch_train must be at least 1, got 0{at}"),
         (("train", "batch_aux"), 16.0, "train.batch_aux must be a non-negative integer, got 16.0"),
         (("train", "batch_aux"), 0, "train.batch_aux must be at least 1, got 0{at}"),
         (("model", "hidden_dim"), 8.7, "model.hidden_dim must be a non-negative integer, got 8.7"),
         (("model", "hidden_dim"), -1, "model.hidden_dim must be a non-negative integer, got -1"),
         (("train", "schedule", "warmup_epochs"), 1.0,
          "train.schedule.warmup_epochs must be a non-negative integer, got 1.0"),
         (("train", "schedule", "milestones"), [1, 2.5],
          "train.schedule.milestones[1] must be a non-negative integer, got 2.5"),
         (("train", "schedule", "milestones"), 2, "train.schedule.milestones must be a list, got 2")],
        ids=["epochs-float", "epochs-bool", "batch_train-float", "batch_train-zero", "batch_aux-float",
             "batch_aux-zero", "hidden_dim-float", "hidden_dim-negative", "warmup-float", "milestone-float",
             "milestones-scalar"],
    )
    def test_bad_integer_fails_before_any_file_is_read(self, tmp_path, capsys, command, path, value, message):
        config = _missing_data_config(command)
        *parents, key = path
        section = config
        for parent in parents:
            section = section[parent]
        section[key] = value
        err = _fails_before_any_file_is_read(tmp_path, capsys, command, config)
        # TrainConfig refuses a batch size of 0, so a sweep names the grid value it was built at.
        message = message.format(at=", at grid.values[0]" if command == "sweep" else "")
        assert f"error: {command}.{message}\n" in err, err


class TestDerivedTables:
    """_TRAIN, _LABEL_DIST and the schedule table are read off their dataclasses."""

    @pytest.mark.parametrize("table, cls, skip", [
        (cli._TRAIN, train.TrainConfig, ("hidden_dim", "seed")),
        (cli._LABEL_DIST, LabelDistributionKind, ()),
        (cli._SCHEDULE, nn.LrSchedule, ()),
    ], ids=["train", "label_dist", "schedule"])
    def test_keys_are_the_fields_in_order(self, table, cls, skip):
        assert list(table) == [f.name for f in dataclasses.fields(cls) if f.name not in skip]

    def test_scalar_fields_take_their_kind_and_stay_optional(self):
        assert cli._TRAIN["eta"] == (float, None, cli.OPTIONAL)
        assert cli._TRAIN["batch_aux"] == (int, None, cli.OPTIONAL)
        assert cli._TRAIN["fixed_labels"] == (bool, None, cli.OPTIONAL)
        assert cli._LABEL_DIST["class_index"] == (int, None, cli.OPTIONAL)

    def test_unknown_annotation_without_hand_entry_fails(self):
        @dataclasses.dataclass
        class Config:
            count: "int" = 0
            items: "list" = None

        with pytest.raises(KeyError, match="list"):
            cli._fields(Config, {})
        assert cli._fields(Config, {"items": ([int], None, cli.REQUIRED)}, skip=("count",)) == {
            "items": ([int], None, cli.REQUIRED)}

    @pytest.mark.parametrize("schedule, built", [
        ({}, nn.LrSchedule(0, (), 0.01)),
        ({"milestones": [2]}, nn.LrSchedule(0, (2,), 0.01)),
    ], ids=["empty", "milestones-only"])
    def test_absent_schedule_keys_take_lr_schedule_defaults(self, schedule, built):
        config = train_config(extra={"schedule": schedule})
        assert [run[2].schedule for run in cli._runs(config, "train")["runs"]] == [built]


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
         ({"schedule": {"milestones": [2], "decay_factor": -0.5}},
          "train.schedule: decay_factor must be non-negative, got -0.5"),
         ({"method": "standard", "fixed_labels": True},
          "train.fixed_labels has no effect for method 'standard'")],
        ids=["momentum", "eta", "base_lr", "weight_decay", "beta_cb", "method", "label_dist-tag",
             "label_dist-alpha", "milestones", "decay_factor-negative", "fixed_labels"],
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
          "sweep.grid.values[1]: unknown label distribution tag 'zipf'")],
        ids=["eta", "method", "label_dist"],
    )
    def test_refused_grid_value_fails_before_any_file_is_read(self, tmp_path, capsys, param, values,
                                                              message):
        config = _missing_data_config("sweep")
        config["grid"] = {"param": param, "values": values}
        err = _fails_before_any_file_is_read(tmp_path, capsys, "sweep", config)
        assert f"error: {message}" in err, err

    @pytest.mark.parametrize("param,values", [("label_dist", ["uniform"]), ("alpha", [2.0])])
    def test_refused_train_label_dist_fails_though_every_value_overrides_it(self, tmp_path, capsys,
                                                                            param, values):
        config = _missing_data_config("sweep")
        config["train"]["label_dist"] = {"tag": "zipf"}
        config["grid"] = {"param": param, "values": values}
        err = _fails_before_any_file_is_read(tmp_path, capsys, "sweep", config)
        assert err == "error: sweep.train.label_dist: unknown label distribution tag 'zipf'\n", err


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

    @pytest.mark.parametrize(
        "param,values,message",
        [("eta", [0.5, 0.5, 0.50], "values[1] must be none of [0.5], got 0.5"),
         ("eta", [1, 1.0], "values[1] must be none of [1], got 1.0"),
         ("alpha", ["M", 0.5, "M"], 'values[2] must be none of ["M", 0.5], got "M"'),
         ("label_dist", ["mcd", {"tag": "mcd"}],
          'values[1] must be none of ["mcd"], got {"tag": "mcd"}'),
         ("label_dist", ["uniform", "class-balanced", {"tag": "class-balanced", "beta_cb": 0.9999}],
          'values[2] must be none of ["uniform", "class-balanced"], '
          'got {"tag": "class-balanced", "beta_cb": 0.9999}'),
         ("method", ["standard", "oe", "standard"], 'values[2] must be none of ["standard", "oe"], '
          'got "standard"'),
         ("aux_size", [10, 10], "values[1] must be none of [10], got 10")],
        ids=["eta", "eta-int", "alpha", "label_dist-spellings", "label_dist-default-beta_cb", "method",
             "aux_size"],
    )
    def test_repeated_value_fails_before_any_file_is_read(self, tmp_path, capsys, param, values,
                                                          message):
        # A value repeated once parsed would train the same runs twice.
        config = _missing_data_config("sweep")
        config["grid"] = {"param": param, "values": values}
        err = _fails_before_any_file_is_read(tmp_path, capsys, "sweep", config)
        assert f"error: sweep.grid.{message}" in err, err

    def test_labels_show_values_as_the_csv_does(self, workspace, capsys):
        config = {
            "command": "sweep",
            "name": "shown",
            "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
            "model": {"hidden_dim": 4},
            "train": {"method": "open-sampling", "epochs": 1},
            "grid": {"param": "label_dist", "values": [{"tag": "mcd"}, "uniform"]},
            "seeds": [0],
        }
        cfg = write_config(workspace / "sweep.json", config)
        assert main(["sweep", "--config", str(cfg), "--out", str(workspace)]) == 0
        shown = ['{"tag": "mcd"}', "uniform"]
        err = capsys.readouterr().err
        assert re.findall(r"^(.*): done in ", err, re.M) == [f"shown[label_dist={v},seed=0]" for v in shown]
        assert [row[1] for row in read_rows(workspace / "shown_sweep.csv")[1::2]] == shown

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

    def test_alpha_values_parse_to_the_kinds_they_stand_for(self):
        # Each alpha value overrides label_dist as the label_dist value it stands for would.
        alphas = ["mcd", "M", 2.0, 1]
        kinds = [{"tag": "mcd"}, "complementary", {"tag": "complementary", "alpha": 2.0},
                 {"tag": "complementary", "alpha": 1.0}]
        assert [cli._alpha(value, "a") for value in alphas] == [
            LabelDistributionKind("mcd"), LabelDistributionKind("complementary"),
            LabelDistributionKind("complementary", alpha=2.0), LabelDistributionKind("complementary", alpha=1.0)]
        configs = []
        for param, values in (("alpha", alphas), ("label_dist", kinds)):
            config = _missing_data_config("sweep")
            config["grid"] = {"param": param, "values": values}
            configs.append([run[2] for run in cli._runs(config, "sweep")["runs"]])
        assert configs[0] == configs[1]

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

    def test_utf8_whatever_the_locale(self, trained):
        # The config is read and the CSV written as UTF-8, also under the C
        # locale with locale coercion and UTF-8 mode off.
        config = {"command": "eval-ood", "name": "utf8", "checkpoint": "run_seed0.osnn",
                  "test": "task_test.osds",
                  "pools": [{"name": "gauß", "kind": "gaussian", "size": 50, "seed": 5}]}
        cfg = trained / "utf8.json"
        cfg.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained / "default")]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(open_rebalance.__file__).parents[1]),
                   LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run(
            [sys.executable, "-m", "open_rebalance.cli", "eval-ood", "--config", str(cfg),
             "--out", str(trained / "c")], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written = (trained / "c" / "utf8_ood.csv").read_bytes()
        assert written == (trained / "default" / "utf8_ood.csv").read_bytes()
        assert "gauß".encode() in written

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

    def test_nan_weight_fails_with_no_csv(self, trained, capsys):
        # One NaN weight makes every score NaN, which used to give fpr95 0.0,
        # auroc 0.5 and aupr 1.0.
        params = nn.load_params(trained / "run_seed0.osnn")
        params.layers[0][0][0, 0] = math.nan
        nn.save_params(params, trained / "nan.osnn")
        config = {"command": "eval-ood", "name": "nanrep", "checkpoint": "nan.osnn",
                  "test": "task_test.osds", "pools": [_GAUSS]}
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained / "nan")]) == 1
        assert capsys.readouterr().err == "error: in_scores holds a NaN\n"
        assert not (trained / "nan" / "nanrep_ood.csv").exists()

    def test_nan_test_scores_refused_before_any_pool(self, trained, capsys, monkeypatch):
        params = nn.load_params(trained / "run_seed0.osnn")
        params.layers[-1][1][0] = math.nan
        nn.save_params(params, trained / "nan.osnn")

        def build_pool(*args):
            pytest.fail("a pool was built after the test set scored NaN")

        monkeypatch.setattr(cli, "_build_pool", build_pool)
        config = {"command": "eval-ood", "name": "nanrep", "checkpoint": "nan.osnn",
                  "test": "task_test.osds", "pools": [_GAUSS, {**_GAUSS, "name": "h", "seed": 2}]}
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained / "nan")]) == 1
        assert capsys.readouterr().err == "error: in_scores holds a NaN\n"
        assert not (trained / "nan" / "nanrep_ood.csv").exists()

    def test_nan_pool_scores_name_the_pool(self, trained, capsys):
        # One NaN entry in a file pool beside a healthy generated pool.
        pool = data.read_pool(trained / "task_aux.osds")
        pool[3, 1] = math.nan
        data.write_pool(pool, trained / "nan_aux.osds")
        config = {"command": "eval-ood", "name": "nanpool", "checkpoint": "run_seed0.osnn",
                  "test": "task_test.osds",
                  "pools": [_GAUSS, {"name": "poisoned", "kind": "file", "path": "nan_aux.osds"}]}
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained / "nan")]) == 1
        assert capsys.readouterr().err == "error: pools[1]: out_scores holds a NaN\n"
        assert not (trained / "nan" / "nanpool_ood.csv").exists()

    def test_overflowing_generated_pool_names_the_pool(self, trained, capsys):
        # It used to score NaN behind numpy warnings and fail unnamed.
        huge = {"name": "huge", "kind": "gaussian", "size": 100, "seed": 4, "sigma": 1e308}
        config = {"command": "eval-ood", "name": "huge", "checkpoint": "run_seed0.osnn",
                  "test": "task_test.osds", "pools": [_GAUSS, huge]}
        cfg = write_config(trained / "ood.json", config)
        assert main(["eval-ood", "--config", str(cfg), "--out", str(trained / "huge")]) == 1
        err = capsys.readouterr().err
        assert err == "error: pools[1]: sigma 1e+308 overflows the pool (overflow encountered in multiply)\n", err
        assert not (trained / "huge" / "huge_ood.csv").exists()

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
            refs.append(weakref.ref(pool))
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
            means = data.gaussian_class_means(2, 5, 1.0, 0)
            data.write_dataset(data.gen_gaussian_classes(means, [3, 3], 1.0, seed=0),
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
             r"pools\[1\]: missing keys \['path'\]"),
            ({"pools": [_GAUSS, {**_GAUSS, "sigmaa": 2.0}]}, r"pools\[1\]: unknown keys"),
            ({"pools": [_GAUSS, {"name": "b", "kind": "blobs", "size": 10}]},
             r"pools\[1\]: missing keys \['seed'\]"),
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "shifted-mixture"}]},
             r"pools\[1\]: shifted-mixture pools need synthetic class means"),
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "perlin"}]}, r"pools\[1\]: unknown pool kind"),
            ({"pools": [_GAUSS, {**_GAUSS, "kind": "blobs", "window": 0}]},
             r"pools\[1\]\.window must be at least 1, got 0"),
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
             r"pools\[1\]: unknown keys \['clusters'\]"),
            # Two rows named p could not be told apart, and one named average
            # would read as the summary row.
            ({"pools": [{**_GAUSS, "name": "p"}, _GAUSS, {**_GAUSS, "name": "p", "seed": 2}]},
             r'pools\[2\]\.name must be none of \["average", "p", "g"\], got "p"\n'),
            ({"pools": [{**_GAUSS, "name": "average"}]},
             r'pools\[0\]\.name must be none of \["average"\], got "average"\n'),
        ],
        ids=["file-without-path", "key-typo", "no-seed", "shifted-mixture", "unknown-kind",
             "zero-window", "nan-sigma", "aupr-positive", "float-size", "bool-seed",
             "float-window", "negative-clusters", "repeated-name", "average-name"],
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

    def test_disjoint_rebalance_flips_nothing(self, tmp_path):
        # Auxiliary mass only on new instances scales every source row alike,
        # so no source instance changes its Bayes prediction; the same grid
        # over the source support flips some.
        def flips(disjoint):
            config = {"command": "bayes-check", "name": "grid", "seed": 5, "cases": 0,
                      "rebalance": {"counts": [60, 19, 6], "alphas": [0.8, 2.0, 5.0],
                                    "aux_sizes": [0, 100, 1e4], "disjoint": disjoint}}
            cfg = write_config(tmp_path / "bayes.json", config)
            assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            rows = json.loads((tmp_path / "grid_bayes.json").read_text())["rebalance"]["rows"]
            return [(r["flipped_count"], r["flipped_mass"]) for r in rows]

        assert flips(True) == [(0, 0.0)] * 9
        assert any(count for count, _ in flips(False))

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
            py[int(np.argmin(source.table.sum(axis=0)))] = 1.0
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

    @pytest.mark.parametrize("budget", ["one-case", "few", "one-block"])
    def test_report_bytes_same_for_any_block_budget(self, tmp_path, monkeypatch, budget):
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
        assert report(tmp_path / budget) == want

    @pytest.mark.parametrize("key", ["max_support", "max_classes"])
    def test_maximum_past_32_bits_refused(self, tmp_path, capsys, key):
        # Refused before any draw, so nothing 2**32 entries wide is allocated.
        config = {"command": "bayes-check", "name": "oracle", "seed": 1, "cases": 2, key: 2**32}
        cfg = write_config(tmp_path / "bayes.json", config)
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key} must be in [2, 2**32), got 4294967296\n"
        assert not list(tmp_path.rglob("*_bayes.json"))

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 28.7 GiB for an array with shape (3850000000,) and data type uint64",
         "error: out of memory: Unable to allocate 28.7 GiB for an array with shape (3850000000,) "
         "and data type uint64"),
        ("", "error: out of memory")], ids=["numpy", "bare"])
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, message, line):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        kind, _, help_text = cli._COMMANDS["bayes-check"]
        monkeypatch.setitem(cli._COMMANDS, "bayes-check", (kind, exhausted, help_text))
        cfg = write_config(tmp_path / "bayes.json", {"command": "bayes-check", "name": "oracle",
                                                     "seed": 1, "cases": 2})
        assert main(["bayes-check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == line + "\n"

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

    @pytest.mark.parametrize("key", ["mean_radius", "sigma", "aux.sigma", "aux.margin"])
    def test_negative_gaussian_scale(self, tmp_path, capsys, monkeypatch, key):
        # The data layer used to refuse the first two, after --out was made. A
        # negative pool sigma or margin used to pass and could put a cluster
        # centre inside the margin.
        config = synth_config()
        (config["aux"] if key.startswith("aux.") else config)[key.removeprefix("aux.")] = -1.0
        err = refused(tmp_path, capsys, monkeypatch, "synth", config,
                      f"synth.{key} must be at least 0, got -1.0")
        assert err == f"error: synth.{key} must be at least 0, got -1.0\n", err

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

    def test_eval_pool_sigma_negative(self, tmp_path, capsys, monkeypatch):
        config = {"command": "eval-ood", "name": "e", "checkpoint": "m.osnn", "test": "t.osds",
                  "pools": [_GAUSS, {**_GAUSS, "name": "h", "sigma": -1.0}]}
        refused(tmp_path, capsys, monkeypatch, "eval-ood", config,
                "eval-ood.pools[1].sigma must be at least 0, got -1.0")

    def test_pool_clusters_negative(self, tmp_path, capsys, monkeypatch):
        # Pool integers are JSON integers, never coerced.
        config = synth_config()
        config["aux"]["clusters"] = -2
        refused(tmp_path, capsys, monkeypatch, "synth", config,
                "synth.aux.clusters must be a non-negative integer, got -2")

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

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_alpha_below_max_beta(self, workspace, capsys, monkeypatch, command):
        # Used to fail once per run, and a sweep trained its good values and wrote its CSV first.
        config = train_config(seeds=(0, 1), extra={"label_dist": {"tag": "complementary", "alpha": 0.1}})
        refusal = "alpha=0.1 out of range: minimum admissible alpha is max beta = 0.7058823529411765"
        message = f"train.train.label_dist: {refusal}"
        if command == "sweep":
            del config["train"]["label_dist"]
            config.update(command="sweep", grid={"param": "alpha", "values": [2.0, 0.1]})
            message = f"sweep.train.label_dist: {refusal}, at grid.values[1]"
        monkeypatch.setattr(cli.train, "train_runs", lambda *args: pytest.fail("a run trained"))
        cfg = write_config(workspace / "bad.json", config)
        out = workspace / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

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
        "blob,reason",
        [(b'{"command": "train", "name": ', "invalid JSON: Expecting value: line 1 column 30"),
         (b'["train"]', "config must be a JSON object"),
         (b'{"command": "train", "name": "caf\xe9"}', "not UTF-8 text: 'utf-8' codec can't decode"),
         (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply to parse")],
        ids=["invalid-json", "not-an-object", "not-utf-8", "too-deep"],
    )
    def test_unreadable_config(self, tmp_path, capsys, monkeypatch, blob, reason):
        forbid_reads(monkeypatch)
        forbid_draws(monkeypatch)
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(blob)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out / "sub")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {reason}") and err.count("\n") == 1, err
        assert not out.exists()

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
# One pool spec per kind, each giving every key that its kind takes.
_POOL_SPECS = {
    "gaussian": {"kind": "gaussian", "size": 10, "seed": 1, "sigma": 1.0},
    "rademacher": {"kind": "rademacher", "size": 10, "seed": 1},
    "blobs": {"kind": "blobs", "size": 10, "seed": 1, "window": 3, "low": 0.0, "high": 1.0},
    "shifted-mixture": {"kind": "shifted-mixture", "size": 10, "seed": 1, "sigma": 1.0,
                        "margin": 2.0, "clusters": 2},
    "file": {"kind": "file", "size": 10, "path": "p.osds"},
}
# eval-ood has no class means to place a shifted-mixture pool by.
_EVAL_KINDS = ["gaussian", "rademacher", "blobs", "file"]
_SYNTH_BASE = {"command": "synth", "name": "s", "seed": 1, "classes": 3, "dim": 2,
               "mean_radius": 2.0, "sigma": 1.0, "train": {"n_max": 20, "ratio": 10.0},
               "test": {"per_class": 5}}
_SCHEMA_BASES = {
    "synth": [
        {**_SYNTH_BASE, "aux": _POOL_SPECS["gaussian"]},
        {"command": "synth", "name": "s", "seed": 1, "aux": _POOL_SPECS["gaussian"],
         "cifar": {"train_paths": ["a.bin"], "test_paths": ["b.bin"], "ratio": 10.0, "n_max": 5}},
        *({**_SYNTH_BASE, "aux": _POOL_SPECS[kind]}
          for kind in ("rademacher", "blobs", "shifted-mixture", "file")),
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
         "pools": [{"name": "g", **_POOL_SPECS[kind]}], "aupr_positive": "in"}
        for kind in _EVAL_KINDS
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
    cli._schedule: cli._SCHEDULE,
    cli._thresholds: [int],
    cli._RUNS["seeds"][0]: [int],
    cli._EVAL_OOD["pools"][0]: [cli._EVAL_POOL],
    cli._rebalance: cli._REBALANCE,
}


def _pool_keys(rule):
    """A pool rule's table: every key that some kind it takes has, as one table."""
    kinds = [kind for kind in cli._POOLS
             if kind != "shifted-mixture" or rule.keywords.get("class_means")]
    return {**rule.keywords.get("head", cli._KIND),
            **{key: sub for kind in kinds for key, sub in cli._POOLS[kind].items()}}


def _union(kind):
    if isinstance(kind, functools.partial) and kind.func is cli._pool:
        return _pool_keys(kind)
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


# The keys each pool kind takes, after gen_ood_pool's parameters; a file pool
# is read from its path and checked against any size it gives.
_KIND_KEYS = {
    "gaussian": {"size", "seed", "sigma"},
    "rademacher": {"size", "seed"},
    "blobs": {"size", "seed", "window", "low", "high"},
    "shifted-mixture": {"size", "seed", "sigma", "margin", "clusters"},
    "file": {"size", "path"},
}
_STRAY_VALUES = {"size": 10, "seed": 1, "sigma": 7.0, "window": 3, "low": 0.0, "high": 1.0,
                 "margin": 1.0, "clusters": 2, "path": "nowhere.osds"}


def _stray_key_cases(kinds):
    """(kind, key) for every kind and every key that some other kind takes."""
    return [pytest.param(kind, key, id=f"{kind}-{key}") for kind in kinds
            for key in sorted(set(_STRAY_VALUES) - _KIND_KEYS[kind])]


class TestPoolKeys:
    """A pool key that its kind does not take is refused as the config is parsed."""

    @pytest.mark.parametrize("kind,key", _stray_key_cases(_KIND_KEYS))
    def test_synth_aux(self, tmp_path, capsys, monkeypatch, kind, key):
        config = synth_config()
        config["aux"] = {**_POOL_SPECS[kind], key: _STRAY_VALUES[key]}
        err = refused(tmp_path, capsys, monkeypatch, "synth", config, "synth.aux")
        assert err == f"error: synth.aux: unknown keys ['{key}']\n", err

    @pytest.mark.parametrize("kind,key", _stray_key_cases(_EVAL_KINDS))
    def test_eval_ood_pool(self, tmp_path, capsys, monkeypatch, kind, key):
        config = {"command": "eval-ood", "name": "e", "checkpoint": "m.osnn", "test": "t.osds",
                  "pools": [_GAUSS, {"name": "p", **_POOL_SPECS[kind], key: _STRAY_VALUES[key]}]}
        err = refused(tmp_path, capsys, monkeypatch, "eval-ood", config, "eval-ood.pools[1]")
        assert err == f"error: eval-ood.pools[1]: unknown keys ['{key}']\n", err
