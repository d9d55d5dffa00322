"""The benchmark's workloads: input generation, measured CLI commands, checks.

Every workload drives the program only through ``open_rebalance.cli.main``
with CLI defaults and no ``--jobs``. ``setup`` writes the inputs and the
configs of the measured commands into ``inputs``; it is a deterministic
function of the workload seed, so repeating it rewrites identical bytes.
Each measured command writes into ``out``. ``check`` then verifies the
outputs and returns one (name, ok) pair per output check.

Sizes are chosen so one repeat takes about a second on a 2-core machine and
several repeats fit into one benchmark run.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# The README/acceptance long-tailed task: K=5, d=16, counts 500..5 (729
# training samples) and a 5,000-point shifted-mixture auxiliary pool.
LT5_SYNTH = {
    "command": "synth", "name": "lt5", "classes": 5, "dim": 16,
    "mean_radius": 1.8, "sigma": 1.0,
    "train": {"n_max": 500, "ratio": 100.0},
    "test": {"per_class": 100},
    "aux": {"kind": "shifted-mixture", "size": 5000, "margin": 2.0, "clusters": 256},
}
LT5_DATA = {"train": "lt5_train.osds", "test": "lt5_test.osds", "aux": "lt5_aux.osds"}
SWEEP_EPOCHS = 10

CIFAR_RECORDS = 2000  # per batch; one train batch and one test batch
CIFAR_POOL = 2000     # samples in each OOD pool
CIFAR_DIM = 3072

BAYES_CASES = 1500
BAYES_STRESS = 100


class Failure(Exception):
    """An output check that did not hold."""


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1))
    return path


def _reject_constant(name):
    raise Failure(f"non-standard JSON constant {name}")


def read_json(path: Path):
    """Strict JSON: NaN and +-Infinity are refused."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        reader = csv.reader(f, strict=True)
        header = next(reader)
        rows = list(reader)
    for row in rows:
        if len(row) != len(header):
            raise Failure(f"{path.name}: row of {len(row)} fields, header has {len(header)}")
    return [dict(zip(header, row)) for row in rows]


def _unit(value: str) -> bool:
    return 0.0 <= float(value) <= 1.0


class Workload:
    name = ""
    why = ""
    work_command = ""  # the command whose time ``work`` is divided by
    work_unit = ""

    def setup(self, cli, inputs: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self, inputs: Path) -> list[tuple[str, Path]]:
        raise NotImplementedError

    def work(self, inputs: Path) -> int:
        """Units of work in one repeat (train steps, samples or cases)."""
        raise NotImplementedError

    def check(self, inputs: Path, out: Path) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def points(self, inputs: Path) -> int:
        """Sweep points (per-run operations) one repeat attempts."""
        return 0


def _run_checks(checks) -> list[tuple[str, bool]]:
    results = []
    for name, fn in checks:
        try:
            ok = bool(fn())
        except (Failure, OSError, ValueError, KeyError, StopIteration, csv.Error):
            ok = False
        results.append((name, ok))
    return results


class Sweep(Workload):
    work_command = "sweep"
    work_unit = "train steps"

    def __init__(self, name, why, train, param, values, n_seeds):
        self.name, self.why = name, why
        self.train, self.param, self.values, self.n_seeds = train, param, values, n_seeds

    def setup(self, cli, inputs, seed):
        synth = write_json(inputs / "synth.json", {**LT5_SYNTH, "seed": seed})
        if cli(["synth", "--config", str(synth), "--out", str(inputs)]) != 0:
            raise RuntimeError("setup: lt5 synth failed")
        write_json(inputs / "sweep.json", {
            "command": "sweep", "name": self.name, "data": LT5_DATA,
            "model": {"hidden_dim": 8},
            "train": {**self.train, "epochs": SWEEP_EPOCHS, "base_lr": 0.01},
            "grid": {"param": self.param, "values": self.values},
            "seeds": [seed * 10 + i for i in range(self.n_seeds)],
        })

    def commands(self, inputs):
        return [("sweep", inputs / "sweep.json")]

    def points(self, inputs):
        return len(self.values) * self.n_seeds

    def work(self, inputs):
        n_train = sum(read_json(inputs / "lt5_manifest.json")["train_counts"])
        return self.points(inputs) * SWEEP_EPOCHS * math.ceil(n_train / 32)  # batch_train 32

    def check(self, inputs, out):
        config = read_json(inputs / "sweep.json")
        path = out / f"{self.name}_sweep.csv"

        def shape():
            rows = read_csv(path)
            per_point = [r for r in rows if r["seed"] != ""]
            summary = [r for r in rows if r["seed"] == ""]
            return (len(per_point) == len(self.values) * self.n_seeds
                    and len(summary) == len(self.values)
                    and all(r["param"] == self.param for r in rows))

        def accuracies():
            rows = read_csv(path)
            return all(_unit(r["overall_acc"]) for r in rows if r["seed"] != "") and all(
                _unit(r["mean_acc"]) for r in rows if r["seed"] == "")

        def seeds():
            rows = read_csv(path)
            want = sorted(config["seeds"] * len(self.values))
            return sorted(int(r["seed"]) for r in rows if r["seed"] != "") == want

        return _run_checks([("sweep_csv_shape", shape), ("sweep_csv_accuracy", accuracies),
                            ("sweep_csv_seeds", seeds)])


class CifarOod(Workload):
    name = "cifar-ood"
    why = ("CIFAR-shaped d=3072: dataset I/O, BLAS-bound training and MSP "
           "detection metrics, with little per-step Python overhead")
    work_command = "eval-ood"
    work_unit = "samples scored"

    def setup(self, cli, inputs, seed):
        rng = np.random.default_rng([seed, 0xC1FA])
        means = rng.uniform(60.0, 196.0, size=(10, CIFAR_DIM))
        for name in ("data_batch_1.bin", "test_batch.bin"):
            labels = rng.integers(0, 10, size=CIFAR_RECORDS)
            pixels = means[labels] + 40.0 * rng.standard_normal((CIFAR_RECORDS, CIFAR_DIM))
            records = np.empty((CIFAR_RECORDS, CIFAR_DIM + 1), dtype=np.uint8)
            records[:, 0] = labels
            records[:, 1:] = np.clip(np.rint(pixels), 0, 255)
            (inputs / name).write_bytes(records.tobytes())
        write_json(inputs / "synth.json", {
            "command": "synth", "name": "c10", "seed": seed,
            "cifar": {"train_paths": ["data_batch_1.bin"], "test_paths": ["test_batch.bin"],
                      "ratio": 10.0},
            "aux": {"kind": "gaussian", "size": CIFAR_POOL, "sigma": 0.3},
        })
        write_json(inputs / "train.json", {
            "command": "train", "name": "c10os",
            "data": {"train": "../out/c10_train.osds", "test": "../out/c10_test.osds",
                     "aux": "../out/c10_aux.osds"},
            "model": {"hidden_dim": 16},
            "train": {"method": "open-sampling", "eta": 1.5, "epochs": 2, "base_lr": 0.01},
            "seeds": [seed],
        })
        write_json(inputs / "eval.json", {
            "command": "eval-ood", "name": "c10os",
            "checkpoint": f"../out/c10os_seed{seed}.osnn",
            "test": "../out/c10_test.osds",
            "pools": [
                {"name": "aux-file", "kind": "file", "path": "../out/c10_aux.osds"},
                {"name": "rademacher", "kind": "rademacher", "size": CIFAR_POOL,
                 "seed": seed * 10 + 1},
                {"name": "blobs", "kind": "blobs", "size": CIFAR_POOL, "seed": seed * 10 + 2},
            ],
        })

    def commands(self, inputs):
        return [("synth", inputs / "synth.json"), ("train", inputs / "train.json"),
                ("eval-ood", inputs / "eval.json")]

    def work(self, inputs):
        return CIFAR_RECORDS + 3 * CIFAR_POOL

    def check(self, inputs, out):
        seed = read_json(inputs / "train.json")["seeds"][0]

        def manifest():
            m = read_json(out / "c10_manifest.json")
            return m["dim"] == CIFAR_DIM and m["aux_size"] == CIFAR_POOL and sum(
                m["test_counts"]) == CIFAR_RECORDS

        def result():
            r = read_json(out / f"c10os_seed{seed}_result.json")
            return len(r["history"]) == 2 and _unit(r["final"]["overall_acc"])

        def epochs():
            return len(read_csv(out / f"c10os_seed{seed}_epochs.csv")) == 2

        def checkpoint():
            return (out / f"c10os_seed{seed}.osnn").stat().st_size > 0

        def detection():
            rows = read_csv(out / "c10os_ood.csv")
            return [r["pool"] for r in rows] == ["aux-file", "rademacher", "blobs", "average"] \
                and all(_unit(r[k]) for r in rows for k in ("fpr95", "auroc", "aupr"))

        return _run_checks([("synth_manifest", manifest), ("train_result_json", result),
                            ("train_epochs_csv", epochs), ("train_checkpoint", checkpoint),
                            ("ood_metrics_in_unit_interval", detection)])


class BayesOracle(Workload):
    name = "bayes-oracle"
    why = ("exact Bayes-mixture checks: random invariance cases, one-hot "
           "stress and a rebalance grid exercise the oracle module alone")
    work_command = "bayes-check"
    work_unit = "oracle cases"

    def setup(self, cli, inputs, seed):
        write_json(inputs / "bayes.json", {
            "command": "bayes-check", "name": "oracle", "seed": seed,
            "cases": BAYES_CASES, "max_support": 20, "max_classes": 10,
            "one_hot_stress": {"cases": BAYES_STRESS, "m_scale": 100.0},
            "rebalance": {
                "counts": [500, 158, 50, 16, 5],
                "alphas": [0.7, 0.8, 1.0, 2.0, 10.0],
                "aux_sizes": [0, 500, 1796, 5000, 20000],
                "support": 16,
            },
        })

    def commands(self, inputs):
        return [("bayes-check", inputs / "bayes.json")]

    def work(self, inputs):
        return BAYES_CASES + BAYES_STRESS

    def check(self, inputs, out):
        path = out / "oracle_bayes.json"

        def uniform():
            u = read_json(path)["uniform"]
            return u["cases"] == BAYES_CASES and u["violations"] == 0

        def stress():
            return read_json(path)["one_hot_stress"]["random_cases"] == BAYES_STRESS

        def rebalance():
            return len(read_json(path)["rebalance"]["rows"]) == 25

        return _run_checks([("bayes_uniform_no_violations", uniform),
                            ("bayes_stress_section", stress),
                            ("bayes_rebalance_grid", rebalance)])


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep-eta",
              "open-sampling over eta x 3 seeds on the lt5 task: per-step nn/train "
              "overhead with an auxiliary minibatch on every step",
              {"method": "open-sampling"}, "eta", [0.0, 0.5, 1.5, 5.0], 3),
        Sweep("sweep-methods",
              "all six methods x 2 seeds on the lt5 task: half the runs have no "
              "auxiliary batch, so open-sampling-only speed-ups show as no change",
              {"method": "standard", "eta": 1.5}, "method",
              ["standard", "open-sampling", "cb-rw", "balanced-softmax", "oe",
               "balanced-softmax+open-sampling"], 2),
        CifarOod(),
        BayesOracle(),
    )
}
