"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass. The directional experiments (criteria 7-9) share one
trained-model battery via a module-scoped fixture.
"""

import json
import time

import numpy as np
import pytest

from open_rebalance import data, metrics, nn, oracle, train
from open_rebalance.cli import main as cli_main
from open_rebalance.priors import (
    LabelDistributionKind,
    complementary,
    mixed_prior,
    prior_from_counts,
    required_aux_size,
)
from sweep_oracles import pairwise_auroc, random_score_sets, sweep_aupr, sweep_fpr95


def verdict(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc}{detail}")
    assert ok, f"criterion {num} failed: {desc}{detail}"


def random_prior(rng, k_low=2, k_high=20):
    while True:
        k = int(rng.integers(k_low, k_high + 1))
        counts = rng.integers(1, 1000, size=k)
        if counts.min() != counts.max():
            return prior_from_counts(counts)


# ---------------------------------------------------------------------------
# criteria 1-6: exact invariants and oracles


def test_criterion_01_complementary_rate_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        prior = random_prior(rng)
        k = prior.num_classes
        alpha = prior.max_beta + float(rng.uniform(0.0, 2.0))
        gam = complementary(prior, alpha)
        assert abs(gam.sum() - 1.0) < 1e-12
        assert np.all(gam >= 0.0)
        gam_mcd = complementary(prior, prior.max_beta)
        assert np.all(gam_mcd[prior.counts == prior.counts.max()] == 0.0)
        gam_flat = complementary(prior, 1e8)
        assert np.abs(gam_flat - 1.0 / k).max() < 1e-6
    elapsed = time.perf_counter() - t0
    verdict(1, "complementary-rate suite on 1000 random priors", elapsed < 1.0,
            f" ({elapsed:.2f}s)")


def test_criterion_02_bayes_invariance():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    cases = (
        oracle.random_case(rng, max_support=20, max_classes=10, disjoint=bool(i % 2))
        for i in range(1000)
    )
    flips = sum(not ok for ok, _ in oracle.bayes_invariance_checks(cases))
    elapsed = time.perf_counter() - t0
    verdict(2, "uniform-label mixing never flips the Bayes argmax",
            flips == 0 and elapsed < 5.0, f" ({flips} flips, {elapsed:.2f}s)")


def test_criterion_03_balance_identity():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(200):
        k = int(rng.integers(2, 11))
        counts = rng.integers(20, 5001, size=k)
        prior = prior_from_counts(counts)
        alpha = prior.max_beta + float(rng.uniform(0.0, 1.0))
        m = required_aux_size(prior, alpha)
        mixed = mixed_prior(prior, complementary(prior, alpha), m)
        ratio = float(mixed.max() / mixed.min())
        bound = 1.0 + k / (prior.total + m) + 1e-9
        worst = max(worst, ratio - bound)
        assert ratio <= bound
    elapsed = time.perf_counter() - t0
    verdict(3, "ceil-sized auxiliary allocation flattens the prior",
            worst <= 0.0 and elapsed < 1.0, f" (worst excess {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        hidden = int(rng.integers(0, 2)) * int(rng.integers(2, 9))
        params = nn.init_params(d, hidden, k, rng)
        batch = rng.standard_normal((int(rng.integers(2, 7)), d))
        labels = rng.integers(0, k, batch.shape[0])
        worst = max(worst, nn.grad_check(params, batch, labels, eps=1e-5))
    elapsed = time.perf_counter() - t0
    verdict(4, "analytic gradients match central differences",
            worst < 1e-5 and elapsed < 10.0, f" (max rel err {worst:.2e}, {elapsed:.2f}s)")


def _params_equal(a, b):
    return all(
        np.array_equal(w1, w2) and np.array_equal(b1, b2)
        for (w1, b1), (w2, b2) in zip(a.layers, b.layers)
    )


def test_criterion_05_reductions():
    train_ds = data.gen_gaussian_classes(3, 2, [30, 10, 4], 2.0, 1.0, seed=3, means_seed=99)
    test_ds = data.gen_gaussian_classes(3, 2, [20] * 3, 2.0, 1.0, seed=4, means_seed=99)
    means = data.gaussian_class_means(3, 2, 2.0, 99)
    pool = data.gen_ood_pool(
        "shifted-mixture", 300, 2, seed=5, class_means=means, margin=2.0, clusters=16
    )
    # (a) eta = 0 collapses to standard CE, bit-exactly
    std = train.train_run(
        train.TrainConfig(method="standard", epochs=5, seed=17, hidden_dim=4),
        train_ds, test_ds,
    )
    zero = train.train_run(
        train.TrainConfig(method="open-sampling", eta=0.0, epochs=5, seed=17, hidden_dim=4),
        train_ds, test_ds, pool,
    )
    bit_exact = _params_equal(std.final_params, zero.final_params) and all(
        a.train_loss == b.base_loss for a, b in zip(std.history, zero.history)
    )
    # (b) balanced softmax with equal counts reproduces standard CE per step
    rng = np.random.default_rng(505)
    balanced_prior = prior_from_counts([40, 40, 40, 40])
    worst = 0.0
    for _ in range(200):
        logits = rng.standard_normal((8, 4)) * 5.0
        labels = rng.integers(0, 4, 8)
        base, gbase = nn.softmax_xent(logits, labels)
        bal, gbal = nn.balanced_softmax_xent(logits, labels, balanced_prior)
        worst = max(worst, abs(base - bal), float(np.abs(gbase - gbal).max()))
    verdict(5, "eta=0 and equal-count reductions",
            bit_exact and worst < 1e-12,
            f" (bit-exact={bit_exact}, balanced-softmax dev {worst:.2e})")


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(606)
    transforms = (lambda x: 2.0 * x + 3.0, lambda x: x ** 3, lambda x: np.expm1(x))
    worst = 0.0
    invariant = True
    for _ in range(200):
        ins, outs = random_score_sets(rng, max_size=50)
        got = (
            metrics.fpr_at_95_tpr(ins, outs),
            metrics.auroc(ins, outs),
            metrics.aupr(ins, outs, positive="out"),
        )
        want = (
            sweep_fpr95(list(ins), list(outs)),
            pairwise_auroc(ins, outs),
            sweep_aupr([-s for s in outs], [-s for s in ins]),
        )
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
        for t in transforms:
            same = (
                metrics.fpr_at_95_tpr(t(np.asarray(ins)), t(np.asarray(outs))),
                metrics.auroc(t(np.asarray(ins)), t(np.asarray(outs))),
                metrics.aupr(t(np.asarray(ins)), t(np.asarray(outs)), positive="out"),
            )
            invariant = invariant and same == got
    verdict(6, "detection metrics match the exhaustive sweep oracle",
            worst <= 1e-12 and invariant,
            f" (max dev {worst:.2e}, monotone-invariant={invariant})")


# ---------------------------------------------------------------------------
# criteria 7-9: directional desk-scale experiments on a shared task


TASK = {
    "num_classes": 5,
    "dim": 16,
    "counts": (500, 158, 50, 16, 5),
    "mean_radius": 1.8,
    "sigma": 1.0,
    "geometry_seed": 7,
    "test_per_class": 100,
    "pool_size": 5000,
    "pool_margin": 2.0,
    "pool_clusters": 256,
    "hidden_dim": 8,
    "epochs": 120,
    "base_lr": 0.01,
    "eta": 1.5,
    "seeds": (0, 1, 2, 3, 4),
}


@pytest.fixture(scope="module")
def battery():
    """Train all labeling variants over 5 seeds on the frozen 5-class task."""
    t0 = time.perf_counter()
    k, d = TASK["num_classes"], TASK["dim"]
    geo = TASK["geometry_seed"]
    profile = data.longtail_counts(500, k, 100.0)
    assert profile.tolist() == list(TASK["counts"])
    train_ds = data.gen_gaussian_classes(
        k, d, profile, TASK["mean_radius"], TASK["sigma"],
        seed=geo * 10 + 1, means_seed=geo,
    )
    test_ds = data.gen_gaussian_classes(
        k, d, [TASK["test_per_class"]] * k, TASK["mean_radius"], TASK["sigma"],
        seed=geo * 10 + 2, means_seed=geo,
    )
    means = data.gaussian_class_means(k, d, TASK["mean_radius"], geo)
    pool = data.gen_ood_pool(
        "shifted-mixture", TASK["pool_size"], d, seed=geo * 10 + 3,
        class_means=means, margin=TASK["pool_margin"], clusters=TASK["pool_clusters"],
    )
    ood_pool = data.gen_ood_pool("gaussian", 1000, d, seed=907, sigma=3.0)

    schedule = nn.LrSchedule(
        warmup_epochs=5, milestones=(96, 108), decay_factor=0.1,
        total_epochs=TASK["epochs"],
    )
    variants = {
        "standard": None,
        "complementary": LabelDistributionKind.complementary(),
        "uniform": LabelDistributionKind.uniform(),
        "original-prior": LabelDistributionKind.original_prior(),
        "fixed-smallest": LabelDistributionKind.fixed_class(),
    }
    # Two batched calls: the standard seeds, then the 20 open-sampling runs,
    # each with its own label distribution.
    common = dict(
        epochs=TASK["epochs"], hidden_dim=TASK["hidden_dim"], base_lr=TASK["base_lr"],
        schedule=schedule,
    )
    standard = [
        train.TrainConfig(method="standard", seed=seed, **common) for seed in TASK["seeds"]
    ]
    relabeled = [
        train.TrainConfig(
            method="open-sampling", eta=TASK["eta"], label_dist=kind, seed=seed, **common
        )
        for kind in list(variants.values())[1:]
        for seed in TASK["seeds"]
    ]
    results = train.train_runs(standard, train_ds, test_ds) + train.train_runs(
        relabeled, train_ds, test_ds, [pool] * len(relabeled)
    )
    stats = {}
    for i, name in enumerate(variants):
        overall, minority, auroc_vals = [], [], []
        for result in results[i * len(TASK["seeds"]) : (i + 1) * len(TASK["seeds"])]:
            final = result.history[-1]
            per_class = np.array(final.test_per_class_acc)
            overall.append(final.test_overall_acc)
            minority.append(per_class[-2:].mean())
            in_scores = metrics.msp_scores(result.final_params, test_ds.features)
            out_scores = metrics.msp_scores(result.final_params, ood_pool.features)
            auroc_vals.append(metrics.auroc(in_scores, out_scores))
        stats[name] = {
            "overall": float(np.mean(overall)),
            "minority": float(np.mean(minority)),
            "auroc": float(np.mean(auroc_vals)),
        }
    stats["_elapsed"] = time.perf_counter() - t0
    return stats


def test_criterion_07_label_distribution_ordering(battery):
    comp = battery["complementary"]
    unif = battery["uniform"]
    orig = battery["original-prior"]
    std = battery["standard"]
    ok = (
        comp["overall"] >= unif["overall"]
        and unif["overall"] > orig["overall"]
        and comp["minority"] > std["minority"]
        and battery["_elapsed"] < 300.0
    )
    verdict(
        7, "complementary >= uniform > original-prior; minority beats standard", ok,
        f" (overall {comp['overall']:.3f}/{unif['overall']:.3f}/{orig['overall']:.3f}, "
        f"minority {comp['minority']:.3f} vs {std['minority']:.3f}, "
        f"{battery['_elapsed']:.0f}s)",
    )


def test_criterion_08_single_class_labeling_downgrades(battery):
    fixed = battery["fixed-smallest"]
    comp = battery["complementary"]
    verdict(
        8, "labeling every auxiliary point as the smallest class downgrades",
        fixed["overall"] < comp["overall"],
        f" ({fixed['overall']:.3f} < {comp['overall']:.3f})",
    )


def test_criterion_09_ood_detection_ordering(battery):
    comp = battery["complementary"]
    std = battery["standard"]
    verdict(
        9, "MSP AUROC improves over the standard baseline",
        comp["auroc"] > std["auroc"],
        f" ({comp['auroc']:.3f} > {std['auroc']:.3f})",
    )


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism


def _write(path, config):
    path.write_text(json.dumps(config))
    return path


def test_criterion_10_cli_determinism(tmp_path):
    synth = {
        "command": "synth", "name": "task", "seed": 3, "classes": 3, "dim": 2,
        "mean_radius": 2.0, "sigma": 1.0,
        "train": {"n_max": 40, "ratio": 10.0}, "test": {"per_class": 20},
        "aux": {"kind": "shifted-mixture", "size": 200, "margin": 2.0, "clusters": 8},
    }
    train_cfg = {
        "command": "train", "name": "run",
        "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
        "model": {"hidden_dim": 4},
        "train": {"method": "open-sampling", "epochs": 2,
                  "schedule": {"warmup_epochs": 1, "milestones": [], "decay_factor": 0.1}},
        "seeds": [0, 1],
    }
    sweep = {
        "command": "sweep", "name": "grid",
        "data": {"train": "task_train.osds", "test": "task_test.osds", "aux": "task_aux.osds"},
        "model": {"hidden_dim": 4},
        "train": {"method": "open-sampling", "epochs": 2},
        "grid": {"param": "eta", "values": [0.0, 1.5]},
        "seeds": [0],
    }
    eval_ood = {
        "command": "eval-ood", "name": "ood",
        "checkpoint": "run_seed0.osnn", "test": "task_test.osds",
        "pools": [{"name": "gauss", "kind": "gaussian", "size": 100, "seed": 5}],
    }
    bayes = {
        "command": "bayes-check", "name": "oracle", "seed": 1, "cases": 50,
        "one_hot_stress": {"cases": 5},
        "rebalance": {"counts": [40, 13, 4], "alphas": [0.8], "aux_sizes": [0, 50]},
    }
    outputs = []
    for trial in ("a", "b"):
        out = tmp_path / trial
        out.mkdir()
        assert cli_main(["synth", "--config", str(_write(out / "s.json", synth)), "--out", str(out)]) == 0
        assert cli_main(["train", "--config", str(_write(out / "t.json", train_cfg)), "--out", str(out)]) == 0
        assert cli_main(["sweep", "--config", str(_write(out / "w.json", sweep)), "--out", str(out)]) == 0
        assert cli_main(["eval-ood", "--config", str(_write(out / "e.json", eval_ood)), "--out", str(out)]) == 0
        assert cli_main(["bayes-check", "--config", str(_write(out / "b.json", bayes)), "--out", str(out)]) == 0
        outputs.append(out)
    a_dir, b_dir = outputs
    compared = 0
    identical = True
    for fa in sorted(a_dir.iterdir()):
        if fa.suffix not in (".csv", ".osds", ".osnn") and not fa.name.endswith(".json"):
            continue
        if fa.name in ("s.json", "t.json", "w.json", "e.json", "b.json"):
            continue
        fb = b_dir / fa.name
        compared += 1
        identical = identical and fb.exists() and fa.read_bytes() == fb.read_bytes()
    verdict(10, "re-running every command is byte-identical",
            identical and compared >= 12, f" ({compared} files compared)")
