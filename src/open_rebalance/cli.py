"""Batch experiment runner: config-driven dataset synthesis, training,
sweeps, OOD evaluation, and the exact Bayes-mixture checks.

One JSON config per invocation, with a top-level "command" field matching
the subcommand. Unknown keys are rejected so typos cannot silently change a
run. Re-running a command with the same config produces byte-identical
CSV/JSON outputs; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import data, metrics, nn, oracle, train
from .priors import LabelDistributionKind, complementary, mcd, prior_from_counts

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Raised when a config document is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# config plumbing


def _check_keys(obj: dict, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_config(path: Path, expected_command: str) -> dict:
    def reject(constant):
        raise ConfigError(f"{path}: non-finite number {constant} is not allowed")

    try:
        with open(path) as f:
            config = json.load(f, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    command = config.get("command")
    if command != expected_command:
        raise ConfigError(
            f"{path}: config command {command!r} does not match subcommand "
            f"{expected_command!r}"
        )
    return config


def _sanitize(value):
    """Make a structure JSON-safe: numpy scalars to Python, NaN and +-inf to None."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(obj: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_sanitize(obj), f, sort_keys=True, indent=2, allow_nan=False)
        f.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# synth


_AUX_KEYS = ("kind", "size", "seed", "sigma", "margin", "clusters", "window", "low", "high", "path")


def _check_pool_spec(spec: dict, where: str, has_class_means: bool) -> None:
    kind = spec["kind"]
    if kind not in data.OOD_KINDS:
        raise ConfigError(f"{where}: unknown pool kind {kind!r}, expected one of {data.OOD_KINDS}")
    if kind == "file" and "path" not in spec:
        raise ConfigError(f"{where}: file pools need a path")
    if kind == "shifted-mixture" and not has_class_means:
        raise ConfigError(f"{where}: shifted-mixture pools need synthetic class means")


def _pool_kwargs(spec: dict) -> dict:
    keys = ("sigma", "margin", "clusters", "window", "low", "high")
    return {key: spec[key] for key in keys if spec.get(key) is not None}


def _build_pool(spec: dict, where: str, dim: int, base_seed, class_means, base_dir: Path):
    _check_pool_spec(spec, where, class_means is not None)
    kind = spec["kind"]
    if kind == "file":
        return data.read_pool(base_dir / spec["path"])
    kwargs = _pool_kwargs(spec)
    if kind == "shifted-mixture":
        kwargs["class_means"] = class_means
    seed = spec.get("seed")
    return data.gen_ood_pool(
        kind, int(spec["size"]), dim, base_seed if seed is None else int(seed), **kwargs
    )


def cmd_synth(config: dict, base_dir: Path, out_dir: Path) -> list:
    _check_keys(
        config,
        "synth",
        required=("command", "name", "seed"),
        optional=("classes", "dim", "mean_radius", "sigma", "train", "test", "aux", "cifar"),
    )
    name = config["name"]
    seed = int(config["seed"])
    chash = _config_hash(config)
    manifest: dict = {"name": name, "seed": seed, "config_hash": chash, "files": {}}

    class_means = None
    if "cifar" in config:
        clash = [k for k in ("classes", "dim", "mean_radius", "sigma", "train", "test") if k in config]
        if clash:
            raise ConfigError(f"synth: cifar source conflicts with keys {clash}")
        spec = config["cifar"]
        _check_keys(spec, "synth.cifar", required=("train_paths",), optional=("test_paths", "ratio", "n_max"))
        full = data.read_cifar10_binary([base_dir / p for p in spec["train_paths"]])
        ratio = float(spec.get("ratio", 1.0))
        n_max = int(spec.get("n_max", full.class_counts().min()))
        profile = data.longtail_counts(n_max, full.num_classes, ratio)
        train_ds = data.subsample_longtail(full, profile, seed)
        test_ds = None
        if spec.get("test_paths"):
            test_ds = data.read_cifar10_binary([base_dir / p for p in spec["test_paths"]])
        manifest["profile"] = {"ratio": ratio, "base": n_max}
    else:
        for key in ("classes", "dim", "train", "test"):
            if key not in config:
                raise ConfigError(f"synth: missing key {key!r} (required without cifar)")
        k = int(config["classes"])
        dim = int(config["dim"])
        mean_radius = float(config.get("mean_radius", 3.0))
        sigma = float(config.get("sigma", 1.0))
        _check_keys(config["train"], "synth.train", required=("n_max", "ratio"))
        _check_keys(config["test"], "synth.test", required=("per_class",))
        profile = data.longtail_counts(
            int(config["train"]["n_max"]), k, float(config["train"]["ratio"])
        )
        class_means = data.gaussian_class_means(k, dim, mean_radius, seed)
        train_ds = data.gen_gaussian_classes(
            k, dim, profile.counts, mean_radius, sigma, seed=seed * 10 + 1, means_seed=seed
        )
        per_test = int(config["test"]["per_class"])
        test_ds = data.gen_gaussian_classes(
            k, dim, [per_test] * k, mean_radius, sigma, seed=seed * 10 + 2, means_seed=seed
        )
        manifest["profile"] = {"ratio": profile.ratio, "base": profile.base}

    train_path = out_dir / f"{name}_train.osds"
    data.write_dataset(train_ds, train_path)
    manifest["files"]["train"] = train_path.name
    manifest["train_counts"] = train_ds.class_counts()
    manifest["classes"] = train_ds.num_classes
    manifest["dim"] = train_ds.dim
    if test_ds is not None:
        test_path = out_dir / f"{name}_test.osds"
        data.write_dataset(test_ds, test_path)
        manifest["files"]["test"] = test_path.name
        manifest["test_counts"] = test_ds.class_counts()

    if "aux" in config:
        _check_keys(config["aux"], "synth.aux", required=("kind", "size"), optional=_AUX_KEYS)
        pool = _build_pool(
            config["aux"], "synth.aux", train_ds.dim, seed * 10 + 3, class_means, base_dir
        )
        aux_path = out_dir / f"{name}_aux.osds"
        data.write_pool(pool, aux_path)
        manifest["files"]["aux"] = aux_path.name
        manifest["aux_size"] = len(pool)
        manifest["aux_kind"] = pool.kind

    _write_json(manifest, out_dir / f"{name}_manifest.json")
    return []


# ---------------------------------------------------------------------------
# train


_TRAIN_KEYS = (
    "method",
    "eta",
    "alpha",
    "label_dist",
    "use_class_weights",
    "fixed_labels",
    "beta_cb",
    "epochs",
    "batch_train",
    "batch_aux",
    "base_lr",
    "momentum",
    "weight_decay",
    "schedule",
)


def _parse_label_dist(spec) -> LabelDistributionKind:
    if isinstance(spec, str):
        return LabelDistributionKind(tag=spec)
    _check_keys(spec, "label_dist", required=("tag",), optional=("alpha", "beta_cb", "class_index"))
    return LabelDistributionKind(
        tag=spec["tag"],
        alpha=spec.get("alpha"),
        beta_cb=spec.get("beta_cb"),
        class_index=spec.get("class_index"),
    )


def _parse_schedule(spec, epochs: int) -> nn.LrSchedule:
    _check_keys(spec, "schedule", required=(), optional=("warmup_epochs", "milestones", "decay_factor"))
    return nn.LrSchedule(
        warmup_epochs=int(spec.get("warmup_epochs", 0)),
        milestones=tuple(int(m) for m in spec.get("milestones", ())),
        decay_factor=float(spec.get("decay_factor", 0.01)),
        total_epochs=max(epochs, 1),
    )


def _parse_train_config(section: dict, hidden_dim: int, seed: int) -> train.TrainConfig:
    _check_keys(section, "train", required=("method",), optional=_TRAIN_KEYS)
    kwargs = {k: section[k] for k in _TRAIN_KEYS if k in section and section[k] is not None}
    if "label_dist" in kwargs:
        kwargs["label_dist"] = _parse_label_dist(kwargs["label_dist"])
    epochs = int(kwargs.get("epochs", 40))
    if "schedule" in kwargs:
        kwargs["schedule"] = _parse_schedule(kwargs["schedule"], epochs)
    return train.TrainConfig(hidden_dim=hidden_dim, seed=seed, **kwargs)


def _load_data_section(section: dict, base_dir: Path):
    _check_keys(section, "data", required=("train", "test"), optional=("aux",))
    train_ds = data.read_dataset(base_dir / section["train"])
    test_ds = data.read_dataset(base_dir / section["test"])
    aux = data.read_pool(base_dir / section["aux"]) if section.get("aux") else None
    return train_ds, test_ds, aux


def _hidden_dim(config: dict) -> int:
    model = config.get("model", {})
    _check_keys(model, "model", required=(), optional=("hidden_dim",))
    return int(model.get("hidden_dim", 0))


def _result_payload(config, chash, name, seed, result, train_ds, thresholds):
    final = result.history[-1] if result.history else None
    per_class = list(final.test_per_class_acc) if final else None
    group = (
        metrics.group_accuracy(per_class, train_ds.class_counts(), thresholds)
        if final
        else None
    )
    return {
        "name": name,
        "seed": seed,
        "config_hash": chash,
        "config": config,
        "final": {
            "overall_acc": final.test_overall_acc if final else None,
            "per_class_acc": per_class,
            "group_acc": group,
        },
        "history": [
            {
                "epoch": rec.epoch,
                "lr": rec.lr,
                "total_loss": rec.train_loss,
                "base_loss": rec.base_loss,
                "aux_loss": rec.aux_loss,
                "overall_acc": rec.test_overall_acc,
            }
            for rec in result.history
        ],
    }


def _epoch_rows(result, chash):
    rows = []
    for rec in result.history:
        rows.append(
            [rec.epoch, rec.lr, rec.train_loss, rec.base_loss, rec.aux_loss,
             rec.test_overall_acc]
            + [("" if math.isnan(a) else a) for a in rec.test_per_class_acc]
            + [chash]
        )
    return rows


def cmd_train(config: dict, base_dir: Path, out_dir: Path) -> list:
    _check_keys(
        config,
        "train",
        required=("command", "name", "data", "train", "seeds"),
        optional=("model", "group_thresholds"),
    )
    name = config["name"]
    chash = _config_hash(config)
    train_ds, test_ds, aux = _load_data_section(config["data"], base_dir)
    hidden = _hidden_dim(config)
    thresholds = tuple(config.get("group_thresholds", metrics.GROUP_THRESHOLDS))
    seeds = [int(s) for s in config["seeds"]]
    if not seeds:
        raise ConfigError("train: seeds must be non-empty")

    failures = []
    results = _train_points(
        seeds,
        lambda seed: (_parse_train_config(config["train"], hidden, seed), aux),
        lambda seed: f"{name}_seed{seed}",
        train_ds, test_ds, failures,
    )
    k = train_ds.num_classes
    header = (
        ["epoch", "lr", "total_loss", "base_loss", "aux_loss", "overall_acc"]
        + [f"acc_class_{j}" for j in range(k)]
        + ["config_hash"]
    )
    for seed, result in zip(seeds, results):
        if result is None:
            continue
        payload = _result_payload(config, chash, name, seed, result, train_ds, thresholds)
        payload["checkpoint"] = f"{name}_seed{seed}.osnn"
        _write_json(payload, out_dir / f"{name}_seed{seed}_result.json")
        _write_csv(out_dir / f"{name}_seed{seed}_epochs.csv", header, _epoch_rows(result, chash))
        nn.save_params(result.final_params, out_dir / f"{name}_seed{seed}.osnn")
    return failures


# ---------------------------------------------------------------------------
# sweep


_GRID_PARAMS = ("eta", "alpha", "label_dist", "method", "aux_size")


def _apply_grid_value(section: dict, param: str, value):
    updated = dict(section)
    if param == "eta":
        updated["eta"] = float(value)
    elif param == "alpha":
        if value == "M":
            updated["alpha"] = None
            updated["label_dist"] = {"tag": "complementary"}
        elif value == "mcd":
            updated["alpha"] = None
            updated["label_dist"] = {"tag": "mcd"}
        else:
            updated["alpha"] = float(value)
            updated["label_dist"] = {"tag": "complementary", "alpha": float(value)}
    elif param == "label_dist":
        updated["label_dist"] = value
    elif param == "method":
        updated["method"] = value
        if value not in ("open-sampling", "balanced-softmax+open-sampling"):
            updated.pop("label_dist", None)
            updated.pop("alpha", None)
            updated.pop("fixed_labels", None)
    return updated


def cmd_sweep(config: dict, base_dir: Path, out_dir: Path) -> list:
    _check_keys(
        config,
        "sweep",
        required=("command", "name", "data", "train", "grid", "seeds"),
        optional=("model", "group_thresholds"),
    )
    _check_keys(config["grid"], "grid", required=("param", "values"))
    param = config["grid"]["param"]
    values = config["grid"]["values"]
    if param not in _GRID_PARAMS:
        raise ConfigError(f"grid.param must be one of {_GRID_PARAMS}, got {param!r}")
    if not values:
        raise ConfigError("grid.values must be non-empty")
    seeds = [int(s) for s in config["seeds"]]
    if not seeds:
        raise ConfigError("sweep: seeds must be non-empty")

    name = config["name"]
    chash = _config_hash(config)
    train_ds, test_ds, aux = _load_data_section(config["data"], base_dir)
    hidden = _hidden_dim(config)
    thresholds = tuple(config.get("group_thresholds", metrics.GROUP_THRESHOLDS))
    train_counts = train_ds.class_counts()

    points = [(value, seed) for value in values for seed in seeds]

    def prepare(point):
        value, seed = point
        pool = aux
        if param == "aux_size":
            size = int(value)
            if pool is None or size < 1 or size > len(pool):
                raise ValueError(f"aux_size {size} not available (pool of {0 if pool is None else len(pool)})")
            # A row prefix of the pool, so every aux_size trains in one stack.
            pool = data.AuxiliaryPool(features=pool.features[:size], kind=pool.kind)
            section = config["train"]
        else:
            section = _apply_grid_value(config["train"], param, value)
        return _parse_train_config(section, hidden, seed), pool

    failures = []
    results = _train_points(
        points, prepare, lambda p: f"{name}[{param}={p[0]},seed={p[1]}]",
        train_ds, test_ds, failures,
    )

    header = ["param", "value", "seed", "overall_acc", "few_acc", "mean_acc", "std_acc", "config_hash"]
    rows = []
    pos = 0
    for value in values:
        shown = value if isinstance(value, (int, float, str)) else json.dumps(value, sort_keys=True)
        accs = []
        for seed in seeds:
            result = results[pos]
            pos += 1
            if result is None:
                continue
            final = result.history[-1]
            group = metrics.group_accuracy(final.test_per_class_acc, train_counts, thresholds)
            accs.append(final.test_overall_acc)
            rows.append(
                [param, shown, seed, final.test_overall_acc, group["few"], None, None, chash]
            )
        if accs:
            rows.append(
                [param, shown, None, None, None,
                 float(np.mean(accs)), float(np.std(accs)), chash]
            )
    _write_csv(out_dir / f"{name}_sweep.csv", header, rows)
    return failures


# ---------------------------------------------------------------------------
# eval-ood


def cmd_eval_ood(config: dict, base_dir: Path, out_dir: Path) -> list:
    _check_keys(
        config,
        "eval-ood",
        required=("command", "name", "checkpoint", "test", "pools"),
        optional=("aupr_positive",),
    )
    name = config["name"]
    chash = _config_hash(config)
    positive = config.get("aupr_positive", "out")
    if positive not in ("in", "out"):
        raise ConfigError(f"eval-ood: aupr_positive must be 'in' or 'out', got {positive!r}")
    pools = config["pools"]
    if not pools:
        raise ConfigError("eval-ood: need at least one pool")
    # Every spec is checked before any pool is built or scored.
    for i, spec in enumerate(pools):
        _check_keys(spec, f"pools[{i}]", required=("name", "kind"), optional=_AUX_KEYS)
        _check_pool_spec(spec, f"pools[{i}]", has_class_means=False)
        if spec["kind"] != "file":
            if "size" not in spec or "seed" not in spec:
                raise ConfigError(f"pools[{i}]: generated pools need size and seed")
            try:
                data.check_pool_params(int(spec["size"]), **_pool_kwargs(spec))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"pools[{i}]: {exc}") from exc
    params = nn.load_params(base_dir / config["checkpoint"])
    test_ds = data.read_dataset(base_dir / config["test"])
    if test_ds.dim != params.input_dim:
        raise ConfigError(
            f"test dimension {test_ds.dim} does not match checkpoint input {params.input_dim}"
        )
    in_scores = metrics.msp_scores(params, test_ds.features)

    rows = []
    triples = []
    for i, spec in enumerate(pools):
        pool = _build_pool(spec, f"pools[{i}]", test_ds.dim, None, None, base_dir)
        if pool.dim != test_ds.dim:
            raise ConfigError(f"pools[{i}]: dimension {pool.dim} != test {test_ds.dim}")
        out_scores = metrics.msp_scores(params, pool.features)
        triple = (
            metrics.fpr_at_95_tpr(in_scores, out_scores),
            metrics.auroc(in_scores, out_scores),
            metrics.aupr(in_scores, out_scores, positive=positive),
        )
        triples.append(triple)
        rows.append([spec["name"], *triple, positive, chash])
    avg = np.mean(np.asarray(triples), axis=0)
    rows.append(["average", *[float(v) for v in avg], positive, chash])
    _write_csv(
        out_dir / f"{name}_ood.csv",
        ["pool", "fpr95", "auroc", "aupr", "aupr_positive", "config_hash"],
        rows,
    )
    return []


# ---------------------------------------------------------------------------
# bayes-check


def _constructed_toxic_case():
    # Two overlapping instances; dumping one-hot minority mass flips row 0.
    source = oracle.DiscreteJoint(table=np.array([[0.45, 0.05], [0.05, 0.45]]))
    ood = oracle.OodMarginal(px=np.array([0.5, 0.5]), py=np.array([0.0, 1.0]))
    return source, ood


def cmd_bayes_check(config: dict, base_dir: Path, out_dir: Path) -> list:
    _check_keys(
        config,
        "bayes-check",
        required=("command", "name", "seed", "cases"),
        optional=("max_support", "max_classes", "one_hot_stress", "rebalance"),
    )
    name = config["name"]
    chash = _config_hash(config)
    rng = np.random.default_rng([int(config["seed"]), 0xBA4E5])
    cases = int(config["cases"])
    max_support = int(config.get("max_support", 20))
    max_classes = int(config.get("max_classes", 10))

    draws = (
        oracle.random_case(rng, max_support, max_classes, disjoint=bool(i % 2))
        for i in range(cases)
    )
    violating = [
        {"case": i, "instances": bad}
        for i, (ok, bad) in enumerate(oracle.bayes_invariance_checks(draws))
        if not ok
    ]
    report = {
        "name": name,
        "config_hash": chash,
        "uniform": {
            "cases": cases,
            "violations": len(violating),
            "violating_cases": violating,
        },
    }

    if "one_hot_stress" in config:
        spec = config["one_hot_stress"]
        _check_keys(spec, "one_hot_stress", required=("cases",), optional=("m_scale",))
        m_scale = float(spec.get("m_scale", 100.0))
        source, ood = _constructed_toxic_case()
        flips, mass = oracle.toxicity_count(source, ood, 1.0, 10.0)
        mixed = oracle.mix(source, ood, 1.0, 10.0)
        instances = oracle.flipped_instances(source, mixed).tolist()
        n_stress = int(spec["cases"])

        def stress_case():
            # All the auxiliary labels on the case's rarest class.
            src, px, n, m = oracle.random_case(rng, max_support, max_classes)
            py = np.zeros(src.num_classes)
            py[int(np.argmin(src.label_marginal()))] = 1.0
            return src, oracle.OodMarginal(px=np.asarray(px), py=py), n, m * m_scale

        counts = [cnt for cnt, _ in oracle.toxicity_counts(stress_case() for _ in range(n_stress))]
        random_flipped = sum(cnt > 0 for cnt in counts)
        total_flips = sum(counts)
        report["one_hot_stress"] = {
            "constructed_flips": flips,
            "constructed_mass": mass,
            "constructed_instances": instances,
            "random_cases": n_stress,
            "random_cases_with_flips": random_flipped,
            "total_flips": total_flips,
        }

    if "rebalance" in config:
        spec = config["rebalance"]
        _check_keys(
            spec,
            "rebalance",
            required=("counts", "alphas", "aux_sizes"),
            optional=("support", "seed", "disjoint"),
        )
        prior = prior_from_counts(spec["counts"])
        support = int(spec.get("support", 16))
        sub_rng = np.random.default_rng([int(spec.get("seed", config["seed"])), 0x2EBA1])
        cond = sub_rng.random((support, prior.num_classes))
        cond /= cond.sum(axis=0, keepdims=True)
        source = oracle.DiscreteJoint(table=cond * prior.betas)
        if spec.get("disjoint"):
            px = np.concatenate([np.zeros(support), sub_rng.random(support)])
        else:
            px = sub_rng.random(support)
        px /= px.sum()
        rows = oracle.rebalance_curve(source, prior, px, spec["alphas"], spec["aux_sizes"])
        report["rebalance"] = {
            "rows": [
                {
                    "alpha": r.alpha,
                    "aux_size": r.aux_size,
                    "prior_ratio": r.prior_ratio,
                    "flipped_count": r.flipped_count,
                    "flipped_mass": r.flipped_mass,
                }
                for r in rows
            ]
        }

    _write_json(report, out_dir / f"{name}_bayes.json")
    return []


# ---------------------------------------------------------------------------
# driver


def _train_points(points, prepare, label, train_ds, test_ds, failures) -> list:
    """Train every point's run in one batched call; results keep point order.

    prepare(point) gives the point's (TrainConfig, pool). A point that fails
    to prepare or to train adds (label, error) to failures and gives None.
    """
    outcomes = []
    for point in points:
        try:
            outcomes.append(prepare(point))
        except Exception as exc:  # noqa: BLE001 - enumerate per-run failures
            outcomes.append(exc)
    ready = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    trained = train.train_runs(
        [outcomes[i][0] for i in ready], train_ds, test_ds, [outcomes[i][1] for i in ready]
    )
    for i, result in zip(ready, trained):
        outcomes[i] = result
    results = []
    for point, outcome in zip(points, outcomes):
        if isinstance(outcome, Exception):
            failures.append((label(point), str(outcome)))
            outcome = None
        else:
            # Runs batched together start and finish together.
            _log(f"{label(point)}: done in {outcome.wall_time:.2f}s")
        results.append(outcome)
    return results


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "eval-ood": cmd_eval_ood,
    "bayes-check": cmd_bayes_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="open-rebalance",
        description="Config-driven experiments for open-set re-balancing of "
        "long-tailed classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("synth", "generate long-tailed datasets and auxiliary pools"),
        ("train", "run configured training methods over seeds"),
        ("sweep", "grid sweeps with per-seed rows and mean/std summaries"),
        ("eval-ood", "MSP-based OOD detection metrics for a checkpoint"),
        ("bayes-check", "exact Bayes-mixture invariance and toxicity report"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="JSON config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config, args.command)
        args.out.mkdir(parents=True, exist_ok=True)
        failures = _HANDLERS[args.command](
            config, base_dir=args.config.parent, out_dir=args.out
        )
    except (ConfigError, data.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failures:
        for label, message in failures:
            print(f"failed: {label}: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
