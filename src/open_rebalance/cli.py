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


def _count(value, where: str, minimum: int = 0) -> int:
    """A JSON integer >= minimum: bools and floats are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {json.dumps(value)}")
    if value < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {value}")
    return value


def _number(value, where: str, minimum=None):
    """A JSON number that is a finite float: bools and strings are refused, not coerced."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{where} must be a finite number, got {json.dumps(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {value}")
    return value


def _items(value, where: str, check, **bounds) -> list:
    """check(item, "where[i]", **bounds) of each item of a non-empty JSON list."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list, got {json.dumps(value)}")
    return [check(item, f"{where}[{i}]", **bounds) for i, item in enumerate(value)]


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
    for key in ("size", "seed", "window", "clusters"):
        if key in spec:
            _count(spec[key], f"{where}.{key}")
    if kind != "file" and "size" in spec:
        try:
            data.check_pool_params(spec["size"], **_pool_kwargs(spec))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc


def _pool_kwargs(spec: dict) -> dict:
    keys = ("sigma", "margin", "clusters", "window", "low", "high")
    return {key: spec[key] for key in keys if spec.get(key) is not None}


def _build_pool(spec: dict, dim: int, base_seed, class_means, base_dir: Path):
    """Read or generate a pool whose spec _check_pool_spec has passed."""
    kind = spec["kind"]
    if kind == "file":
        return data.read_pool(base_dir / spec["path"])
    kwargs = _pool_kwargs(spec)
    if kind == "shifted-mixture":
        kwargs["class_means"] = class_means
    seed = spec.get("seed", base_seed)
    return data.gen_ood_pool(kind, spec["size"], dim, seed, **kwargs)


def cmd_synth(config: dict, base_dir: Path, out_dir: Path) -> list:
    _check_keys(
        config,
        "synth",
        required=("command", "name", "seed"),
        optional=("classes", "dim", "mean_radius", "sigma", "train", "test", "aux", "cifar"),
    )
    if "aux" in config:
        _check_keys(config["aux"], "synth.aux", required=("kind", "size"), optional=_AUX_KEYS)
        _check_pool_spec(config["aux"], "synth.aux", has_class_means="cifar" not in config)
    name = config["name"]
    seed = _count(config["seed"], "synth.seed")
    chash = _config_hash(config)
    manifest: dict = {"name": name, "seed": seed, "config_hash": chash, "files": {}}

    class_means = None
    if "cifar" in config:
        clash = [k for k in ("classes", "dim", "mean_radius", "sigma", "train", "test") if k in config]
        if clash:
            raise ConfigError(f"synth: cifar source conflicts with keys {clash}")
        spec = config["cifar"]
        _check_keys(spec, "synth.cifar", required=("train_paths",), optional=("test_paths", "ratio", "n_max"))
        if "n_max" in spec:
            _count(spec["n_max"], "synth.cifar.n_max", minimum=1)
        ratio = float(_number(spec.get("ratio", 1.0), "synth.cifar.ratio"))
        full = data.read_cifar10_binary([base_dir / p for p in spec["train_paths"]])
        n_max = int(spec.get("n_max", full.class_counts().min()))
        profile = data.longtail_counts(n_max, full.num_classes, ratio)
        train_ds = data.subsample_longtail(full, profile, seed)
        del full
        test_ds = None
        if spec.get("test_paths"):
            test_ds = data.read_cifar10_binary([base_dir / p for p in spec["test_paths"]])
        manifest["profile"] = {"ratio": ratio, "base": n_max}
    else:
        for key in ("classes", "dim", "train", "test"):
            if key not in config:
                raise ConfigError(f"synth: missing key {key!r} (required without cifar)")
        _check_keys(config["train"], "synth.train", required=("n_max", "ratio"))
        _check_keys(config["test"], "synth.test", required=("per_class",))
        k = _count(config["classes"], "synth.classes", minimum=2)
        dim = _count(config["dim"], "synth.dim", minimum=2)
        n_max = _count(config["train"]["n_max"], "synth.train.n_max", minimum=1)
        per_test = _count(config["test"]["per_class"], "synth.test.per_class", minimum=1)
        mean_radius = float(_number(config.get("mean_radius", 3.0), "synth.mean_radius"))
        sigma = float(_number(config.get("sigma", 1.0), "synth.sigma"))
        ratio = float(_number(config["train"]["ratio"], "synth.train.ratio"))
        profile = data.longtail_counts(n_max, k, ratio)
        class_means = data.gaussian_class_means(k, dim, mean_radius, seed)
        train_ds = data.gen_gaussian_classes(
            k, dim, profile.counts, mean_radius, sigma, seed=seed * 10 + 1, means_seed=seed
        )
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
    # Written and counted, so the pool is built with no full-size set alive.
    del train_ds, test_ds

    if "aux" in config:
        pool = _build_pool(config["aux"], manifest["dim"], seed * 10 + 3, class_means, base_dir)
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
        spec = {"tag": spec}
    _check_keys(spec, "label_dist", required=("tag",), optional=("alpha", "beta_cb", "class_index"))
    try:
        return LabelDistributionKind(
            tag=spec["tag"],
            alpha=spec.get("alpha"),
            beta_cb=spec.get("beta_cb"),
            class_index=spec.get("class_index"),
        )
    except ValueError as exc:
        raise ConfigError(f"label_dist: {exc}") from exc


def _check_train_section(config: dict, command: str) -> int:
    """Check the train section and model before any data is read; return the hidden width.

    Every integer must be a JSON integer and every float a finite JSON
    number; the errors name the dotted path.
    """
    section = config["train"]
    _check_keys(section, "train", required=("method",), optional=_TRAIN_KEYS)
    for key, minimum in (("epochs", 0), ("batch_train", 1), ("batch_aux", 1)):
        if section.get(key) is not None:
            _count(section[key], f"{command}.train.{key}", minimum)
    for key in ("eta", "base_lr", "momentum", "weight_decay", "beta_cb"):
        if section.get(key) is not None:
            _number(section[key], f"{command}.train.{key}")
    schedule = section.get("schedule")
    if schedule is not None:
        _check_keys(schedule, "schedule", required=(),
                    optional=("warmup_epochs", "milestones", "decay_factor"))
        where = f"{command}.train.schedule"
        _count(schedule.get("warmup_epochs", 0), f"{where}.warmup_epochs")
        _number(schedule.get("decay_factor", 0.01), f"{where}.decay_factor")
        milestones = schedule.get("milestones", [])
        if not isinstance(milestones, list):
            raise ConfigError(f"{where}.milestones must be a list, got {json.dumps(milestones)}")
        for i, milestone in enumerate(milestones):
            _count(milestone, f"{where}.milestones[{i}]")
    model = config.get("model", {})
    _check_keys(model, "model", required=(), optional=("hidden_dim",))
    return _count(model.get("hidden_dim", 0), f"{command}.model.hidden_dim")


def _parse_schedule(spec, epochs: int) -> nn.LrSchedule:
    try:
        return nn.LrSchedule(
            warmup_epochs=spec.get("warmup_epochs", 0),
            milestones=tuple(spec.get("milestones", ())),
            decay_factor=float(spec.get("decay_factor", 0.01)),
            total_epochs=max(epochs, 1),
        )
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def _parse_train_config(section: dict, hidden_dim: int, seed: int, where: str,
                        at: str = "") -> train.TrainConfig:
    """A run's TrainConfig from a section that _check_train_section has passed.

    A value it refuses is a ConfigError naming its dotted path under
    ``where``: every message here starts with the key it refuses.
    """
    kwargs = {k: section[k] for k in _TRAIN_KEYS if k in section and section[k] is not None}
    try:
        if "label_dist" in kwargs:
            kwargs["label_dist"] = _parse_label_dist(kwargs["label_dist"])
        if "schedule" in kwargs:
            kwargs["schedule"] = _parse_schedule(kwargs["schedule"], kwargs.get("epochs", 40))
        return train.TrainConfig(hidden_dim=hidden_dim, seed=seed, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}{at}") from exc


def _load_data_section(section: dict, base_dir: Path):
    _check_keys(section, "data", required=("train", "test"), optional=("aux",))
    train_ds = data.read_dataset(base_dir / section["train"])
    test_ds = data.read_dataset(base_dir / section["test"])
    aux = data.read_pool(base_dir / section["aux"]) if section.get("aux") else None
    return train_ds, test_ds, aux


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
    seeds = _items(config["seeds"], "train: seeds", _count)
    hidden = _check_train_section(config, "train")
    points = [(seed, _parse_train_config(config["train"], hidden, seed, "train.train"))
              for seed in seeds]
    name = config["name"]
    chash = _config_hash(config)
    train_ds, test_ds, aux = _load_data_section(config["data"], base_dir)
    thresholds = tuple(config.get("group_thresholds", metrics.GROUP_THRESHOLDS))

    failures = []
    results = _train_points(
        points, lambda p: (p[1], aux), lambda p: f"{name}_seed{p[0]}", train_ds, test_ds, failures
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
    if not isinstance(values, list) or not values:
        raise ConfigError("grid.values must be a non-empty list")
    for i, value in enumerate(values):
        if param == "aux_size":
            _count(value, f"sweep.grid.values[{i}]", minimum=1)
        elif param == "eta" or (param == "alpha" and value not in ("M", "mcd")):
            _number(value, f"sweep.grid.values[{i}]")
    seeds = _items(config["seeds"], "sweep: seeds", _count)
    hidden = _check_train_section(config, "sweep")
    points = []
    for i, value in enumerate(values):
        section = _apply_grid_value(config["train"], param, value)
        points += [(value, seed, _parse_train_config(
            section, hidden, seed, "sweep.train", f", at grid.values[{i}]")) for seed in seeds]

    name = config["name"]
    chash = _config_hash(config)
    train_ds, test_ds, aux = _load_data_section(config["data"], base_dir)
    thresholds = tuple(config.get("group_thresholds", metrics.GROUP_THRESHOLDS))
    train_counts = train_ds.class_counts()

    def prepare(point):
        value, _, run_config = point
        pool = aux
        if param == "aux_size":
            available = 0 if pool is None else len(pool)
            if value > available:
                raise ValueError(f"aux_size {value} not available (pool of {available})")
            # A row prefix of the pool, so every aux_size trains in one stack.
            pool = data.AuxiliaryPool(features=pool.features[:value], kind=pool.kind)
        return run_config, pool

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
        if spec["kind"] != "file" and ("size" not in spec or "seed" not in spec):
            raise ConfigError(f"pools[{i}]: generated pools need size and seed")
    params = nn.load_params(base_dir / config["checkpoint"])
    test_ds = data.read_dataset(base_dir / config["test"])
    if test_ds.dim != params.input_dim:
        raise ConfigError(
            f"test dimension {test_ds.dim} does not match checkpoint input {params.input_dim}"
        )
    in_scores = metrics.msp_scores(params, test_ds.features)
    # Scored, the test set and then each pool are released before the next pool is built.
    dim = test_ds.dim
    del test_ds

    rows = []
    triples = []
    for i, spec in enumerate(pools):
        pool = _build_pool(spec, dim, None, None, base_dir)
        if pool.dim != dim:
            raise ConfigError(f"pools[{i}]: dimension {pool.dim} != test {dim}")
        out_scores = metrics.msp_scores(params, pool.features)
        triple = (
            metrics.fpr_at_95_tpr(in_scores, out_scores),
            metrics.auroc(in_scores, out_scores),
            metrics.aupr(in_scores, out_scores, positive=positive),
        )
        del pool, out_scores
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
    cases = _count(config["cases"], "bayes-check: cases")
    seed = _count(config["seed"], "bayes-check: seed")
    # random_case draws supports and class counts from [2, max].
    max_support = _count(config.get("max_support", 20), "bayes-check: max_support", minimum=2)
    max_classes = _count(config.get("max_classes", 10), "bayes-check: max_classes", minimum=2)
    if "one_hot_stress" in config:
        spec = config["one_hot_stress"]
        _check_keys(spec, "one_hot_stress", required=("cases",), optional=("m_scale",))
        n_stress = _count(spec["cases"], "bayes-check: one_hot_stress.cases")
        m_scale = float(_number(spec.get("m_scale", 100.0), "bayes-check: one_hot_stress.m_scale", 0))
    if "rebalance" in config:
        spec = config["rebalance"]
        _check_keys(
            spec,
            "rebalance",
            required=("counts", "alphas", "aux_sizes"),
            optional=("support", "seed", "disjoint"),
        )
        where = "bayes-check: rebalance"
        support = _count(spec.get("support", 16), f"{where}.support", minimum=1)
        sub_seed = _count(spec.get("seed", seed), f"{where}.seed")
        counts = _items(spec["counts"], f"{where}.counts", _count)
        try:
            prior = prior_from_counts(counts)
        except ValueError as exc:
            raise ConfigError(f"{where}.counts: {exc}") from exc
        alphas = _items(spec["alphas"], f"{where}.alphas", _number)
        for i, alpha in enumerate(alphas):
            try:
                complementary(prior, alpha)
            except ValueError as exc:
                raise ConfigError(f"{where}.alphas[{i}]: {exc}") from exc
        aux_sizes = _items(spec["aux_sizes"], f"{where}.aux_sizes", _number, minimum=0)
        disjoint = spec.get("disjoint", False)
        if not isinstance(disjoint, bool):
            raise ConfigError(f"{where}.disjoint must be true or false, got {json.dumps(disjoint)}")
    name = config["name"]
    chash = _config_hash(config)
    rng = np.random.default_rng([seed, 0xBA4E5])

    checks = oracle.random_invariance_checks(rng, cases, max_support, max_classes)
    violating = [{"case": i, "instances": bad} for i, (ok, bad) in enumerate(checks) if not ok]
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
        source, ood = _constructed_toxic_case()
        flips, mass = oracle.toxicity_count(source, ood, 1.0, 10.0)
        mixed = oracle.mix(source, ood, 1.0, 10.0)
        instances = oracle.flipped_instances(source, mixed).tolist()
        stress = oracle.random_toxicity_counts(rng, n_stress, max_support, max_classes, m_scale)
        counts = [cnt for cnt, _ in stress]
        report["one_hot_stress"] = {
            "constructed_flips": flips,
            "constructed_mass": mass,
            "constructed_instances": instances,
            "random_cases": n_stress,
            "random_cases_with_flips": sum(cnt > 0 for cnt in counts),
            "total_flips": sum(counts),
        }

    if "rebalance" in config:
        sub_rng = np.random.default_rng([sub_seed, 0x2EBA1])
        cond = sub_rng.random((support, prior.num_classes))
        cond /= cond.sum(axis=0, keepdims=True)
        source = oracle.DiscreteJoint(table=cond * prior.betas)
        if disjoint:
            px = np.concatenate([np.zeros(support), sub_rng.random(support)])
        else:
            px = sub_rng.random(support)
        px /= px.sum()
        rows = oracle.rebalance_curve(source, prior, px, alphas, aux_sizes)
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
