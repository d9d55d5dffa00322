"""Batch experiment runner: config-driven dataset synthesis, training,
sweeps, OOD evaluation, and the exact Bayes-mixture checks.

One JSON config per invocation, with a top-level "command" field matching
the subcommand. The whole config is parsed against its command's schema
before any file is read or written; unknown and duplicate keys are rejected
so typos cannot silently change a run. Re-running a command with the same
config produces byte-identical CSV/JSON outputs; wall-clock timings go to
stderr only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import data, metrics, nn, oracle, train
from .priors import LabelDistributionKind, _check_int64, complementary, label_distribution, prior_from_counts

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Raised when a config document is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# config schema

REQUIRED = object()  # the key must be given
OPTIONAL = object()  # an absent key stays absent, so the library's own default applies
NAME = "file name"  # a bare file name that outputs are named after, never a path
# Every config names its command and the name its outputs are named after.
_DOC = {"command": (str, None, REQUIRED), "name": (NAME, None, REQUIRED)}


# Each scalar kind: what it accepts, and what a refused value must be. JSON
# parses to exact types, so type() refuses bools where numbers are expected.
_SCALARS = {
    int: (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    float: (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    NAME: (lambda v: isinstance(v, str) and v not in ("", ".", "..")
           and not any(c in v for c in "/\\\0"), "a bare file name"),
}


def _parse(kind, value, path: str, bound=None):
    """Parse a JSON value as kind, or raise a ConfigError that names its dotted path.

    kind is a key of _SCALARS, whose bound is the minimum; a tuple of string
    choices; [item], a non-empty list, or [item, ...], any list, whose items
    take bound, as a tuple; a table {key: (kind, bound, default)}, walked in
    its order; or a callable rule(value, path) for union cases and built types.
    """

    def fail(must):
        raise ConfigError(f"{path} must be {must}, got {json.dumps(value)}")

    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {json.dumps(value)}")
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown}")
        missing = [key for key, (*_, default) in kind.items()
                   if default is REQUIRED and key not in value]
        if missing:
            raise ConfigError(f"{path}: missing keys {missing}")
        return {key: _parse(sub, value.get(key, default), f"{path}.{key}", sub_bound)
                for key, (sub, sub_bound, default) in kind.items()
                if key in value or default is not OPTIONAL}
    if isinstance(kind, list):
        if not isinstance(value, list) or not (value or ... in kind):
            fail("a list" if ... in kind else "a non-empty list")
        return tuple(_parse(kind[0], item, f"{path}[{i}]", bound) for i, item in enumerate(value))
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            fail(" or ".join(", ".join(map(repr, kind)).rsplit(", ", 1)))
        return value
    if kind not in _SCALARS:
        return kind(value, path)
    accepts, must = _SCALARS[kind]
    if not accepts(value):
        fail(must)
    if bound is not None and value < bound:
        fail(f"at least {bound}")
    return float(value) if kind is float else value


def _distinct(item, field=None, taken=()):
    """A rule for a non-empty list of item in which no item, or no item's field, is
    one of taken or equals an earlier one once parsed; a refusal shows them as given."""
    def rule(value, path):
        items = _parse([item], value, path)
        keys, given = ([x if field is None else x[field] for x in xs] for xs in (items, value))
        for i, key in enumerate(keys):
            if key in taken or key in keys[:i]:
                raise ConfigError(f"{path}[{i}]{'' if field is None else '.' + field} must be none "
                                  f"of {json.dumps([*taken, *given[:i]])}, got {json.dumps(given[i])}")
        return items
    return rule


def _built(path, build, *args, **kwargs):
    """build(*args, **kwargs), whose ValueError becomes a ConfigError naming path."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_config(path: Path, expected_command: str) -> dict:
    def reject(constant):
        raise ConfigError(f"{path}: non-finite number {constant} is not allowed")

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f, parse_constant=reject, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") from exc
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
    if isinstance(value, (np.ndarray, np.generic)):
        return _sanitize(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(obj: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_sanitize(obj), f, sort_keys=True, indent=2, allow_nan=False)
        f.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


# ---------------------------------------------------------------------------
# synth

# Each pool kind and the keys it takes, as (kind, bound, default); any other
# key is refused. gen_ood_pool owns the generator keys' defaults. A generated
# pool needs its size; synth also needs a file pool's, and eval-ood a
# generated pool's seed (see _pool's need).
_SIZE, _SEED, _SIGMA = (int, 1, REQUIRED), (int, None, OPTIONAL), (float, 0, OPTIONAL)
_POOLS = {
    "gaussian": {"size": _SIZE, "seed": _SEED, "sigma": _SIGMA},
    "rademacher": {"size": _SIZE, "seed": _SEED},
    "blobs": {"size": _SIZE, "seed": _SEED, "window": (int, 1, OPTIONAL),
              "low": (float, None, OPTIONAL), "high": (float, None, OPTIONAL)},
    "shifted-mixture": {"size": _SIZE, "seed": _SEED, "sigma": _SIGMA,
                        "margin": (float, 0, OPTIONAL), "clusters": (int, 1, OPTIONAL)},
    "file": {"size": (int, 1, OPTIONAL), "path": (str, None, REQUIRED)},
}
_KIND = {"kind": (str, None, REQUIRED)}  # a pool spec's head; eval-ood's adds a name


def _pool(value, path: str, need: tuple, class_means=False, head=_KIND) -> dict:
    """A pool spec: head's keys (its kind, after any name), parsed first and
    alone, then the keys _POOLS gives that kind, those in need required.
    shifted-mixture needs class means."""
    given = {key: value[key] for key in head if key in value} if isinstance(value, dict) else value
    kind = _parse(head, given, path)["kind"]
    if kind not in _POOLS:
        raise ConfigError(f"{path}: unknown pool kind {kind!r}, expected one of {tuple(_POOLS)}")
    if kind == "shifted-mixture" and not class_means:
        raise ConfigError(f"{path}: shifted-mixture pools need synthetic class means")
    keys = {key: (sub, bound, REQUIRED if key in need else default)
            for key, (sub, bound, default) in _POOLS[kind].items()}
    return _parse({**head, **keys}, value, path)


def _build_pool(where: str, spec: dict, dim: int, base_seed, class_means, base_dir: Path, out=None):
    """Read or generate a parsed pool spec's pool, into out if it has room; an error names where."""
    kind = spec["kind"]
    try:
        if kind == "file":
            return data.read_pool(base_dir / spec["path"], out=out)
        # The kind's keys are gen_ood_pool's parameters of the same names.
        kwargs = {"seed": base_seed, **{key: spec[key] for key in _POOLS[kind] if key in spec}}
        return data.gen_ood_pool(kind, dim=dim, class_means=class_means, out=out, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(where: str, read, path: Path):
    """read(path), whose format or OS error becomes a ConfigError naming where."""
    try:
        return read(path)
    except (data.FormatError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _file_shape(where: str, path: Path) -> tuple:
    """N and d from a native dataset file's checked header; an error names where."""
    n, d, _ = _read(where, data.read_header, path)
    return n, d


def _pool_rows(spec: dict, dim: int, where: str, base_dir: Path, against: str) -> int:
    """Rows of a parsed pool spec's pool. A generated pool is
    size x dim. A file pool's rows come from its checked header, whose width
    must be dim, that of the set named against, and whose rows must equal
    any size the spec gives."""
    if spec["kind"] != "file":
        return spec["size"]
    rows, d = _file_shape(where, base_dir / spec["path"])
    if d != dim:
        raise ConfigError(f"{where}: dimension {d} != {against} {dim}")
    if spec.get("size", rows) != rows:
        raise ConfigError(f"{where}: size {spec['size']} != {rows} rows in the file")
    return rows


_SYNTH = {
    **_DOC,
    "seed": (int, None, REQUIRED),
    "aux": (functools.partial(_pool, need=("size",), class_means=True), None, OPTIONAL),
}
_SYNTH_GAUSSIAN = {
    **_SYNTH,
    "classes": (int, 2, REQUIRED),
    "dim": (int, 2, REQUIRED),
    "mean_radius": (float, 0, 3.0),
    "sigma": (float, 0, 1.0),
    "train": ({"n_max": (int, 1, REQUIRED), "ratio": (float, 1, REQUIRED)}, None, REQUIRED),
    "test": ({"per_class": (int, 1, REQUIRED)}, None, REQUIRED),
}
_SYNTH_CIFAR = {
    **_SYNTH,
    "aux": (functools.partial(_pool, need=("size",)), None, OPTIONAL),  # no class means
    "cifar": ({
        "train_paths": ([str], None, REQUIRED),
        "test_paths": ([str, ...], None, OPTIONAL),
        "ratio": (float, 1, 1.0),
        "n_max": (int, 1, OPTIONAL),
    }, None, REQUIRED),
}


def _synth(config: dict, path: str) -> dict:
    """A synth config: Gaussian classes, or a subsample of CIFAR-10 binary batches."""
    cifar = "cifar" in config
    clash = sorted(set(config) & (set(_SYNTH_GAUSSIAN) - set(_SYNTH_CIFAR)))
    if cifar and clash:
        raise ConfigError(f"{path}: cifar source conflicts with keys {clash}")
    return _parse(_SYNTH_CIFAR if cifar else _SYNTH_GAUSSIAN, config, path)


def cmd_synth(doc: dict, config: dict, base_dir: Path, out_dir: Path) -> list:
    name, seed = doc["name"], doc["seed"]
    manifest: dict = {"name": name, "seed": seed, "config_hash": _config_hash(config), "files": {}}
    aux = doc.get("aux")
    dim = data.CIFAR_DIM if "cifar" in doc else doc["dim"]
    # Before any set is read or written: a file pool is copied as it is.
    pool_rows = 0 if aux is None else _pool_rows(aux, dim, "aux", base_dir, "data")

    class_means = buf = None
    if "cifar" in doc:
        spec = doc["cifar"]
        train_paths = [base_dir / p for p in spec["train_paths"]]
        test_paths = [base_dir / p for p in spec.get("test_paths", ())]
        # The source, then the test set and then the pool fill one buffer.
        rows = [sum(p.stat().st_size for p in paths) // data.CIFAR_RECORD
                for paths in (train_paths, test_paths)]
        buf = data.feature_buffer(max(*rows, pool_rows) * dim)
        full = data.read_cifar10_binary(train_paths, out=buf)
        ratio, base = spec["ratio"], int(spec.get("n_max", full.class_counts().min()))
        counts = data.longtail_counts(base, full.num_classes, ratio)
        train_ds = data.subsample_longtail(full, counts, seed)
        del full
        test_ds = data.read_cifar10_binary(test_paths, out=buf) if test_paths else None
    else:
        k, sigma = doc["classes"], doc["sigma"]
        ratio, base = doc["train"]["ratio"], doc["train"]["n_max"]
        class_means = data.gaussian_class_means(k, dim, doc["mean_radius"], seed)
        train_ds = data.gen_gaussian_classes(
            class_means, data.longtail_counts(base, k, ratio), sigma, seed * 10 + 1)
        test_ds = data.gen_gaussian_classes(
            class_means, [doc["test"]["per_class"]] * k, sigma, seed * 10 + 2)
    manifest["profile"] = {"ratio": ratio, "base": base}

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

    if aux is not None:
        pool = _build_pool("aux", aux, dim, seed * 10 + 3, class_means, base_dir, buf)
        aux_path = out_dir / f"{name}_aux.osds"
        data.write_pool(pool, aux_path)
        manifest["files"]["aux"] = aux_path.name
        manifest["aux_size"] = len(pool)
        manifest["aux_kind"] = aux["kind"]

    _write_json(manifest, out_dir / f"{name}_manifest.json")
    return []


# ---------------------------------------------------------------------------
# train and sweep

# The _parse kind per field annotation, a string under `from __future__ import annotations`.
_ANNOTATED = {f"{kind.__name__}{none}": kind for kind in (int, float, bool, str) for none in ("", " | None")}
_ANNOTATED["tuple[int, ...]"] = [int, ...]


def _fields(cls, hand: dict, skip=()) -> dict:
    """A table of a dataclass's fields in their order, less skip: hand's entry
    where it has one, else the field's scalar kind, OPTIONAL so that the
    class's default applies. Any other field is a KeyError as cli loads."""
    return {f.name: hand[f.name] if f.name in hand else (_ANNOTATED[f.type], None, OPTIONAL)
            for f in dataclasses.fields(cls) if f.name not in skip}


def _int64(value, path) -> int:
    """A non-negative integer inside the library's int64 range: a key that
    TrainConfig takes from outside the train section is refused at its own path."""
    value = _parse(int, value, path)
    try:
        _check_int64(path, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return value


def _label_dist(value, path) -> LabelDistributionKind:
    """A label distribution: its tag alone, or an object with its parameters."""
    kwargs = _parse(_LABEL_DIST, {"tag": value} if isinstance(value, str) else value, path)
    return _built(path, LabelDistributionKind, **kwargs)


def _schedule(value, path) -> nn.LrSchedule:
    """An LR schedule: an object with any of its fields."""
    return _built(path, nn.LrSchedule, **_parse(_SCHEDULE, value, path))


def _thresholds(value, path) -> tuple:
    """[t_low, t_high]: the class counts that split few, medium and many."""
    pair = _parse([int], value, path)
    if len(pair) != 2 or pair[0] >= pair[1]:
        raise ConfigError(f"{path} must be [t_low, t_high] with t_low < t_high, got {list(pair)}")
    return pair


# Each table's keys are its dataclass's fields, which own their ranges and
# the defaults of absent keys: _LABEL_DIST's LabelDistributionKind's,
# _SCHEDULE's LrSchedule's, and _TRAIN's TrainConfig's, less hidden_dim and
# seed, which model and seeds give.
_LABEL_DIST = _fields(LabelDistributionKind, {"tag": (str, None, REQUIRED)})
_SCHEDULE = _fields(nn.LrSchedule, {})
_TRAIN = _fields(train.TrainConfig, {
    "method": (str, None, REQUIRED),
    "label_dist": (_label_dist, None, OPTIONAL),
    "schedule": (_schedule, None, OPTIONAL),
}, skip=("hidden_dim", "seed"))
_RUNS = {
    **_DOC,
    "data": ({"train": (str, None, REQUIRED), "test": (str, None, REQUIRED),
              "aux": (str, None, OPTIONAL)}, None, REQUIRED),
    "model": ({"hidden_dim": (_int64, None, 0)}, None, {}),
    "train": (_TRAIN, None, REQUIRED),
    "seeds": (_distinct(_int64), None, REQUIRED),
    "group_thresholds": (_thresholds, None, list(metrics.GROUP_THRESHOLDS)),
}


def _alpha(value, path) -> LabelDistributionKind:
    """A sweep's alpha as the label distribution it stands for: "mcd", "M"
    for the complementary one at the default alpha, or a complementary alpha."""
    if value in ("M", "mcd"):
        return LabelDistributionKind("mcd" if value == "mcd" else "complementary")
    return LabelDistributionKind("complementary", alpha=_parse(float, value, path))


# Each sweep grid value is parsed as the train key it overrides: (kind, bound).
_GRID_VALUES = {
    "eta": _TRAIN["eta"][:2],
    "alpha": (_alpha, None),
    "label_dist": _TRAIN["label_dist"][:2],
    "method": _TRAIN["method"][:2],
    "aux_size": (int, 1),
}
_SWEEP = {
    **_RUNS,
    "grid": ({"param": (tuple(_GRID_VALUES), None, REQUIRED),
              "values": ([lambda value, path: value], None, REQUIRED)}, None, REQUIRED),
}


def _shown(value):
    """A grid value as run labels and the sweep CSV show it: a scalar as written, else JSON."""
    return value if isinstance(value, (int, float, str)) else json.dumps(value, sort_keys=True)


def _apply_grid_value(section: dict, param, value) -> dict:
    """The parsed train section with one parsed grid value applied; an alpha sets label_dist."""
    updated = dict(section)
    if param == "method" and value not in train._RELABEL_METHODS:
        for key in ("label_dist", "fixed_labels"):
            updated.pop(key, None)
    if param not in (None, "aux_size"):  # a train config's one point changes nothing
        updated["label_dist" if param == "alpha" else param] = value
    return updated


def _run_error(doc: dict, i: int, message) -> ConfigError:
    """A ConfigError about the train section at grid value i; message starts with its key."""
    path, at = ("sweep", f", at grid.values[{i}]") if "grid" in doc else ("train", "")
    return ConfigError(f"{path}.train.{message}{at}")


def _runs(config: dict, path: str) -> dict:
    """A train or sweep config; doc["runs"] holds (value index, seed, TrainConfig,
    aux_size, label), labelled name_seedS, or name[param=value,seed=S] with
    the value as _shown shows it. Grid values must differ once parsed.

    A train config is one grid point that changes nothing. A value that the
    constructors refuse, or an auxiliary method or aux_size without data.aux, is a
    ConfigError naming its dotted path (each of the constructors' messages
    starts with the key it refuses) and, in a sweep, its grid value.
    """
    doc = _parse(_SWEEP if path == "sweep" else _RUNS, config, path)
    grid = doc.get("grid", {"param": None, "values": [None]})
    if "grid" in doc:
        kind, bound = _GRID_VALUES[grid["param"]]
        grid["values"] = _parse(_distinct(functools.partial(_parse, kind, bound=bound)),
                                config["grid"]["values"], f"{path}.grid.values")

    def label(i, seed):
        return (f"{doc['name']}[{grid['param']}={_shown(config['grid']['values'][i])},seed={seed}]"
                if "grid" in doc else f"{doc['name']}_seed{seed}")

    doc["runs"] = []
    for i, value in enumerate(grid["values"]):
        kwargs = _apply_grid_value(doc["train"], grid["param"], value)
        size = value if grid["param"] == "aux_size" else None
        try:
            doc["runs"] += [(i, seed, train.TrainConfig(seed=seed, hidden_dim=doc["model"]["hidden_dim"],
                                                         **kwargs), size, label(i, seed))
                            for seed in doc["seeds"]]
        except ValueError as exc:
            raise _run_error(doc, i, exc) from exc
        method = kwargs["method"]
        if (size or method in train._AUX_METHODS) and "aux" not in doc["data"]:
            raise (ConfigError(f"sweep.grid.values[{i}]: aux_size {size} needs a pool in data.aux") if size
                   else _run_error(doc, i, f"method: {method!r} requires an auxiliary pool in data.aux"))
    return doc


# The epochs CSV's leading columns, which are also the result JSON's history.
_EPOCH_FIELDS = ["epoch", "lr", "total_loss", "base_loss", "aux_loss", "overall_acc"]


def _final(result, train_counts, thresholds) -> dict:
    """A run's last-epoch accuracies, overall, per class and by count group; None with no epochs."""
    if not result.history:
        return dict.fromkeys(("overall_acc", "per_class_acc", "group_acc"))
    last = result.history[-1]
    per_class = list(last.test_per_class_acc)
    return {"overall_acc": last.test_overall_acc, "per_class_acc": per_class,
            "group_acc": metrics.group_accuracy(per_class, train_counts, thresholds)}


def cmd_train(doc: dict, config: dict, base_dir: Path, out_dir: Path) -> list:
    chash = _config_hash(config)
    counts, results, failures = _train_points(doc, base_dir)
    header = _EPOCH_FIELDS + [f"acc_class_{j}" for j in range(len(counts))] + ["config_hash"]
    # A train run's label, name_seedS, names its files.
    for (_, seed, *_, stem), result in zip(doc["runs"], results):
        if isinstance(result, Exception):
            continue
        rows = [[rec.epoch, rec.lr, rec.train_loss, rec.base_loss, rec.aux_loss, rec.test_overall_acc,
                 *(None if math.isnan(a) else a for a in rec.test_per_class_acc), chash]
                for rec in result.history]
        _write_csv(out_dir / f"{stem}_epochs.csv", header, rows)
        final = _final(result, counts, doc["group_thresholds"])
        _write_json({"name": doc["name"], "seed": seed, "config_hash": chash, "config": config,
                     "final": final, "history": [dict(zip(_EPOCH_FIELDS, row)) for row in rows],
                     "checkpoint": f"{stem}.osnn"}, out_dir / f"{stem}_result.json")
        nn.save_params(result.final_params, out_dir / f"{stem}.osnn")
    return failures


def cmd_sweep(doc: dict, config: dict, base_dir: Path, out_dir: Path) -> list:
    name, param = doc["name"], doc["grid"]["param"]
    chash = _config_hash(config)
    counts, results, failures = _train_points(doc, base_dir)
    results = iter(results)

    header = ["param", "value", "seed", "overall_acc", "few_acc", "mean_acc", "std_acc", "config_hash"]
    rows = []
    for shown in map(_shown, config["grid"]["values"]):
        accs = []
        for seed in doc["seeds"]:
            result = next(results)
            if isinstance(result, Exception):
                continue
            final = _final(result, counts, doc["group_thresholds"])
            few = final["group_acc"] and final["group_acc"]["few"]
            rows.append([param, shown, seed, final["overall_acc"], few, None, None, chash])
            if final["overall_acc"] is not None:
                accs.append(final["overall_acc"])
        if accs:
            rows.append(
                [param, shown, None, None, None,
                 float(np.mean(accs)), float(np.std(accs)), chash]
            )
    _write_csv(out_dir / f"{name}_sweep.csv", header, rows)
    return failures


# ---------------------------------------------------------------------------
# eval-ood

# Each pool is named apart from the others and from the average row.
_EVAL_POOL = functools.partial(_pool, need=("seed",), head={"name": (str, None, REQUIRED), **_KIND})
_EVAL_OOD = {
    **_DOC,
    "checkpoint": (str, None, REQUIRED),
    "test": (str, None, REQUIRED),
    "pools": (_distinct(_EVAL_POOL, "name", ("average",)), None, REQUIRED),
    "aupr_positive": (("in", "out"), None, "out"),
}


def cmd_eval_ood(doc: dict, config: dict, base_dir: Path, out_dir: Path) -> list:
    name, positive = doc["name"], doc["aupr_positive"]
    chash = _config_hash(config)
    params = doc["params"]
    # Every file's header is checked before any row is read or generated.
    n, dim = _file_shape("test", base_dir / doc["test"])
    if dim != params.input_dim:
        raise ConfigError(
            f"test dimension {dim} does not match checkpoint input {params.input_dim}"
        )
    sizes = [n] + [_pool_rows(spec, dim, f"pools[{i}]", base_dir, "test")
                   for i, spec in enumerate(doc["pools"])]
    # The test set and then each pool fill one buffer, each once the one
    # before is scored and released.
    buf = data.feature_buffer(max(sizes) * dim)
    test_ds = data.read_dataset(base_dir / doc["test"], out=buf)
    # A NaN score has no rank: the test set's are refused before any pool is built.
    in_scores = metrics._scores("in_scores", metrics.msp_scores(params, test_ds.features))
    del test_ds

    rows = []
    for i, spec in enumerate(doc["pools"]):
        where = f"pools[{i}]"
        pool = _build_pool(where, spec, dim, None, None, base_dir, buf)
        out_scores = _built(where, metrics._scores, "out_scores", metrics.msp_scores(params, pool))
        rows.append([
            spec["name"],
            metrics.fpr_at_95_tpr(in_scores, out_scores),
            metrics.auroc(in_scores, out_scores),
            metrics.aupr(in_scores, out_scores, positive=positive),
            positive, chash,
        ])
        del pool, out_scores
    avg = np.mean([row[1:4] for row in rows], axis=0)
    rows.append(["average", *[float(v) for v in avg], positive, chash])
    _write_csv(
        out_dir / f"{name}_ood.csv",
        ["pool", "fpr95", "auroc", "aupr", "aupr_positive", "config_hash"],
        rows,
    )
    return []


# ---------------------------------------------------------------------------
# bayes-check

_REBALANCE = {
    "counts": ([int], None, REQUIRED),
    "alphas": ([float], None, REQUIRED),
    "aux_sizes": ([float], 0, REQUIRED),
    "support": (int, 1, 16),
    "seed": (int, None, OPTIONAL),  # absent: the top-level seed
    "disjoint": (bool, None, False),
}


def _rebalance(value, path) -> dict:
    """The rebalance section, with its prior in spec["prior"] and each alpha checked against it."""
    spec = _parse(_REBALANCE, value, path)
    spec["prior"] = _built(f"{path}.counts", prior_from_counts, spec["counts"])
    for i, alpha in enumerate(spec["alphas"]):
        _built(f"{path}.alphas[{i}]", complementary, spec["prior"], alpha)
    return spec


_BAYES_CHECK = {
    **_DOC,
    "seed": (int, None, REQUIRED),
    "cases": (int, None, REQUIRED),
    # random_case draws supports and class counts from [2, max]; _bayes_check bounds max.
    "max_support": (int, None, 20),
    "max_classes": (int, None, 10),
    "one_hot_stress": ({"cases": (int, None, REQUIRED), "m_scale": (float, 0, 100.0)},
                       None, OPTIONAL),
    "rebalance": (_rebalance, None, OPTIONAL),
}


def _bayes_check(value, path) -> dict:
    """The bayes-check config, its maxima refused where the oracle would refuse them."""
    doc = _parse(_BAYES_CHECK, value, path)
    _built(path, oracle._check_maxima, doc["max_support"], doc["max_classes"])
    return doc


def cmd_bayes_check(doc: dict, config: dict, base_dir: Path, out_dir: Path) -> list:
    name, cases = doc["name"], doc["cases"]
    max_support, max_classes = doc["max_support"], doc["max_classes"]
    rng = np.random.default_rng([doc["seed"], 0xBA4E5])

    checks = oracle.random_invariance_checks(rng, cases, max_support, max_classes)
    violating = [{"case": i, "instances": bad} for i, (ok, bad) in enumerate(checks) if not ok]
    report = {
        "name": name,
        "config_hash": _config_hash(config),
        "uniform": {
            "cases": cases,
            "violations": len(violating),
            "violating_cases": violating,
        },
    }

    if "one_hot_stress" in doc:
        n_stress = doc["one_hot_stress"]["cases"]
        # Two overlapping instances; dumping one-hot minority mass flips row 0.
        source = oracle.DiscreteJoint(table=np.array([[0.45, 0.05], [0.05, 0.45]]))
        ood = oracle.OodMarginal(px=np.array([0.5, 0.5]), py=np.array([0.0, 1.0]))
        flips, mass = oracle.toxicity_count(source, ood, 1.0, 10.0)
        mixed = oracle.mix(source, ood, 1.0, 10.0)
        instances = oracle.flipped_instances(source, mixed).tolist()
        stress = oracle.random_toxicity_counts(
            rng, n_stress, max_support, max_classes, doc["one_hot_stress"]["m_scale"]
        )
        counts = [cnt for cnt, _ in stress]
        report["one_hot_stress"] = {
            "constructed_flips": flips,
            "constructed_mass": mass,
            "constructed_instances": instances,
            "random_cases": n_stress,
            "random_cases_with_flips": sum(cnt > 0 for cnt in counts),
            "total_flips": sum(counts),
        }

    if "rebalance" in doc:
        spec = doc["rebalance"]
        prior, support = spec["prior"], spec["support"]
        sub_rng = np.random.default_rng([spec.get("seed", doc["seed"]), 0x2EBA1])
        cond = sub_rng.random((support, prior.num_classes))
        cond /= cond.sum(axis=0, keepdims=True)
        source = oracle.DiscreteJoint(table=cond * prior.betas)
        if spec["disjoint"]:
            px = np.concatenate([np.zeros(support), sub_rng.random(support)])
        else:
            px = sub_rng.random(support)
        px /= px.sum()
        rows = oracle.rebalance_curve(source, prior, px, spec["alphas"], spec["aux_sizes"])
        report["rebalance"] = {"rows": [dataclasses.asdict(r) for r in rows]}

    _write_json(report, out_dir / f"{name}_bayes.json")
    return []


# ---------------------------------------------------------------------------
# driver


def _train_points(doc: dict, base_dir: Path) -> tuple:
    """Read the data and train every run of doc["runs"] in one batched call,
    scoring the test set after every epoch, or for a sweep (a doc with a
    grid), which reads each run's last epoch only, after the last one.

    A label_dist that the training set's prior refuses is a ConfigError as
    soon as that set is read, and an aux_size past the pool one as soon as
    the pool is read. A run trains on the pool, or on its first aux_size
    rows, so that every aux_size trains in one stack.
    Returns the training set's class counts, the results in run order (a
    failed run's exception in its place) and the (label, message) failures.
    """
    section, runs = doc["data"], doc["runs"]
    train_ds = data.read_dataset(base_dir / section["train"])
    prior = train_ds.prior()
    for i, _, config, *_ in runs:
        if config.label_dist is not None:
            try:
                label_distribution(config.label_dist, prior)
            except ValueError as exc:
                raise _run_error(doc, i, f"label_dist: {exc}") from exc
    test_ds = data.read_dataset(base_dir / section["test"])
    aux = data.read_pool(base_dir / section["aux"]) if "aux" in section else None
    for i, _, _, size, _ in runs:
        if size is not None and size > len(aux):
            raise ConfigError(f"sweep.grid.values[{i}]: aux_size {size} exceeds the "
                              f"{len(aux)} rows of data.aux")
    pools = [aux if size is None else aux[:size] for *_, size, _ in runs]
    results = train.train_runs([run[2] for run in runs], train_ds, test_ds, pools, every_epoch="grid" not in doc)
    for (*_, label), result in zip(runs, results):
        if not isinstance(result, Exception):
            # Runs batched together start and finish together.
            print(f"{label}: done in {result.wall_time:.2f}s", file=sys.stderr)
    failures = [(label, str(r)) for (*_, label), r in zip(runs, results) if isinstance(r, Exception)]
    return train_ds.class_counts(), results, failures


# Per command: the kind its config is parsed as, its handler and its help.
_COMMANDS = {
    "synth": (_synth, cmd_synth, "generate long-tailed datasets and auxiliary pools"),
    "train": (_runs, cmd_train, "run configured training methods over seeds"),
    "sweep": (_runs, cmd_sweep, "grid sweeps with per-seed rows and mean/std summaries"),
    "eval-ood": (_EVAL_OOD, cmd_eval_ood, "MSP-based OOD detection metrics for a checkpoint"),
    "bayes-check": (_bayes_check, cmd_bayes_check,
                    "exact Bayes-mixture invariance and toxicity report"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="open-rebalance",
        description="Config-driven experiments for open-set re-balancing of "
        "long-tailed classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="JSON config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        config = _load_config(args.config, args.command)
        kind, handler, _ = _COMMANDS[args.command]
        doc = _parse(kind, config, args.command)
        if "checkpoint" in doc:  # eval-ood's model, loaded before anything is written
            path = args.config.parent / doc["checkpoint"]
            doc["params"] = _read(f"{args.command}.checkpoint", nn.load_params, path)
        # Only a config that parsed, with a checkpoint that loads, creates --out.
        args.out.mkdir(parents=True, exist_ok=True)
        failures = handler(doc, config, base_dir=args.config.parent, out_dir=args.out)
    except (ConfigError, data.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1
    if failures:
        for label, message in failures:
            print(f"failed: {label}: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
