"""In-memory span tracer that wraps the package's public functions.

The package modules import one another's functions by name (``train`` binds
``forward`` and ``softmax_xent`` from ``nn``; ``train``, ``oracle``, ``data``
and ``cli`` bind ``priors`` functions), so patching ``nn.forward`` alone
would miss the training loop. ``Tracer.install`` therefore replaces every
binding of each traced function in every package namespace, and
``uninstall`` puts the originals back.

A span is (name, start, end, parent, repeat). Spans are appended to flat
arrays, which the garbage collector does not scan, and are only aggregated
or written out after the measured region ends. Self time is a span's
duration minus the durations of its direct children; every call runs on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("cli", "train", "nn", "metrics", "data", "oracle", "priors")

SPANNED = {
    "nn": ("forward", "backward", "softmax_xent", "balanced_softmax_xent",
           "oe_prior_xent", "sgd_step", "save_params", "load_params"),
    "train": ("train_run", "sample_aux_labels"),
    "metrics": ("accuracy", "msp_scores", "auroc", "aupr", "fpr_at_95_tpr",
                "group_accuracy"),
    "data": ("read_dataset", "write_dataset", "read_pool", "write_pool",
             "read_cifar10_binary", "subsample_longtail", "gen_ood_pool",
             "gen_gaussian_classes"),
    "oracle": ("random_case", "bayes_invariance_check", "toxicity_count",
               "rebalance_curve", "mix"),
    "priors": ("label_distribution", "complementary", "mixed_prior",
               "prior_from_counts", "cb_effective_weights"),
}
# Called ~30 times per oracle case: counted, not timed, to keep the
# tracer from dominating the bayes-oracle workload.
COUNTED = {"oracle": ("bayes_predict",)}

CLI_COMMANDS = ("synth", "train", "sweep", "eval-ood", "bayes-check")

METHODS = ("standard", "open-sampling", "cb-rw", "balanced-softmax", "oe",
           "balanced-softmax+open-sampling")

MB = 1024.0 * 1024.0


def method_key(method: str) -> str:
    """Metric-name-safe form of a training method name."""
    return method.replace("+", "_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.repeat = array("i")
        self.repeat_id = -1
        self._stack = [-1]
        self.counts: Counter = Counter()  # (repeat, key) -> count
        self.run_steps: list = []  # (repeat, method, span index, steps)
        self.bindings: dict[str, list[str]] = {}
        self._patched: list = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for the benchmark's own CLI calls."""
        return self._spanned(name, fn)(*args, **kwargs)

    def _spanned(self, name: str, fn, after=None):
        nid = self._nid(name)
        start, end, names, parent, repeat = (
            self.start, self.end, self.name, self.parent, self.repeat)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parent.append(stack[-1])
            repeat.append(self.repeat_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if after is not None:
                after(i, args, kwargs, out)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.repeat_id, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that record counts at the layer boundary -----------------------

    def _add(self, key: str, value) -> None:
        self.counts[(self.repeat_id, key)] += value

    def _after_train_run(self, i, args, kwargs, out):
        config = args[0] if args else kwargs["config"]
        train_set = args[1] if len(args) > 1 else kwargs["train"]
        steps = config.epochs * math.ceil(len(train_set) / config.batch_train)
        self._add("train.steps", steps)
        self.run_steps.append((self.repeat_id, config.method, i, steps))

    def _after_read(self, i, args, kwargs, out):
        self._add("data.read_bytes", os.path.getsize(args[0]))

    def _after_read_cifar(self, i, args, kwargs, out):
        self._add("data.read_bytes", sum(os.path.getsize(p) for p in args[0]))

    def _after_write(self, i, args, kwargs, out):
        self._add("data.write_bytes", os.path.getsize(args[1]))

    def _after_msp(self, i, args, kwargs, out):
        self._add("metrics.samples_scored", len(out))

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every binding of each traced function in every package module."""
        hooks = {
            "train.train_run": self._after_train_run,
            "data.read_dataset": self._after_read,
            "data.read_cifar10_binary": self._after_read_cifar,
            "data.write_dataset": self._after_write,
            "metrics.msp_scores": self._after_msp,
        }
        wrappers = {}
        for layer, funcs in SPANNED.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for func in funcs:
                name = f"{layer}.{func}"
                wrappers[id(getattr(module, func))] = (
                    name, self._spanned(name, getattr(module, func), hooks.get(name)))
        for layer, funcs in COUNTED.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for func in funcs:
                name = f"{layer}.{func}"
                wrappers[id(getattr(module, func))] = (
                    name, self._counted(name, getattr(module, func)))
        namespaces = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        self.bindings = {}
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is None or not callable(value):
                    continue
                name, wrapper = hit
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))
                self.bindings.setdefault(name, []).append(module.__name__)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def repeat_metrics(self, repeat: int) -> dict:
        """Per-layer metrics of one traced repeat (times in s, counts exact)."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        names = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        rep = np.array(self.repeat, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        mine = rep == repeat
        out: dict = {}

        def spans(name):
            nid = self._ids.get(name)
            return mine & (names == nid) if nid is not None else np.zeros_like(mine)

        for layer, funcs in SPANNED.items():
            for func in funcs:
                sel = spans(f"{layer}.{func}")
                out[f"{layer}.{func}.calls"] = int(sel.sum())
                out[f"{layer}.{func}.s"] = float(dur[sel].sum())
        out["train.train_run.self_s"] = float(own[spans("train.train_run")].sum())
        cli_sel = np.zeros_like(mine)
        for command in CLI_COMMANDS:
            sel = spans(f"cli.{command}")
            cli_sel |= sel
            out[f"cli.{command}.s"] = float(dur[sel].sum())
        out["cli.self_s"] = float(own[cli_sel].sum())
        out["cli.span_s"] = float(dur[cli_sel].sum())

        def count(key):
            return self.counts.get((repeat, key), 0)

        out["oracle.bayes_predict.calls"] = count("oracle.bayes_predict")
        out["train.steps"] = count("train.steps")
        out["data.read_mb"] = count("data.read_bytes") / MB
        out["data.write_mb"] = count("data.write_bytes") / MB
        out["metrics.samples_scored"] = count("metrics.samples_scored")
        for method in METHODS:
            rows = [(i, s) for r, m, i, s in self.run_steps if r == repeat and m == method]
            steps = sum(s for _, s in rows)
            secs = sum(dur[i] for i, _ in rows)
            out[f"train.us_per_step.{method_key(method)}"] = (
                1e6 * secs / steps if steps else 0.0)
        return out

    def write(self, path) -> None:
        """Write every span as gzipped CSV: name,start,end,parent,repeat."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start,end,parent,repeat\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                        f"{self.parent[i]},{self.repeat[i]}\n")
