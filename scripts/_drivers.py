"""What the experiment drivers share: the lt5 task, its data files and
training section, and the CLI plumbing that writes each config next to its
outputs and runs it.

The drivers import this module by name, which works from any working
directory: Python puts a script's own directory first on its path.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from open_rebalance.cli import main as cli

# The synthetic long-tailed task every training driver runs on: 5 classes,
# 500 down to 5 training samples per class, and a 5,000-row auxiliary pool.
LT5 = {
    "command": "synth", "name": "lt5", "seed": 7, "classes": 5, "dim": 16,
    "mean_radius": 1.8, "sigma": 1.0,
    "train": {"n_max": 500, "ratio": 100.0},
    "test": {"per_class": 100},
    "aux": {"kind": "shifted-mixture", "size": 5000, "margin": 2.0, "clusters": 256},
}


def data(name="lt5", aux=True):
    """The data section of the train and test files, and the auxiliary pool
    if aux, that the `synth` named `name` writes."""
    parts = ("train", "test", "aux") if aux else ("train", "test")
    return {part: f"{name}_{part}.osds" for part in parts}


def train(head, epochs, **tail):
    """A train section: head's keys (the method and its knobs), then `epochs`
    epochs from a base LR of 0.01 with 5 warmup epochs and x0.1 at 80% and
    again at 90% of the epochs, then tail's keys."""
    schedule = {"warmup_epochs": 5, "milestones": [int(0.8 * epochs), int(0.9 * epochs)], "decay_factor": 0.1}
    return {**head, "epochs": epochs, "base_lr": 0.01, "schedule": schedule, **tail}


def options(doc, out, **int_defaults):
    """Parse --out (default `out`) and one integer flag per default; a list
    default makes a flag that takes one or more integers. Refuses an --epochs
    that `train` cannot schedule, then creates --out."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--out", type=Path, default=Path(out))
    for name, default in int_defaults.items():
        nargs = {"nargs": "+"} if isinstance(default, list) else {}
        parser.add_argument(f"--{name}", type=int, default=default, **nargs)
    args = parser.parse_args()
    if "epochs" in int_defaults and args.epochs < 8:
        parser.error(f"--epochs must be at least 8, got {args.epochs}: training warms up for 5 epochs, "
                     "and its milestones, int(0.8 * epochs) and int(0.9 * epochs), must rise and come after it")
    args.out.mkdir(parents=True, exist_ok=True)
    return args


def run(out, stem, config):
    """Write config to out/stem.json and run its command into out; exit on failure."""
    path = out / f"{stem}.json"
    path.write_text(json.dumps(config, indent=2))
    argv = [config["command"], "--config", str(path), "--out", str(out)]
    if cli(argv) != 0:
        sys.exit(f"command failed: {argv}")


def show(csv_path, width):
    """Print each summary row of a sweep CSV: value, mean accuracy, (std)."""
    with open(csv_path, newline="") as f:
        for row in csv.DictReader(f):
            if row["seed"] == "":
                print(f"{row['value']:<{width}s} {float(row['mean_acc']):.3f}    "
                      f"({float(row['std_acc']):.3f})")


def mean_acc(out, name, seeds):
    """Mean final test accuracy of the train command `name` over seeds."""
    results = [json.loads((out / f"{name}_seed{seed}_result.json").read_text()) for seed in seeds]
    accs = [result["final"]["overall_acc"] for result in results]
    return sum(accs) / len(accs)
