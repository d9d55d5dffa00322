#!/usr/bin/env python3
"""Sensitivity sweeps: regularization strength eta and flatness alpha.

The alpha grid includes "mcd" (the minimum distribution) and "M" (the
default max-beta + min-beta rule) alongside numeric values approaching the
uniform limit.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from open_rebalance.cli import main as cli


def write(path, config):
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def run(argv):
    if cli(argv) != 0:
        sys.exit(f"command failed: {argv}")


def show(path, label):
    print(f"\n{label:<14s} mean acc   (std)")
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            if row["seed"] == "":
                print(f"{row['value']:<14s} {float(row['mean_acc']):.3f}    ({float(row['std_acc']):.3f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/sweeps"))
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    synth = {
        "command": "synth", "name": "lt5", "seed": 7, "classes": 5, "dim": 16,
        "mean_radius": 1.8, "sigma": 1.0,
        "train": {"n_max": 500, "ratio": 100.0},
        "test": {"per_class": 100},
        "aux": {"kind": "shifted-mixture", "size": 5000, "margin": 2.0, "clusters": 256},
    }
    run(["synth", "--config", write(args.out / "synth.json", synth), "--out", str(args.out)])

    schedule = {"warmup_epochs": 5,
                "milestones": [int(0.8 * args.epochs), int(0.9 * args.epochs)],
                "decay_factor": 0.1}
    common = {
        "data": {"train": "lt5_train.osds", "test": "lt5_test.osds", "aux": "lt5_aux.osds"},
        "model": {"hidden_dim": 8},
        "seeds": args.seeds,
    }
    eta_sweep = {
        "command": "sweep", "name": "eta",
        "train": {"method": "open-sampling", "epochs": args.epochs, "base_lr": 0.01,
                  "schedule": schedule},
        "grid": {"param": "eta", "values": [0.0, 0.5, 1.0, 1.5, 2.0, 5.0]},
        **common,
    }
    run(["sweep", "--config", write(args.out / "eta.json", eta_sweep),
         "--out", str(args.out)])
    show(args.out / "eta_sweep.csv", "eta")

    alpha_sweep = {
        "command": "sweep", "name": "alpha",
        "train": {"method": "open-sampling", "eta": 1.5, "epochs": args.epochs,
                  "base_lr": 0.01, "schedule": schedule},
        "grid": {"param": "alpha", "values": ["mcd", "M", 1.0, 2.0, 5.0, 50.0]},
        **common,
    }
    run(["sweep", "--config", write(args.out / "alpha.json", alpha_sweep),
         "--out", str(args.out)])
    show(args.out / "alpha_sweep.csv", "alpha")


if __name__ == "__main__":
    main()
