#!/usr/bin/env python3
"""Label-distribution study on the synthetic long-tailed task.

Compares auxiliary-label distributions (complementary, uniform,
class-balanced, original prior) against the plain cross-entropy baseline,
reporting balanced-test accuracy and tail-class accuracy per variant.
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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/label_dist"))
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
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

    base_train = {
        "method": "open-sampling", "eta": 1.5, "epochs": args.epochs,
        "base_lr": 0.01,
        "schedule": {"warmup_epochs": 5,
                     "milestones": [int(0.8 * args.epochs), int(0.9 * args.epochs)],
                     "decay_factor": 0.1},
    }
    sweep = {
        "command": "sweep", "name": "labels",
        "data": {"train": "lt5_train.osds", "test": "lt5_test.osds", "aux": "lt5_aux.osds"},
        "model": {"hidden_dim": 8},
        "train": base_train,
        "grid": {"param": "label_dist",
                 "values": ["complementary", "uniform", "class-balanced", "original-prior"]},
        "seeds": args.seeds,
        "group_thresholds": [20, 100],
    }
    run(["sweep", "--config", write(args.out / "sweep.json", sweep),
         "--out", str(args.out)])

    baseline = {
        "command": "train", "name": "standard",
        "data": {"train": "lt5_train.osds", "test": "lt5_test.osds"},
        "model": {"hidden_dim": 8},
        "train": {"method": "standard", "epochs": args.epochs, "base_lr": 0.01,
                  "schedule": base_train["schedule"]},
        "seeds": args.seeds,
    }
    run(["train", "--config", write(args.out / "baseline.json", baseline),
         "--out", str(args.out)])

    print("\nlabel distribution     mean acc   (std)")
    with open(args.out / "labels_sweep.csv", newline="") as f:
        for row in csv.DictReader(f):
            if row["seed"] == "":
                print(f"{row['value']:<22s} {float(row['mean_acc']):.3f}    ({float(row['std_acc']):.3f})")
    accs = []
    for seed in args.seeds:
        result = json.loads((args.out / f"standard_seed{seed}_result.json").read_text())
        accs.append(result["final"]["overall_acc"])
    print(f"{'standard baseline':<22s} {sum(accs) / len(accs):.3f}")
    print(f"\nfull tables in {args.out}/")


if __name__ == "__main__":
    main()
