#!/usr/bin/env python3
"""Auxiliary-pool studies: pool kind, pool size, and the fixed-label variant.

Each synthetic pool kind is generated at the same size, trained with the
same open-sampling configuration, then the pool-size sweep reruns the
shifted-mixture pool truncated to each size, with labels either resampled
every iteration or pinned once per instance.
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


def mean_acc(out, name, seeds):
    accs = []
    for seed in seeds:
        result = json.loads((out / f"{name}_seed{seed}_result.json").read_text())
        accs.append(result["final"]["overall_acc"])
    return sum(accs) / len(accs)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/pools"))
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    kinds = ["shifted-mixture", "gaussian", "rademacher", "blobs"]
    for kind in kinds:
        synth = {
            "command": "synth", "name": f"lt5_{kind}", "seed": 7, "classes": 5,
            "dim": 16, "mean_radius": 1.8, "sigma": 1.0,
            "train": {"n_max": 500, "ratio": 100.0},
            "test": {"per_class": 100},
            "aux": {"kind": kind, "size": 5000},
        }
        if kind == "shifted-mixture":
            synth["aux"].update({"margin": 2.0, "clusters": 256})
        run(["synth", "--config", write(args.out / f"synth_{kind}.json", synth),
             "--out", str(args.out)])

    schedule = {"warmup_epochs": 5,
                "milestones": [int(0.8 * args.epochs), int(0.9 * args.epochs)],
                "decay_factor": 0.1}
    print("\npool kind         mean acc")
    for kind in kinds:
        train_cfg = {
            "command": "train", "name": f"by_{kind}",
            "data": {"train": f"lt5_{kind}_train.osds", "test": f"lt5_{kind}_test.osds",
                     "aux": f"lt5_{kind}_aux.osds"},
            "model": {"hidden_dim": 8},
            "train": {"method": "open-sampling", "eta": 1.5, "epochs": args.epochs,
                      "base_lr": 0.01, "schedule": schedule},
            "seeds": args.seeds,
        }
        run(["train", "--config", write(args.out / f"train_{kind}.json", train_cfg),
             "--out", str(args.out)])
        print(f"{kind:<17s} {mean_acc(args.out, f'by_{kind}', args.seeds):.3f}")

    for fixed in (False, True):
        tag = "fixed" if fixed else "fresh"
        size_sweep = {
            "command": "sweep", "name": f"size_{tag}",
            "data": {"train": "lt5_shifted-mixture_train.osds",
                     "test": "lt5_shifted-mixture_test.osds",
                     "aux": "lt5_shifted-mixture_aux.osds"},
            "model": {"hidden_dim": 8},
            "train": {"method": "open-sampling", "eta": 1.5, "epochs": args.epochs,
                      "base_lr": 0.01, "schedule": schedule, "fixed_labels": fixed},
            "grid": {"param": "aux_size", "values": [50, 500, 5000]},
            "seeds": args.seeds,
        }
        run(["sweep", "--config", write(args.out / f"size_{tag}.json", size_sweep),
             "--out", str(args.out)])
        print(f"\npool size ({tag} labels)   mean acc   (std)")
        with open(args.out / f"size_{tag}_sweep.csv", newline="") as f:
            for row in csv.DictReader(f):
                if row["seed"] == "":
                    print(f"{row['value']:<24s} {float(row['mean_acc']):.3f}    ({float(row['std_acc']):.3f})")


if __name__ == "__main__":
    main()
