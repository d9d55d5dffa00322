#!/usr/bin/env python3
"""OOD-detection comparison: plain cross entropy vs outlier exposure vs
open-sampling, scored by maximum softmax probability over synthetic
anomaly pools (FPR95 / AUROC / AUPR, averaged across pools)."""

import csv
import json

from _drivers import LT5, data, options, run, train


def main():
    args = options(__doc__, "results/ood", epochs=120, seed=0)
    run(args.out, "synth", LT5)

    methods = {
        "msp": {"method": "standard"},
        "oe": {"method": "oe", "eta": 0.5},
        "open-sampling": {"method": "open-sampling", "eta": 1.5},
    }
    pools = [
        {"name": "gaussian", "kind": "gaussian", "size": 1000, "seed": 31, "sigma": 3.0},
        {"name": "rademacher", "kind": "rademacher", "size": 1000, "seed": 32},
        {"name": "blobs", "kind": "blobs", "size": 1000, "seed": 33},
    ]
    print("\nmethod          test acc   fpr95   auroc   aupr (pool average)")
    for name, section in methods.items():
        run(args.out, name, {
            "command": "train", "name": name, "data": data(aux=section["method"] != "standard"),
            "model": {"hidden_dim": 8},
            "train": train(section, args.epochs),
            "seeds": [args.seed],
        })
        run(args.out, f"{name}_eval", {
            "command": "eval-ood", "name": f"{name}_eval",
            "checkpoint": f"{name}_seed{args.seed}.osnn",
            "test": "lt5_test.osds",
            "pools": pools,
        })
        result = json.loads((args.out / f"{name}_seed{args.seed}_result.json").read_text())
        with open(args.out / f"{name}_eval_ood.csv", newline="") as f:
            avg = [row for row in csv.DictReader(f) if row["pool"] == "average"][0]
        print(f"{name:<15s} {result['final']['overall_acc']:.3f}      "
              f"{float(avg['fpr95']):.3f}   {float(avg['auroc']):.3f}   {float(avg['aupr']):.3f}")


if __name__ == "__main__":
    main()
