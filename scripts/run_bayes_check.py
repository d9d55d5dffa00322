#!/usr/bin/env python3
"""Exact Bayes-mixture report: invariance under uniform auxiliary labels,
single-class toxicity stress, and the rebalancing/toxicity trade-off grid."""

import json

from _drivers import options, run


def main():
    args = options(__doc__, "results/bayes", cases=1000)
    config = {
        "command": "bayes-check", "name": "oracle", "seed": 0,
        "cases": args.cases, "max_support": 20, "max_classes": 10,
        "one_hot_stress": {"cases": 100, "m_scale": 100.0},
        "rebalance": {
            "counts": [500, 158, 50, 16, 5],
            "alphas": [0.7, 0.8, 1.0, 2.0, 10.0],
            "aux_sizes": [0, 500, 1796, 5000, 20000],
            "support": 16,
        },
    }
    run(args.out, "bayes", config)

    report = json.loads((args.out / "oracle_bayes.json").read_text())
    uni = report["uniform"]
    print(f"uniform labels: {uni['cases']} random cases, {uni['violations']} argmax flips")
    stress = report["one_hot_stress"]
    print(f"one-hot stress: constructed case flips {stress['constructed_flips']} "
          f"instance(s); {stress['random_cases_with_flips']}/{stress['random_cases']} "
          f"random cases flipped")
    print("\nalpha     aux size   prior ratio   flipped mass")
    for row in report["rebalance"]["rows"]:
        print(f"{row['alpha']:<9g} {row['aux_size']:<10g} {row['prior_ratio']:<13.3f} "
              f"{row['flipped_mass']:.4f}")


if __name__ == "__main__":
    main()
