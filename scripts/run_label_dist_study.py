#!/usr/bin/env python3
"""Label-distribution study on the synthetic long-tailed task.

Compares auxiliary-label distributions (complementary, uniform,
class-balanced, original prior) against the plain cross-entropy baseline,
reporting balanced-test accuracy and tail-class accuracy per variant.
"""

from _drivers import LT5, data, mean_acc, options, run, show, train


def main():
    args = options(__doc__, "results/label_dist", epochs=120, seeds=[0, 1, 2, 3, 4])
    run(args.out, "synth", LT5)

    sweep = {
        "command": "sweep", "name": "labels",
        "data": data(),
        "model": {"hidden_dim": 8},
        "train": train({"method": "open-sampling", "eta": 1.5}, args.epochs),
        "grid": {"param": "label_dist",
                 "values": ["complementary", "uniform", "class-balanced", "original-prior"]},
        "seeds": args.seeds,
        "group_thresholds": [20, 100],
    }
    run(args.out, "sweep", sweep)

    baseline = {
        "command": "train", "name": "standard",
        "data": data(aux=False),
        "model": {"hidden_dim": 8},
        "train": train({"method": "standard"}, args.epochs),
        "seeds": args.seeds,
    }
    run(args.out, "baseline", baseline)

    print("\nlabel distribution     mean acc   (std)")
    show(args.out / "labels_sweep.csv", 22)
    print(f"{'standard baseline':<22s} {mean_acc(args.out, 'standard', args.seeds):.3f}")
    print(f"\nfull tables in {args.out}/")


if __name__ == "__main__":
    main()
