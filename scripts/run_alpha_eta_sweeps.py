#!/usr/bin/env python3
"""Sensitivity sweeps: regularization strength eta and flatness alpha.

The alpha grid includes "mcd" (the minimum distribution) and "M" (the
default max-beta + min-beta rule) alongside numeric values approaching the
uniform limit.
"""

from _drivers import LT5, data, options, run, show, train


def main():
    args = options(__doc__, "results/sweeps", epochs=120, seeds=[0, 1, 2])
    run(args.out, "synth", LT5)

    common = {
        "data": data(),
        "model": {"hidden_dim": 8},
        "seeds": args.seeds,
    }
    grids = {
        "eta": ({}, [0.0, 0.5, 1.0, 1.5, 2.0, 5.0]),
        "alpha": ({"eta": 1.5}, ["mcd", "M", 1.0, 2.0, 5.0, 50.0]),
    }
    for param, (fixed, values) in grids.items():
        sweep = {
            "command": "sweep", "name": param,
            "train": train({"method": "open-sampling", **fixed}, args.epochs),
            "grid": {"param": param, "values": values},
            **common,
        }
        run(args.out, param, sweep)
        print(f"\n{param:<14s} mean acc   (std)")
        show(args.out / f"{param}_sweep.csv", 14)


if __name__ == "__main__":
    main()
