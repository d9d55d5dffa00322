#!/usr/bin/env python3
"""Auxiliary-pool studies: pool kind, pool size, and the fixed-label variant.

Each synthetic pool kind is generated at the same size, trained with the
same open-sampling configuration, then the pool-size sweep reruns the
shifted-mixture pool truncated to each size, with labels either resampled
every iteration or pinned once per instance.
"""

from _drivers import LT5, data, mean_acc, options, run, show, train


def main():
    args = options(__doc__, "results/pools", epochs=120, seeds=[0, 1, 2])
    kinds = ["shifted-mixture", "gaussian", "rademacher", "blobs"]
    for kind in kinds:
        aux = LT5["aux"] if kind == "shifted-mixture" else {"kind": kind, "size": 5000}
        run(args.out, f"synth_{kind}", {**LT5, "name": f"lt5_{kind}", "aux": aux})

    method = {"method": "open-sampling", "eta": 1.5}
    print("\npool kind         mean acc")
    for kind in kinds:
        run(args.out, f"train_{kind}", {
            "command": "train", "name": f"by_{kind}", "data": data(f"lt5_{kind}"),
            "model": {"hidden_dim": 8}, "train": train(method, args.epochs), "seeds": args.seeds,
        })
        print(f"{kind:<17s} {mean_acc(args.out, f'by_{kind}', args.seeds):.3f}")

    for tag in ("fresh", "fixed"):
        run(args.out, f"size_{tag}", {
            "command": "sweep", "name": f"size_{tag}", "data": data("lt5_shifted-mixture"),
            "model": {"hidden_dim": 8},
            "train": train(method, args.epochs, fixed_labels=tag == "fixed"),
            "grid": {"param": "aux_size", "values": [50, 500, 5000]},
            "seeds": args.seeds,
        })
        print(f"\npool size ({tag} labels)   mean acc   (std)")
        show(args.out / f"size_{tag}_sweep.csv", 24)


if __name__ == "__main__":
    main()
