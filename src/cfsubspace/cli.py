"""Batch CLI: run the full pipeline from a config file and/or flags.

Usage:
    simulate --config params.json --N 61 --layouts 5 --fading 20 --out results/

Flags override file values; missing values fall back to the built-in defaults
(L=40, M=16, K=100, tau_p=15, N=19, lambda=0.25, delta=pi/8, Q=10, eta=1,
T=200, 2000 m area). Exit code 0 on success, 2 on validation or I/O errors.
"""

import argparse
import json
import sys
from pathlib import Path

from .experiment import load_config, run_experiment, write_results


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Cell-free uplink simulation with SRS hopping and "
                    "robust-PCA subspace estimation.")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--L", type=int, help="number of RUs")
    p.add_argument("--M", type=int, help="antennas per RU")
    p.add_argument("--K", type=int, help="number of UEs")
    p.add_argument("--N", type=int, help="SRS subcarriers / Latin square order (prime)")
    p.add_argument("--S", type=int, help="SRS sequence length (default N)")
    p.add_argument("--lambda", dest="lam", type=float, help="outlier pursuit weight")
    p.add_argument("--tau-p", dest="tau_p", type=int, help="DMRS pilot dimension")
    p.add_argument("--delta", type=float, help="angular support width (radians)")
    p.add_argument("--Q", type=int, help="maximum cluster size")
    p.add_argument("--eta", type=float, help="association SNR threshold")
    p.add_argument("--T", type=int, help="resource block size (symbols)")
    p.add_argument("--area", dest="area_side", type=float, help="square side (m)")
    p.add_argument("--layouts", dest="n_layouts", type=int, help="number of layouts")
    p.add_argument("--fading", dest="n_fading", type=int,
                   help="fading draws per layout")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--kinds", help="comma list from: ideal,sp,pp,pm")
    p.add_argument("--workers", type=int, help="parallel layout workers")
    p.add_argument("--out", dest="output_dir", help="output directory")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    if overrides.get("kinds") is not None:
        overrides["kinds"] = [s.strip() for s in overrides["kinds"].split(",") if s.strip()]
    try:
        config = load_config(args.config, overrides)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"simulate: invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:        # before the run, so a bad --out loses no layout
        Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"simulate: cannot create output directory {config.output_dir}: "
              f"{exc}", file=sys.stderr)
        return 2
    print(f"running {config.n_layouts} layout(s), kinds={list(config.kinds)}, "
          f"seed={config.seed}")
    result = run_experiment(config, progress=True)
    try:
        summary = write_results(result, config.output_dir, config)
    except OSError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    for kind, stats in summary["kinds"].items():
        med = stats["median_se"]
        med_txt = "n/a" if med is None else f"{med:.4f}"
        print(f"  {kind}: median SE = {med_txt} over {stats['n_ues']} UE records")
    print(f"results written to {config.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
