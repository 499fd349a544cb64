"""Command line entry points: fit, experiment, spike-demo, synth-demo."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, demos


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--verbose", action="store_true", help="log progress")


def _apply_overrides(config: bench.ExperimentConfig, args) -> bench.ExperimentConfig:
    oat = config.oat
    if args.seed is not None:
        config.rng_seed = args.seed
        oat = replace(oat, rng_seed=args.seed)
    if getattr(args, "max_knots", None) is not None:
        oat = replace(oat, max_knots=args.max_knots)
    if getattr(args, "proposal", None) is not None:
        oat = replace(oat, proposal=args.proposal)
    if getattr(args, "objective", None) is not None:
        oat = replace(oat, objective=args.objective)
    config.oat = oat
    if args.out is not None:
        config.output_dir = args.out
    return config


def _usage_error(args, err) -> int:
    """Report ``err`` on one stderr line; 2 is argparse's exit code for a
    usage error."""
    print(f"knotgp {args.command}: error: {err}", file=sys.stderr)
    return 2


def _cmd_fit(args) -> int:
    config = args.config
    try:
        table = bench.load_csv(config.dataset_path, config.predictor_columns,
                               config.target_column, config.filter_rules)
        _, dataset, _ = next(bench.experiment_runs(config, table))
    except (OSError, ValueError) as err:        # an unreadable dataset or split
        return _usage_error(args, err)
    entry = bench.RosterEntry("fit", "OAT-BO" if config.oat.proposal == "bo" else "OAT-RS",
                              config.oat.objective.upper())
    result, _, _ = bench._fit_entry(0, entry, config, dataset, config.oat.rng_seed, {})
    params = result.final_params
    report = {
        "objective": result.trace["objective"],
        "mnlp": result.metrics.mnlp,
        "srmse": result.metrics.srmse,
        "knots": result.metrics.knot_count,
        "params": {
            "signal_variance": params.signal_variance,
            "lengthscale": params.lengthscale,
            "noise_variance": params.noise_variance,
        },
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "fit.json", "w") as handle:
            json.dump({**report, "trace": result.trace["selection"]}, handle, indent=2,
                      sort_keys=True)
    return 0


def _cmd_experiment(args) -> int:
    try:
        results, ok = bench.run_experiment(args.config)
    except (OSError, ValueError) as err:        # a failed model is recorded, not raised
        return _usage_error(args, err)
    print(f"wrote {len(results)} result rows to {args.config.output_dir}")
    return 0 if ok else 1


def _cmd_spike_demo(args) -> int:
    result = demos.spike_demo(seed=args.seed if args.seed is not None else 0,
                              out_dir=args.out or "spike-demo-out")
    knots = result["knots"]
    base = result["baseline"]
    jitter_ratio = result["model"].params.jitter_ratio
    print(f"baseline objective (5 knots, jitter ratio {jitter_ratio:g}): {base:.6f}")
    for k, at, plus, minus in zip(knots, result["at_knots"], result["plus_offset"],
                                  result["minus_offset"]):
        marker = ("spike: duplicate gain collapses toward the baseline"
                  if (at - base) < 0.5 * min(plus - base, minus - base)
                  else "no spike")
        print(f"knot {k:+.4f}: gain at knot {at - base:+.6f}, "
              f"at +2% {plus - base:+.6f}, at -2% {minus - base:+.6f} [{marker}]")
    return 0


def _cmd_synth_demo(args) -> int:
    result = demos.synth_demo(seed=args.seed if args.seed is not None else 0,
                              out_dir=args.out or "synth-demo-out",
                              max_knots=args.max_knots or 30)
    model = result["oat_model"]
    refined = result["refined_model"]
    print(f"OAT-BO objective: {model.objective():.6f} with {model.n_knots} knots")
    print(f"refined objective: {refined.objective():.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="knotgp",
                                     description="sparse GP regression benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a single OAT model on experiment run 0's split")
    fit.add_argument("--config", required=True, help="experiment config JSON")
    fit.add_argument("--max-knots", type=int, default=None)
    fit.add_argument("--proposal", choices=["bo", "rs"], default=None)
    fit.add_argument("--objective", choices=["vfe", "fic"], default=None)
    _add_common(fit)
    fit.set_defaults(func=_cmd_fit)

    experiment = sub.add_parser("experiment", help="run the full roster protocol")
    experiment.add_argument("--config", required=True, help="experiment config JSON")
    experiment.add_argument("--max-knots", type=int, default=None)
    _add_common(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    spike = sub.add_parser("spike-demo",
                           help="sweep a sixth knot across a five-knot 1-d fit")
    _add_common(spike)
    spike.set_defaults(func=_cmd_spike_demo)

    synth = sub.add_parser("synth-demo", help="300-point 1-d OAT walkthrough")
    synth.add_argument("--max-knots", type=int, default=None)
    _add_common(synth)
    synth.set_defaults(func=_cmd_synth_demo)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if hasattr(args, "config"):         # fit and experiment get the loaded config
        try:
            args.config = _apply_overrides(bench.ExperimentConfig.from_json(args.config), args)
        except (OSError, TypeError, ValueError) as err:
            return _usage_error(args, err)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
