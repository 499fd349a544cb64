"""Seeded regret suite for the Bayesian-optimization knot proposal.

A state is one Airfoil-scale synthetic problem (the recipe of acceptance test
c09: 1,202 rows, d=5, standardized targets), its k-means knots and the
covariance parameters that the sparse search fits with those knots held
fixed. States are built by k-means and the parameter-only search alone, so
two trees that differ only in their proposals build the same states; each
case records its state's objective so that ``--compare`` can check this.

For every state the objective's gain from each pool row (every training
input) is scored by a rebuild of the larger model, for VFE and FIC alike.
``propose_bo(model, x, 30, 10, seed)`` then runs once per round seed, and a
case's regret is ``1 - gain(pick) / best gain over the pool``.

    PYTHONPATH=src python tests/regret_suite.py --out regret.json
    python tests/regret_suite.py --compare before.json after.json

``--compare`` prints, per objective, the mean regret of both files and the
paired mean difference (second minus first) with a seeded 95% bootstrap
interval. The bootstrap resamples states, not cases, because the round
seeds of one state share its pool and model.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from knotgp import KernelParams, NumericalError, SparseGPModel, kmeans_init, propose_bo
from knotgp.adadelta import OptimizerConfig
from knotgp.selection import _OBJECTIVE_APPROX, _optimize_params_and_knot

INIT_PARAMS = KernelParams(1.0, 1.0, 0.1)
BUDGET, INITIAL_DESIGN = 30, 10


def airfoil_rows(seed: int, n_rows: int):
    """The c09 recipe with standardized targets."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_rows, 5))
    y = (np.sin(x[:, 0]) + 0.6 * np.cos(1.3 * x[:, 1]) + 0.3 * x[:, 2]
         + 0.25 * rng.standard_normal(n_rows))
    return x, (y - y.mean()) / y.std()


def build_state(objective: str, seed: int, n_knots: int, n_rows: int) -> SparseGPModel:
    x, y = airfoil_rows(seed, n_rows)
    start = SparseGPModel(_OBJECTIVE_APPROX[objective], x, y, INIT_PARAMS,
                          kmeans_init(x, n_knots, seed))
    return _optimize_params_and_knot(start, None, OptimizerConfig())[0]


def rebuilt_gains(model: SparseGPModel, pool: np.ndarray) -> np.ndarray:
    """Gain of each pool row by a rebuild; -inf where the rebuild raises."""
    base = model.objective()
    gains = np.empty(pool.shape[0])
    for i, row in enumerate(pool):
        try:
            gains[i] = SparseGPModel(model.approx, model.x, model.y, model.params,
                                     np.vstack([model.knots.locations, row]),
                                     model.mean_constant).objective() - base
        except NumericalError:
            gains[i] = -np.inf
    return gains


def state_cases(objective: str, seed: int, n_knots: int, n_rows: int, rounds: int) -> list:
    model = build_state(objective, seed, n_knots, n_rows)
    pool = model.x
    gains = rebuilt_gains(model, pool)
    best = float(np.max(gains))
    cases = []
    for r in range(rounds):
        t0 = time.perf_counter()
        pick = propose_bo(model, pool, BUDGET, INITIAL_DESIGN,
                          np.random.SeedSequence([seed, n_knots, r]))
        seconds = time.perf_counter() - t0
        gain = float(gains[np.flatnonzero((pool == pick).all(axis=1))[0]])
        cases.append({"objective": objective, "seed": seed, "knots": n_knots, "round": r,
                      "state_objective": model.objective().hex(), "best_gain": best,
                      "pick_gain": gain,
                      "regret": 1.0 - gain / best if best > 0.0 else None,
                      "propose_seconds": seconds})
    return cases


def run_suite(objectives, seeds, knots, rounds: int, n_rows: int) -> dict:
    cases = []
    for objective in objectives:
        for n_knots in knots:
            for seed in seeds:
                cases.extend(state_cases(objective, seed, n_knots, n_rows, rounds))
    settings = {"objectives": list(objectives), "seeds": list(seeds), "knots": list(knots),
                "rounds": rounds, "rows": n_rows, "budget": BUDGET,
                "initial_design": INITIAL_DESIGN}
    return {"settings": settings, "cases": cases}


def compare(before: dict, after: dict, resamples: int = 10_000, seed: int = 0) -> dict:
    """Per objective: case count, both mean regrets, the paired mean
    difference (after - before) and its 95% state-bootstrap interval."""
    def key(case):
        return case["objective"], case["seed"], case["knots"], case["round"]

    first = {key(c): c for c in before["cases"]}
    second = {key(c): c for c in after["cases"]}
    if first.keys() != second.keys():
        raise ValueError("the two suites hold different cases")
    rng = np.random.default_rng(seed)
    out = {}
    for objective in sorted({k[0] for k in first}):
        by_state: dict = {}
        pairs = []
        for k in sorted(k for k in first if k[0] == objective):
            a, b = first[k], second[k]
            if a["state_objective"] != b["state_objective"]:
                raise ValueError(f"state {k[:3]} differs between the two suites")
            if a["regret"] is None:
                continue
            pairs.append((a["regret"], b["regret"]))
            by_state.setdefault(k[1:3], []).append(b["regret"] - a["regret"])
        states = list(by_state.values())
        sums = np.array([sum(d) for d in states])
        counts = np.array([len(d) for d in states])
        picks = rng.integers(0, len(states), size=(resamples, len(states)))
        boot = sums[picks].sum(axis=1) / counts[picks].sum(axis=1)
        a, b = np.array(pairs).T
        out[objective] = {"cases": len(pairs), "states": len(states),
                          "before": float(a.mean()), "after": float(b.mean()),
                          "difference": float((b - a).mean()),
                          "interval": [float(q) for q in np.quantile(boot, [0.025, 0.975])]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the suite's cases to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two suite files instead of running one")
    parser.add_argument("--objectives", nargs="+", default=["vfe", "fic"],
                        choices=sorted(_OBJECTIVE_APPROX))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 21)))
    parser.add_argument("--knots", nargs="+", type=int, default=[5, 8, 12, 16, 24])
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--rows", type=int, default=1202)
    args = parser.parse_args(argv)
    if args.compare:
        files = [json.loads(open(path).read()) for path in args.compare]
        for objective, r in compare(*files).items():
            lo, hi = r["interval"]
            print(f"{objective}: {r['cases']} cases over {r['states']} states, mean regret "
                  f"{r['before']:.4f} -> {r['after']:.4f}, difference {r['difference']:+.4f} "
                  f"[{lo:+.4f}, {hi:+.4f}]")
        return
    if not args.out:
        parser.error("--out is required unless --compare is given")
    suite = run_suite(args.objectives, args.seeds, args.knots, args.rounds, args.rows)
    with open(args.out, "w") as handle:
        json.dump(suite, handle, indent=1)


if __name__ == "__main__":
    main()
