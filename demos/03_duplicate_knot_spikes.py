"""The duplicate-knot spikes in the variational objective.

Sweeps the location of a sixth knot across a converged five-knot fit. At a
generic location the extra knot buys a real improvement; exactly on top of
an existing knot it adds no new span, so the objective collapses to the
five-knot baseline (up to a tiny nugget-recovery effect). The resulting
sharp dips carve the proposal surface into separated humps, which is why
the Bayesian-optimization proposal refuses to condition on duplicate
locations.

Run:  python3 demos/03_duplicate_knot_spikes.py
"""

from pathlib import Path

import numpy as np

from knotgp.demos import spike_demo

out = Path(__file__).parent / "out"
result = spike_demo(seed=0, out_dir=out, jitter_ratio=1e-3)

base = result["baseline"]
grid = result["grid"]
sweep = result["objective"]

print(f"five-knot baseline objective: {base:.4f}")
print(f"sweep over {grid.size} candidate locations: "
      f"gain ranges from {np.min(sweep - base):.2e} to {np.max(sweep - base):.2e}")
print("\nknot      gain at knot   gain at +2%   gain at -2%")
for k, at, plus, minus in zip(result["knots"], result["at_knots"],
                              result["plus_offset"], result["minus_offset"]):
    print(f"{k:+.4f}   {at - base:12.3e}  {plus - base:12.3e}  {minus - base:12.3e}")

print("\nthe gain at each knot collapses toward zero while both neighbours "
      "gain on the order of one nat: the sweep dips to the baseline exactly "
      "at the duplicates (monotonicity keeps every gain nonnegative).")
print(f"full sweep written to {out / 'spike.csv'} — plot objective against "
      "sixth_knot_location to see the dips.")
