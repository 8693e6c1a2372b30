#!/usr/bin/env python3
"""Write reference.json: reference counts of the traced benchmark, and the
machine they came from.

    python3 perfbench/reference.py

Run it from the repository root.  The counts are exact and depend only on
the code under src/, so they must match on any machine; a change that
moves one says so, and test_perfbench.py compares them with the stored
file.  `cases` are four single calls: the Gram check at n=6, the 5-leaf
duality sweep, the star at n=8 and the right comb at n=10.  `workloads`
holds every count metric of one traced job of each workload at seed 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
CASE_KEYS = ("pairing.pair_basis.calls", "pairing.pair_basis.nonzero",
             "lincombo.add.calls", "lincombo.add.terms_copied")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def traced_counts(ops):
    """Count metrics of one traced job of ops, as run.py's --trace 1 takes them."""
    metrics, _, failed, _ = run.run_traced(ops, seconds=0)
    if failed:
        raise RuntimeError("an operation failed its oracle")
    return {name: value for name, (value, unit, _) in metrics.items() if unit != "s"}


def case_counts():
    import confpair
    import workloads
    from confpair import Forest, Graph, LinCombo, Tree

    def duality_d2():
        for tau in confpair.all_two_level_trees(5):
            confpair.check_duality(tau, 2)

    cases = {
        "verify_perfect n=6 d=2": lambda: confpair.verify_perfect(6, 2),
        "check_duality 5 leaves d=2": duality_d2,
        "normalize_siop star n=8 d=2": lambda: confpair.normalize_siop(
            Graph(8, tuple((1, j) for j in range(2, 9))), 2),
        "normalize_pois right comb n=10 d=2": lambda: confpair.normalize_pois(
            LinCombo.single(Forest((Tree(workloads.right_comb(10)),), 10)), 2),
    }
    out = {}
    for label, fn in cases.items():
        counts = traced_counts([workloads.Op(label, fn, lambda out: None)])
        out[label] = {name: counts[name] for name in CASE_KEYS}
    return out


def workload_counts():
    import workloads

    return {name: traced_counts(workloads.build(name, REFERENCE_SEED)) for name in run.WORKLOADS}


def main():
    run.import_confpair()
    machine = {**run.metadata(REFERENCE_SEED), "cpu": cpu_model()}
    payload = {"seed": REFERENCE_SEED, "machine": machine,
               "cases": case_counts(), "workloads": workload_counts()}
    REFERENCE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
