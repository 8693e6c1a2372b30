"""Checks of the benchmark itself: its gate can fail and its counts repeat.

    python3 -m pytest -q perfbench/test_perfbench.py    # from the repository root
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_confpair()

import confpair  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from confpair.pairing import GramMatrix, PairingResult  # noqa: E402


def error_rate(ops):
    _, attempted, failed, _ = run.run_plain(ops, seconds=0)
    return failed / attempted


def flip_one_sign(g, f, d):
    """The real pairing, except one nonzero entry changes sign."""
    res = confpair.pair_basis(g, f, d)
    if g.edges == ((1, 2),) and res.value:
        return PairingResult(-res.value, res.beta_witness)
    return res


def verify_op(pair_fn=None):
    return workloads.Op("verify_perfect n=5",
                        lambda: confpair.verify_perfect(5, 2, pair_fn=pair_fn),
                        lambda out: workloads.check_perfect(out, 5, 2))


def test_verify_gate_fails_on_a_flipped_sign():
    assert error_rate([verify_op()]) == 0
    assert error_rate([verify_op(flip_one_sign)]) > 0


def test_verify_gate_reads_the_gram_entries(monkeypatch):
    """A sign flipped on the Gram path the workload runs, with a verdict
    (GramMatrix.failures) that misses it, still fails the oracle."""
    real = confpair.pairing.pair_basis

    def flip_degree_two(g, f, d):
        res = real(g, f, d)
        return PairingResult(-res.value, res.beta_witness) if len(g.edges) == 2 else res

    monkeypatch.setattr(confpair.pairing, "pair_basis", flip_degree_two)
    monkeypatch.setattr(GramMatrix, "failures", lambda self: [])
    report = confpair.verify_perfect(5, 2)
    assert report.ok  # the broken verdict passes it
    assert error_rate([verify_op()]) > 0


def _bump_first(out):
    elem, c = next(iter(out))
    return out + confpair.LinCombo.single(elem, 1)


def _drop_first(out):
    elem, c = next(iter(out))
    return out - confpair.LinCombo.single(elem, c)


def test_normalize_gate_fails_on_a_mutated_output():
    ops = [op for op in workloads.normalize_ops(0) if op.label.startswith("forest n=7")][:3]
    assert error_rate(ops) == 0
    for mutate in (_bump_first, _drop_first):
        mutated = [workloads.Op(op.label, lambda op=op, m=mutate: m(op.run()), op.check)
                   for op in ops]
        assert error_rate(mutated) > 0


def test_cli_gate_fails_on_a_wrong_value():
    good = workloads.Op("pair", lambda: workloads.run_cli(
        ["pair", "--d", "3", "--graph", "n=3; 1->2, 2->3", "--forest", "[[2,1],3]"]),
        workloads.cli_checker(workloads._expect_value(-1, "text")))
    wrong = good._replace(check=workloads.cli_checker(workloads._expect_value(1, "text")))
    assert error_rate([good]) == 0
    assert error_rate([wrong]) > 0


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        metrics, _, failed, counts_differ = run.run_traced(workloads.cli_ops(3), seconds=0)
        assert failed == 0 and not counts_differ
        counts.append({k: v for k, (v, unit, _) in metrics.items() if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["pairing.pair_basis.calls"] > 0


def test_reference_counts():
    stored = json.loads(reference.REFERENCE.read_text(encoding="utf-8"))
    assert reference.case_counts() == stored["cases"]
    assert reference.workload_counts() == stored["workloads"]


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
