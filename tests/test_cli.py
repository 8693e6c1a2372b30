import json
import os
import random
import shlex
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest

import confpair.cli
from confpair.cli import SIZE_BUDGET, _combo_json, _compact, _json_order, main
from confpair.graphs import Graph, graph_to_json, parse_graph
from confpair.lincombo import LinCombo
from confpair.normalize import long_support, tall_support
from confpair.pairing import pair_basis, poincare_coefficients, verify_perfect
from confpair.trees import Forest, forest_to_json, parse_forest

from conftest import random_forest


def left_comb(levels):
    """[[...[1,2],3]...,levels+1]: `levels` nested brackets."""
    text = "1"
    for lab in range(2, levels + 2):
        text = f"[{text},{lab}]"
    return text


def right_comb(n):
    """[1,[2,...[n-1,n]]]: its tall expansion has 2^(n-2) terms."""
    text = str(n)
    for lab in range(n - 1, 0, -1):
        text = f"[{lab},{text}]"
    return text


def nested_otree(levels):
    return "(" * levels + "*,*" + ")" * levels


NINE_LEAVES = "(*,*,*,*,*,*,*,(*,*))"
SIX_LEAVES = "((*,*,*),(*,*,*))"
FOUR_POINTS = ["geom-check", "--forest", "[1,2] ; [3,4]", "--graph", "1->2, 3->4"]


def star(n):
    """n=n; 1->2, ..., 1->n: its long expansion has (n - 1)! terms."""
    return f"n={n}; " + ", ".join(f"1->{j}" for j in range(2, n + 1))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pair_command(capsys):
    code, out, _ = run(capsys, ["pair", "--d", "3",
                                "--graph", "n=3; 1->2, 2->3",
                                "--forest", "[[2,1],3]"])
    assert code == 0
    assert out.strip() == "-1"


def test_pair_json(capsys):
    code, out, _ = run(capsys, ["pair", "--d", "2", "--format", "json",
                                "--graph", "n=2; 1->2", "--forest", "[1,2]"])
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == 1
    assert payload["beta"]


def test_ranks_csv(capsys):
    code, out, _ = run(capsys, ["ranks", "--d", "3", "--n", "4"])
    assert code == 0
    assert out.splitlines() == ["degree,rank", "0,1", "2,6", "4,11", "6,6"]


def test_enumerate(capsys):
    code, out, _ = run(capsys, ["enumerate", "--kind", "long-graphs",
                                "--n", "3", "--k", "2"])
    assert code == 0
    assert sorted(out.splitlines()) == ["n=3; 1->2, 2->3", "n=3; 1->3, 3->2"]


def test_verify_pass(capsys):
    code, out, _ = run(capsys, ["verify", "--d", "2", "--n", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [r["size"] for r in payload["degrees"]] == [1, 10, 35, 50, 24]


def test_compose_command(capsys):
    code, out, _ = run(capsys, ["compose", "--outer", "[1,2]", "--index", "1",
                                "--inner", "[1,2]", "--d", "3"])
    assert code == 0
    assert out.strip() == "1 * [[1,2],3]"


def test_cooperad_command(capsys):
    code, out, _ = run(capsys, ["cooperad", "--graph", "n=5; 3->4",
                                "--otree", "(*,*,(*,*),*)", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    factors = {tuple(f["vertex"]): f["graph"] for f in payload["factors"]}
    assert factors[(2,)] == "n=2; 1->2"


def test_normalize_command(capsys):
    code, out, _ = run(capsys, ["normalize", "--kind", "pois",
                                "--input", "1 * [2,1]", "--d", "3"])
    assert code == 0
    assert out.strip() == "-1 * [1,2]"


def test_normalize_siop_stdin_style_combo(capsys):
    text = "1 * n=3; 1->2, 2->3\n1 * n=3; 2->3, 3->1\n1 * n=3; 3->1, 1->2"
    code, out, _ = run(capsys, ["normalize", "--kind", "siop",
                                "--input", text, "--d", "2"])
    assert code == 0
    assert out.strip() == ""


@pytest.mark.parametrize("d", ["2", "3"])
def test_normalize_siop_keeps_the_empty_graph(capsys, d):
    code, out, err = run(capsys, ["normalize", "--kind", "siop", "--input", "n=0", "--d", d])
    assert (code, out, err) == (0, "1 * n=0\n", "")


def test_normalize_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("1 * [2,1]\n"))
    code, out, _ = run(capsys, ["normalize", "--kind", "pois", "--d", "2"])
    assert code == 0
    assert out.strip() == "1 * [1,2]"


def test_geom_check(capsys):
    code, out, _ = run(capsys, ["geom-check", "--forest", "[1,2] ; [3]",
                                "--graph", "1->3", "--d", "3",
                                "--eps", "0.1,0.001", "--seed", "3",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][-1]["max_deviation"] < 1e-2


def test_geom_check_json_renders_both_inputs(capsys):
    code, out, _ = run(capsys, ["geom-check", "--forest", "[1,2] ; [3]", "--graph", "1->3",
                                "--d", "2", "--eps", "0.1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["forest"], payload["graph"]) == ("[1,2] ; 3", "n=3; 1->3")
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_an_otree_root_with_no_inputs(capsys):
    """duality refuses it, where it once checked 0 cases and passed; the
    cooperad split of the empty graph along it stays."""
    assert run(capsys, ["duality", "--otree", "()"]) == (
        2, "", "validation error: a root with no inputs has no composition meaning here\n")
    assert run(capsys, ["cooperad", "--otree", "()", "--graph", "n=0"]) == (
        0, "sign 1\nvertex []: n=0\n", "")


def test_duality_command(capsys):
    code, out, _ = run(capsys, ["duality", "--otree", "(*,(*,*))", "--d", "2",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, ["pair", "--graph", "n=3; 1->", "--forest", "[1,2]"])
    assert code == 1
    assert "parse error" in err


def test_validation_error_exit_code(capsys):
    code, _, err = run(capsys, ["pair", "--graph", "n=3; 1->2",
                                "--forest", "[1,1]"])
    assert code == 2
    assert "validation error" in err


def test_gram_identity_exit(capsys):
    code, out, _ = run(capsys, ["gram", "--n", "3", "--k", "2", "--d", "2"])
    assert code == 0
    assert "identity: True" in out


def test_byte_determinism(capsys):
    argv = ["verify", "--d", "3", "--n", "4", "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_cache_does_not_change_results(capsys, tmp_path):
    argv = ["gram", "--n", "4", "--k", "2", "--d", "3", "--format", "json"]
    _, plain, _ = run(capsys, argv)
    cached_argv = argv + ["--cache-dir", str(tmp_path)]
    _, first, _ = run(capsys, cached_argv)
    _, second, _ = run(capsys, cached_argv)
    assert plain == first == second


def test_cache_dir_is_ignored(capsys, tmp_path):
    tampered = {"schema": 1, "n": 4, "k": 2, "parity": "even",
                "entries": [[1 if r == c else 0 for c in range(11)] for r in range(11)]}
    tampered["entries"][0][0] = -1
    path = tmp_path / "gram_n4_k2_even.json"
    path.write_text(json.dumps(tampered), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, _ = run(capsys, ["verify", "--n", "4", "--d", "2",
                                "--cache-dir", str(tmp_path)])
    assert code == 0
    assert "ok: True" in out.splitlines()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv, code, prefix", [
    (["normalize", "--kind", "pois", "--input", "x * [2,1]"], 1, "parse error"),
    (["normalize", "--kind", "siop", "--input", "1 * n=2; 1->2\n1.5 * n=2; 2->1"],
     1, "parse error"),
    (["geom-check", "--forest", "[1,2]", "--graph", "1->2", "--eps", "abc"],
     1, "parse error"),
    (["geom-check", "--forest", "[1,2]", "--graph", "1->2", "--eps", "0.1,"],
     1, "parse error"),
    (["pair", "--d", "0", "--graph", "n=2; 1->2", "--forest", "[1,2]"],
     2, "validation error"),
    (["pair", "--d", "1", "--graph", "n=2; 1->2", "--forest", "[1,2]"],
     2, "validation error"),
    (["normalize", "--kind", "pois", "--input", "1 * [2,1]", "--d", "1"],
     2, "validation error"),
    (["compose", "--outer", "[1,2]", "--index", "1", "--inner", "[1,2]", "--d", "0"],
     2, "validation error"),
    (["cooperad", "--graph", "n=2; 1->2", "--otree", "(*,*)", "--d", "-3"],
     2, "validation error"),
    (["ranks", "--n", "3", "--d", "1"], 2, "validation error"),
    (["duality", "--otree", "(*,(*,*,*),(*,*))", "--trials", "0"],
     2, "validation error"),
    (["duality", "--otree", "(*,(*,*,*),(*,*))", "--trials", "-5"],
     2, "validation error"),
    (["enumerate", "--kind", "tall-forests", "--n", "0", "--k", "0"],
     2, "validation error"),
    (["enumerate", "--kind", "long-graphs", "--n", "0", "--k", "0"],
     2, "validation error"),
    (["enumerate", "--kind", "tall-forests", "--n", "12", "--k", "6"],
     2, "validation error"),
    (["enumerate", "--kind", "long-graphs", "--n", "12", "--k", "6"],
     2, "validation error"),
    (["gram", "--n", "7", "--k", "4", "--d", "2"], 2, "validation error"),
    (["gram", "--n", "12", "--k", "2", "--d", "2"], 2, "validation error"),
    (["enumerate", "--kind", "tall-forests", "--n", "3", "--k", "3"],
     2, "validation error"),
    (["gram", "--n", "3", "--k", "-1"], 2, "validation error"),
    (["normalize", "--kind", "siop", "--n", "5", "--input", "n=4; 2->1", "--format", "json"],
     2, "validation error"),
    (["gram", "--n", "995", "--k", "0"], 2, "validation error"),
    (["enumerate", "--kind", "long-graphs", "--n", "1000", "--k", "1"], 2, "validation error"),
    (["enumerate", "--kind", "long-graphs", "--n", "500", "--k", "1"], 2, "validation error"),
    (["enumerate", "--kind", "tall-forests", "--n", "5000", "--k", "1"], 2, "validation error"),
    (["ranks", "--n", "1700"], 2, "validation error"),
    (["duality", "--otree", NINE_LEAVES, "--trials", "1"], 2, "validation error"),
    (["normalize", "--kind", "pois", "--input", right_comb(18)], 2, "validation error"),
    (["normalize", "--kind", "pois", "--input", left_comb(1000)], 1, "parse error"),
    (["pair", "--graph", "n=1001", "--forest", left_comb(1000)], 1, "parse error"),
    (["cooperad", "--graph", "n=2", "--otree", nested_otree(600)], 1, "parse error"),
    (["normalize", "--kind", "siop", "--input", star(10)], 2, "validation error"),
    (["normalize", "--kind", "siop", "--input",
      "\n".join(star(9).replace(f"1->{j}", f"{j}->1") for j in (1, 2, 3))],
     2, "validation error"),
    (["verify", "--n", "0"], 2, "validation error"),
    (["verify", "--n", "-3"], 2, "validation error"),
    (FOUR_POINTS + ["--samples", "0"], 2, "validation error"),
    (FOUR_POINTS + ["--samples", "-4"], 2, "validation error"),
])
def test_cli_contract(capsys, argv, code, prefix):
    got, out, err = run(capsys, argv)
    assert got == code
    assert out == ""
    assert err.startswith(f"{prefix}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, text, pos", [
    ("pois", "1 * [2,1]\n2 * [1,x]", 17),
    ("pois", "1 * [2,1]\n  2 *   [1,2] ; [3,y]", 29),
    ("pois", "[2,1]\n[1,2] ; [3,", 17),
    ("siop", "1 * n=2; 1->2\n-1 * n=2; 2->x", 23),
    ("siop", "1 * n=2; 1->2\n n=2, 2->1", 15),
])
def test_normalize_parse_error_position_is_within_input(capsys, kind, text, pos):
    code, out, err = run(capsys, ["normalize", "--kind", kind, "--input", text])
    assert code == 1
    assert out == ""
    assert err.rstrip("\n").endswith(f"(at position {pos})")


@pytest.mark.parametrize("graph, pos", [
    ("1->x", 0),
    ("1->2, 2-3", 5),
    ("  1->2,1->3,3-", 12),
    ("n=3; 1->2, 2-3", 10),
])
def test_geom_check_parse_error_position_is_within_graph(capsys, graph, pos):
    code, out, err = run(capsys, ["geom-check", "--forest", "[1,2] ; [3]", "--graph", graph,
                                  "--d", "3", "--eps", "0.1"])
    assert code == 1
    assert out == ""
    assert err.rstrip("\n").endswith(f"(at position {pos})")


def test_size_budget_admits_the_working_sizes():
    sizes = poincare_coefficients(7)
    assert max(sizes) <= SIZE_BUDGET  # enumerate up to n=7
    assert max(poincare_coefficients(5)) ** 2 <= SIZE_BUDGET  # gram --n 5
    assert sizes[3] ** 2 <= SIZE_BUDGET  # gram --n 7 --k 3


def test_enumerate_streams_one_degree_of_a_large_n(capsys):
    code, out, err = run(capsys, ["enumerate", "--kind", "long-graphs",
                                  "--n", "12", "--k", "1"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 66
    assert lines[0] == "n=12; 11->12" and lines[-1] == "n=12; 1->12"


def test_positive_degrees_are_at_least_degree_one():
    """The log-concavity bound the size guard refuses large n by."""
    for n in range(4, 40):
        coeffs = poincare_coefficients(n)
        assert min(coeffs[1:]) == coeffs[1] == n * (n - 1) // 2


@pytest.mark.parametrize("argv", [
    ["gram", "--n", "995", "--k", "0"],
    ["enumerate", "--kind", "long-graphs", "--n", "1000", "--k", "1"],
    ["enumerate", "--kind", "tall-forests", "--n", "5000", "--k", "1"],
    ["ranks", "--n", "1700"],
    ["duality", "--otree", NINE_LEAVES, "--trials", "1"],
    ["normalize", "--kind", "pois", "--input", "3 * " + right_comb(18)],
    ["normalize", "--kind", "siop", "--input", "3 * " + star(10)],
    ["compose", "--outer", left_comb(11), "--index", "1", "--inner", "1 ; 2 ; 3"],
    ["compose", "--outer", left_comb(499), "--index", "2", "--inner", "1 ; 2"],
])
def test_oversize_input_is_refused_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the guard let the work start")
    for name in ("poincare_coefficients", "rank_table", "gram_matrix",
                 "enumerate_tall_forests", "enumerate_long_graphs",
                 "check_duality", "sample_duality", "normalize_pois", "normalize_siop",
                 "leibniz_terms", "tall_terms"):
        monkeypatch.setattr(f"confpair.cli.{name}", no_work)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("validation error: ")


@pytest.mark.parametrize("argv, pos", [
    (["normalize", "--kind", "pois", "--input", "[1,2]\n2 * " + left_comb(1000)], 510),
    (["pair", "--graph", "n=1003", "--forest", "1001 ; " + left_comb(1000)], 507),
    (["cooperad", "--graph", "n=3", "--otree", " (*," + nested_otree(600) + ")"], 503),
])
def test_nesting_is_refused_at_the_first_bracket_beyond_the_bound(capsys, argv, pos):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"parse error: nesting deeper than 500 levels (at position {pos})\n"


def test_deepest_admitted_nesting_still_runs(capsys):
    chain = ", ".join(f"{i}->{i + 1}" for i in range(1, 501))
    assert run(capsys, ["pair", "--graph", f"n=501; {chain}", "--forest", left_comb(500),
                        "--d", "2"]) == (0, "1\n", "")
    code, out, _ = run(capsys, ["cooperad", "--graph", "n=2; 2->1",
                                "--otree", nested_otree(500)])
    assert code == 0
    assert out.splitlines()[-1] == f"vertex {[0] * 499}: n=2; 2->1"


def test_size_budget_boundary_of_duality_and_the_tall_expansion():
    """8-leaf duality and the 17-leaf right comb fit; 9 leaves and 18 do not."""
    assert factorial(8) * 8 <= SIZE_BUDGET < factorial(9) * 9
    assert tall_support([(1, parse_forest(right_comb(17)).trees)]) * 17 <= SIZE_BUDGET
    assert tall_support([(1, parse_forest(right_comb(18)).trees)]) * 18 > SIZE_BUDGET


def test_size_budget_boundary_of_the_long_expansion():
    """The 9-vertex star fits, but not three times over; 10 vertices do not."""
    assert long_support(parse_graph(star(9))) * 9 <= SIZE_BUDGET
    assert 3 * long_support(parse_graph(star(9))) * 9 > SIZE_BUDGET
    assert long_support(parse_graph(star(10))) * 10 > SIZE_BUDGET


@pytest.mark.parametrize("outer, inner, verdict", [
    ("[1,2]", right_comb(17), 1),  # one forest of support 2^15: 589,824 labels
    ("[1,2]", right_comb(18), "the tall expansion needs 1245184 labels"),
    ("[1,2]", right_comb(500), "the tall expansion needs "),
    (left_comb(10), "1 ; 2 ; 3", 3 ** 10),  # each of support 1 and 13 labels: 767,637
    (left_comb(11), "1 ; 2 ; 3", "the Leibniz expansion has 177147 forests of 14 labels"),
], ids=["inner-17", "inner-18", "inner-500", "outer-11", "outer-12"])
def test_compose_size_guard_boundary(capsys, monkeypatch, outer, inner, verdict):
    """Refused: exit 2 before tall normalization.  Admitted: the Leibniz
    expansion reaches tall_terms, here a stub that counts its forests."""
    reduced = []

    def count_forests(terms, n, d):
        reduced.append(len(terms))
        return LinCombo.zero()
    monkeypatch.setattr("confpair.cli.tall_terms", count_forests)
    start = time.perf_counter()
    code, out, err = run(capsys, ["compose", "--outer", outer, "--index", "1", "--inner", inner])
    if isinstance(verdict, int):
        assert (code, out, err, reduced) == (0, "", "", [verdict])
    else:
        assert (code, out, reduced) == (2, "", [])
        assert err.startswith(f"validation error: {verdict}")
        assert time.perf_counter() - start < 1.0


def test_compose_keeps_its_message_for_a_bad_index(capsys):
    assert run(capsys, ["compose", "--outer", "[1,2]", "--index", "3", "--inner", "[1,2]"]) == (
        2, "", "validation error: composition index 3 out of range 1..2\n")


def readme_cli_examples():
    """The `confpair ...` lines of the README's CLI code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("confpair ")]


@pytest.mark.parametrize("line", readme_cli_examples(), ids=lambda line: line.split()[1])
def test_readme_cli_examples_run(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    if argv[0] == "pair":
        assert out == line.rsplit("#", 1)[1].strip() + "\n"


class Reached(Exception):
    """Raised by a stub standing in for the work a guard admitted."""


@pytest.mark.parametrize("argv, verdict", [
    (FOUR_POINTS + ["--samples", "100000000"],
     "100000000 samples at 3 eps need 3600000000 coordinates"),
    (["duality", "--otree", SIX_LEAVES, "--trials", "1000000000"],
     "1000000000 trials need 6000000000 labels"),
    (FOUR_POINTS + ["--samples", "20000"], None),  # 720,000 coordinates at d = 3
    (["duality", "--otree", SIX_LEAVES, "--trials", "2000"], None),  # 12,000 labels
    (FOUR_POINTS + ["--samples", "27777"], None),  # 999,972 coordinates, the most at d = 3
    (FOUR_POINTS + ["--samples", "27778"],  # 333,336 labels: admitted before d counted
     "27778 samples at 3 eps need 1000008 coordinates"),
], ids=["samples-1e8", "trials-1e9", "samples-20000", "trials-2000", "samples-27777",
        "samples-27778"])
def test_sample_counts_are_checked_before_any_work(capsys, monkeypatch, argv, verdict):
    """Refused: exit 2 within 1 s, before the sampler is called."""
    def reached(*args, **kwargs):
        raise Reached
    monkeypatch.setattr("confpair.cli.limit_check", reached)
    monkeypatch.setattr("confpair.cli.sample_duality", reached)
    if verdict is None:
        with pytest.raises(Reached):
            main(argv)
        return
    start = time.perf_counter()
    assert run(capsys, argv) == (
        2, "", f"validation error: {verdict}, above the budget of {SIZE_BUDGET}\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("outer, inner", [(500, 500), (300, 300), (251, 250)])
def test_compose_refuses_a_result_nested_too_deep(capsys, outer, inner):
    """Leaf 1 of the k-level left comb sits under k brackets, and the inner
    comb adds its own depth; the sum above MAX_NESTING is refused."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["compose", "--outer", left_comb(outer), "--index", "1",
                                  "--inner", left_comb(inner)])
    assert (code, out) == (2, "")
    assert err == (f"validation error: the composite nests up to {outer + inner} levels, "
                   f"deeper than 500\n")
    assert time.perf_counter() - start < 1.0


def test_compose_at_the_nesting_bound_runs_and_parses_back(capsys):
    code, out, err = run(capsys, ["compose", "--outer", left_comb(250), "--index", "1",
                                  "--inner", left_comb(250)])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1
    coeff, forest_text = lines[0].split(" * ")
    assert abs(int(coeff)) == 1
    assert parse_forest(forest_text).n == 501


def test_size_counts_past_fifteen_digits_print_as_a_power_of_ten():
    assert _compact(0) == "0" and _compact(-4) == "-4"
    assert _compact(10 ** 15 - 1) == "999999999999999"
    for k in list(range(15, 2100)) + [5738, 100_000]:  # log10 rounds 10^512 below 512
        assert _compact(10 ** k) == _compact(10 ** k + 1) == f"more than 10^{k}"
        assert _compact(10 ** (k + 1) - 1) == f"more than 10^{k}"
    assert _compact(factorial(2000) * 2000) == "more than 10^5738"


@pytest.mark.parametrize("argv", [
    ["compose", "--outer", "[1,2]", "--index", "1", "--inner", right_comb(500)],
    ["compose", "--outer", left_comb(499), "--index", "1", "--inner", "1 ; 2 ; 3"],
    ["normalize", "--kind", "pois", "--input", right_comb(500)],
    ["duality", "--otree", "(" + ",".join(["*"] * 2000) + ")"],  # 5,739 digits
], ids=["compose-inner", "compose-outer", "normalize", "duality"])
def test_huge_sizes_are_refused_on_one_short_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 121
    assert "more than 10^" in err


@pytest.mark.parametrize("argv, n", [
    (["normalize", "--kind", "pois", "--d", "3", "--input", "1 * [2,1]\n1 * [1,2]"], 2),
    (["normalize", "--kind", "pois", "--input", "0 * [1,2]"], 2),
    (["normalize", "--kind", "siop", "--input", "1 * n=3; 1->2, 2->1"], 3),
])
def test_normalize_json_reports_the_input_n_for_a_zero_result(capsys, argv, n):
    assert run(capsys, argv + ["--format", "json"]) == (0, f'{{"n": {n}, "terms": []}}\n', "")
    assert run(capsys, argv) == (0, "", "")


@pytest.mark.parametrize("digits", [300, 400])
def test_ranks_refuses_a_huge_n_on_one_short_line(capsys, digits):
    """Any n above the budget is refused by integer comparison, before
    lgamma would convert it to float."""
    n = 10 ** (digits - 1) + 7
    assert run(capsys, ["ranks", "--n", str(n)]) == (
        2, "", f"validation error: more than 10^{digits - 1} ranks need at least as many "
               f"digits, above the budget of {SIZE_BUDGET}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_verify_prints_the_same_report_as_the_per_entry_oracle(capsys, monkeypatch, d, fmt):
    """`python -m confpair verify` reads its Gram blocks off the batch
    kernel; the report built with one pair_basis call per entry prints
    byte for byte the same, with the same exit code."""
    argv = ["verify", "--n", "5", "--d", str(d), "--format", fmt]
    src = Path(__file__).resolve().parents[1] / "src"
    kernel = subprocess.run([sys.executable, "-m", "confpair"] + argv, capture_output=True,
                            text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    monkeypatch.setattr("confpair.cli.verify_perfect",
                        lambda n, d: verify_perfect(n, d, pair_fn=pair_basis))
    assert run(capsys, argv) == (kernel.returncode, kernel.stdout, kernel.stderr) == (
        0, kernel.stdout, "")


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "9"],
    ["verify", "--n", "99999999999999999999"],
], ids=["9", "huge"])
def test_verify_above_the_entry_budget_is_refused_before_any_block(argv):
    """The entry count is checked before the first Gram block: the refusal
    comes within 1 s, under a cap that the n = 9 blocks would pass."""
    assert_refused_under_a_memory_cap(argv)


@pytest.mark.parametrize("argv", [
    ["pair", "--graph", "n=99999999999999999999", "--forest", "1"],
    ["normalize", "--kind", "pois", "--input", "1", "--n", "30000000"],
    ["normalize", "--kind", "siop", "--input", "1 * n=99999999999999999999; 1->2"],
    ["normalize", "--kind", "siop", "--input", "n=30000000"],
], ids=["pair", "pois", "siop-edge", "siop-empty"])
def test_a_huge_n_is_refused_before_its_labels_are_walked(argv):
    """A forest compares its label count with n before it builds 1..n, and
    normalize checks each element's n before it reads the support."""
    assert_refused_under_a_memory_cap(argv)


def test_a_huge_d_is_refused_before_geom_check_samples():
    """8 samples at 3 eps of 2 points in R^400000000 are 1.92e10 coordinates
    (the first sample alone would allocate 2.98 GiB)."""
    assert_refused_under_a_memory_cap(["geom-check", "--forest", "[1,2]", "--graph", "1->2",
                                       "--d", "400000000"])


def assert_refused_under_a_memory_cap(argv):
    """main(argv) exits 2 on one stderr line within 1 s.  The child runs
    under a 1 GiB address-space cap, so a regression fails here with a
    MemoryError instead of exhausting the machine; it prints how long main
    took."""
    child = ("import resource, sys, time\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
             "from confpair.cli import main\n"
             "start = time.perf_counter()\n"
             "code = main(sys.argv[1:])\n"
             "print(time.perf_counter() - start)\n"
             "sys.exit(code)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run([sys.executable, "-c", child] + argv, capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": str(src),
                                           "OPENBLAS_NUM_THREADS": "1"})
    assert (res.returncode, res.stderr.count("\n")) == (2, 1), res.stderr
    assert res.stderr.startswith("validation error: ")
    assert float(res.stdout) < 1


def test_a_dead_graph_above_the_budget_is_refused(capsys):
    code, out, err = run(capsys, ["normalize", "--kind", "siop",
                                  "--input", f"n={SIZE_BUDGET + 1}; 1->2, 2->1"])
    assert (code, out) == (2, "")
    assert err == (f"validation error: reading an element walks {SIZE_BUDGET + 1} labels, "
                   f"above the budget of {SIZE_BUDGET}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_negative_seed_is_refused_where_the_sampler_needs_one(capsys, fmt):
    assert run(capsys, ["geom-check", "--forest", "[1,2]", "--graph", "1->2",
                        "--seed", "-1", "--format", fmt]) == (
        2, "", "validation error: seed must be >= 0, got -1\n")
    code, out, err = run(capsys, ["duality", "--otree", SIX_LEAVES, "--trials", "3",
                                  "--seed", "-5", "--format", fmt])  # random.Random takes it
    assert (code, err) == (0, "") and out


def refuse(*args, **kwargs):
    raise AssertionError("built a format that is not printed")


@pytest.mark.parametrize("argv", [
    ["compose", "--outer", "[1,[2,3]]", "--index", "3", "--inner", "1 ; 2", "--d", "2"],
    ["normalize", "--kind", "pois", "--input", "1 * [[3,1],2]\n2 * [1,2] ; 3"],
    ["normalize", "--kind", "siop", "--input", "1 * n=3; 3->1, 2->1"],
], ids=["compose", "pois", "siop"])
def test_text_output_builds_no_json(capsys, monkeypatch, argv):
    monkeypatch.setattr(confpair.cli, "forest_to_json", refuse)
    monkeypatch.setattr(confpair.cli, "graph_to_json", refuse)
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out.count(" * ") == len(out.splitlines()) > 0


@pytest.mark.parametrize("argv", [
    ["normalize", "--kind", "pois", "--input", "1 * [[3,1],2]\n2 * [1,2] ; 3"],
    ["normalize", "--kind", "siop", "--input", "1 * n=3; 3->1, 2->1"],
], ids=["pois", "siop"])
def test_json_output_renders_no_text(capsys, monkeypatch, argv):
    monkeypatch.setattr(confpair.cli, "render_forest", refuse)
    monkeypatch.setattr(confpair.cli, "render_graph", refuse)
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "") and json.loads(out)["terms"]


def test_json_terms_sort_as_their_json_texts():
    """Labels of 10 and more sort apart as numbers and as strings: `1}`
    sorts after `10}` but `1,` before `10,`."""
    rng = random.Random(15)
    forests = {random_forest(rng, rng.randint(9, 13)) for _ in range(300)}
    forests |= {parse_forest(text) for text in ("1", "[1,2]", "[2,1]", "[1,10] ; 2 ; 3 ; 4 ; 5 ; "
                                                "6 ; 7 ; 8 ; 9", "[1,2] ; 3 ; 4 ; 5 ; 6 ; 7 ; 8 ; "
                                                "9 ; 10")}
    forests.add(Forest((), 0))
    graphs = {Graph(n, tuple(rng.sample([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                                         if i != j], rng.randint(0, 4))))
              for n in (9, 10, 11, 12) for _ in range(100)}
    graphs |= {Graph(10, ()), Graph(1, ()), Graph(10, ((1, 10),)), Graph(10, ((1, 2),)),
               Graph(10, ((1, 2), (2, 10))), Graph(10, ((10, 2),))}
    for elements in (forests, graphs, forests | graphs):
        by_text = sorted(elements, key=lambda e: json.dumps(
            forest_to_json(e) if isinstance(e, Forest) else graph_to_json(e), sort_keys=True))
        assert sorted(elements, key=_json_order) == by_text
    combo = LinCombo([(f, rng.randint(1, 9)) for f in forests if f.n == 11])
    terms = _combo_json(combo, 11, forest_to_json)["terms"]
    texts = [json.dumps(t["element"], sort_keys=True) for t in terms]
    assert len(terms) == len(combo) > 10 and texts == sorted(texts)
