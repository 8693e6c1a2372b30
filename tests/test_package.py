"""The package stands alone: the reference implementations stay on the test side."""

import ast
from collections.abc import MutableMapping, MutableSequence, MutableSet
from pathlib import Path

import confpair

SOURCES = sorted(Path(confpair.__file__).parent.glob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def definitions():
    """name -> the modules that define a class or function of that name."""
    defined = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.setdefault(node.name, []).append(path.name)
    return defined


def test_the_package_never_imports_the_test_oracles():
    assert len(SOURCES) >= 12
    for path in SOURCES:
        for name in imported_modules(path):
            parts = name.split(".")
            assert "tests" not in parts and "oracles" not in parts, (path.name, name)


def test_normalize_reads_its_coefficients_without_the_pairing():
    # both sides of normalize.py read each coefficient as a closed-form sign
    path = next(p for p in SOURCES if p.name == "normalize.py")
    modules = list(imported_modules(path))
    assert modules and not any("pairing" in name.split(".") for name in modules), modules


def test_only_the_cli_formats_output():
    # the report serializers live in cli.py, next to the text lines they mirror
    for path in SOURCES:
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"to_json", "describe_pair"}, (path.name, defined)
    for path in (p for p in SOURCES if p.name in ("geometry.py", "pairing.py")):
        names = [name.rsplit(".", 1)[-1] for name in imported_modules(path)]
        assert names and not [name for name in names if name.startswith("render_")], names


def lazy_caches(path):
    """Class.method for every cached_property defined in path."""
    for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        body = getattr(scope, "body", None)  # a statement list, or one expression
        for node in body if isinstance(body, list) else []:
            if isinstance(node, ast.FunctionDef) and any(
                    getattr(dec, "id", getattr(dec, "attr", None)) == "cached_property"
                    for dec in node.decorator_list):
                yield f"{getattr(scope, 'name', path.stem)}.{node.name}"


def test_the_lazy_caches_are_the_five_documented_ones():
    # each needs a walk of its own; a value the constructor's walk reads is stored instead
    found = sorted(name for path in SOURCES for name in lazy_caches(path))
    assert found == ["Forest.leaf_info", "Forest.size", "Forest.vertex_index",
                     "Graph.components", "Tree.leaf_paths"]


def test_composition_is_closed_form_and_the_sweep_reads_kernel_blocks():
    # substitute, Leibniz-reduce and normalize is the reference in tests/oracles.py
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert "substitute_basis" not in defined | called, path.name
    path = next(p for p in SOURCES if p.name == "operad.py")
    names = {name.rsplit(".", 1)[-1] for name in imported_modules(path)}
    assert "pair_matrix" in names and not names & {"pair", "pair_basis"}, names


def test_the_cli_reads_gram_blocks_through_the_public_api():
    # one Gram builder: cli.py reads its blocks through gram_matrix, no private helper
    path = next(p for p in SOURCES if p.name == "cli.py")
    names = [name.rsplit(".", 1)[-1] for name in imported_modules(path)
             if name.rsplit(".", 1)[0].endswith("pairing")]
    assert "gram_matrix" in names and not [n for n in names if n.startswith("_")], names


def test_the_cli_imports_no_private_name():
    # cli.py reads every module of the package through its public names
    path = next(p for p in SOURCES if p.name == "cli.py")
    names = list(imported_modules(path))
    assert not [n for n in names if n.rsplit(".", 1)[-1].startswith("_")], names
    assert "normalize.tall_support" in names, names


def test_normalize_alone_sizes_its_expansions():
    # one count per basis, next to the expansion it counts
    defined = definitions()
    gone = defined.keys() & {"_support_size", "_long_support_size", "normalize_graph"}
    assert not gone, gone
    counts = [defined.get("tall_support"), defined.get("long_support")]
    assert counts == [["normalize.py"]] * 2, counts


def test_composition_takes_its_leibniz_step_from_brackets():
    # one graded-Leibniz step: the block type and the step live in brackets.py
    defined = definitions()
    assert defined["_Block"] == ["brackets.py"], defined["_Block"]
    assert defined["_bracket_monomials"] == ["brackets.py"], defined["_bracket_monomials"]
    operad = {name for name, paths in defined.items() if "operad.py" in paths}
    assert not operad & {"_Block", "_join", "_block"}, operad
    path = next(p for p in SOURCES if p.name == "operad.py")
    assert "brackets._bracket_monomials" in list(imported_modules(path))


MUTABLE = (MutableMapping, MutableSequence, MutableSet)


def test_composition_and_normalization_keep_no_module_scope_cache():
    # a cache shared by every caller outlives the call that filled it; the
    # duality sweep's intern table lives inside one check_duality call
    from confpair import normalize, operad
    for module in (normalize, operad):
        path = Path(module.__file__)
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                names = {getattr(dec, "id", getattr(dec, "attr", None))
                         for dec in (getattr(d, "func", d) for d in node.decorator_list)}
                assert not names & {"cache", "lru_cache"}, (path.name, node.name)
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            for held in value if isinstance(value, tuple) else (value,):
                assert not isinstance(held, MUTABLE) and not hasattr(held, "cache_info"), (
                    path.name, name)


def test_only_normalize_builds_graphs_without_their_checks():
    # graphs._unchecked_graph skips Graph's edge checks: normalize hands it the
    # edges of a graph that was checked, and no user input reaches it
    assert not hasattr(confpair, "_unchecked_graph")
    users = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if name == "_unchecked_graph" and not isinstance(node, ast.FunctionDef):
                users.add(path.name)
    assert users == {"normalize.py"}, users
