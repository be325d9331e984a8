"""The public API: each module's `__all__`, their union in the package, and
the README's library example."""

import ast
import importlib
import re
from pathlib import Path

import lucanomial

MODULES = ("binomial", "lucas", "ranks", "reports", "sums", "theorems")

PUBLIC = [
    "Cell",
    "CongruenceReport",
    "ConventionViolation",
    "LucasParams",
    "LucasTerm",
    "NonIntegralError",
    "NonMaximalRankError",
    "NoRankError",
    "RECORD_FIELDS",
    "RankInfo",
    "SumsTable",
    "THEOREM_IDS",
    "ValuedResidue",
    "compute_sums",
    "generalized_binomial",
    "is_prime",
    "legendre",
    "lucanomial_exact",
    "lucanomial_residue",
    "lucas_term",
    "lucas_uv_mod",
    "monomial_sum_direct",
    "primes_in_range",
    "rank_of_appearance",
    "sweep",
    "verify_fifth_power",
    "verify_ljunggren",
    "verify_sixth_power",
    "verify_sum_lemmas",
    "verify_wolstenholme",
    "zero_cancellations",
]

# Test-only checks that left the package for tests/oracles.py, or were deleted.
GONE = (
    "check_identities",
    "check_identities_upto",
    "euler_criterion_check",
    "integrality_sweep",
    "lucas_range",
    "verify_power_sums",
)


def test_package_exports_the_public_names():
    assert sorted(lucanomial.__all__) == sorted(PUBLIC)
    for name in lucanomial.__all__:
        getattr(lucanomial, name)


def test_package_all_is_the_union_of_the_modules():
    owners = {}
    for module_name in MODULES:
        module = importlib.import_module(f"lucanomial.{module_name}")
        for name in module.__all__:
            assert name not in owners, (name, owners.get(name), module_name)
            owners[name] = module_name
            assert getattr(lucanomial, name) is getattr(module, name)
    assert sorted(owners) == sorted(lucanomial.__all__)


def test_test_only_helpers_are_not_exported():
    for name in GONE:
        assert not hasattr(lucanomial, name), name
    # Internals the package runs stay in their modules, out of its API.
    internal = {
        "lucas": ("u_walk", "uv_sequence"),
        "ranks": ("rank_ladder", "maximal_ranks", "accepts_prime"),
        "sums": ("MONOMIAL_KEYS",),
    }
    for module_name, names in internal.items():
        module = importlib.import_module(f"lucanomial.{module_name}")
        for name in names:
            getattr(module, name)
            assert name not in module.__all__ and not hasattr(lucanomial, name), name


def _library_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    """Run the README's library block one statement at a time; where a
    statement's trailing comment is the value's repr or a literal, compare."""
    source = _library_example()
    lines = source.splitlines()
    namespace: dict = {}
    compared = 0
    for node in ast.parse(source).body:
        segment = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(compile(segment, "README.md", "exec"), namespace)
            continue
        value = eval(compile(segment, "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if comment.startswith(f"{type(value).__name__}(") and comment.endswith(")"):
            assert repr(value) == comment, segment
        else:
            try:
                literal = ast.literal_eval(comment)
            except (ValueError, SyntaxError):
                continue
            assert value == literal, segment
        compared += 1
    assert compared >= 5
