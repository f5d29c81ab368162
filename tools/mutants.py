"""Apply named source mutants to a copy of the tree and report which tests kill them.

Usage, from the root of a source checkout:

    python3 tools/mutants.py         # every mutant, one line each
    python3 tools/mutants.py --json  # the same as one JSON document

A mutant names a file, a text that occurs exactly once in it, the text that
replaces it, and a pytest selection.  Each mutant is applied alone to a
fresh copy of the checkout in a temporary directory, and its selection runs
there with that copy's ``src`` first on the import path.  A failing
selection kills the mutant; a passing one lets it survive.  Any other pytest
exit (a selection that names no test, an interrupted run) is an error.  The
list is a record: a mutant that once survived stays listed, with the test
that now kills it.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench-*", "BENCH_*.json*")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout root
    text: str  # occurs exactly once in the file
    replacement: str
    selection: tuple[str, ...]  # pytest node ids
    what: str


SELFTEST = "src/crossed_commutant/selftest.py"
CROSSED = "src/crossed_commutant/crossed.py"
COMMUTANT = "src/crossed_commutant/commutant.py"
DYNAMICS = "src/crossed_commutant/dynamics.py"
ENUMERATION = "src/crossed_commutant/enumeration.py"
SAME_DRAWS = "tests/test_selftest.py::test_draws_from_one_table_equal_fresh_and_reference_draws"
PER_CHILD = "tests/test_dynamics.py::test_refined_cycle_classes_equal_the_per_child_reference"
COUNTER_PROFILES = "tests/test_dynamics.py::test_pi_profile_equals_the_counter_reference_on_grid_streams_and_draws"
CENSUS = "tests/test_enumeration.py::test_atlas_census_equals_the_lift_stream[2-2]"

MUTANTS = (
    Mutant(
        "shape_key_without_counts", SELFTEST,
        '("line-refinement", jumps, added),', '("line-refinement", jumps, tuple(a for a, _ in added)),',
        (SAME_DRAWS,),
        "a line refinement keyed by its split intervals but not their point counts",
    ),
    Mutant(
        "table_across_runs", SELFTEST,
        "shapes: dict = {}  # one table of shapes for the whole run",
        "shapes: dict = run_selftest.__dict__.setdefault('shapes', {})",
        ("tests/test_selftest.py::test_a_run_shares_its_shapes_and_keeps_none_afterwards",),
        "one table kept at module level, shared by every run",
    ),
    Mutant(
        "shuffle_longer_than_two", SELFTEST,
        "if len(images) > 1:", "if len(images) > 2:",
        (SAME_DRAWS,),
        "a lift shuffles only lists of three or more children, so two-child draws change the stream",
    ),
    Mutant(
        "sum_keeps_cancelled_degrees", CROSSED,
        "for n, vec in acc.items() if vec.nums])", "for n, vec in acc.items()])",
        ("tests/test_crossed.py::test_trusted_sums_equal_the_checked_constructor",),
        "an element sum keeps a degree whose vectors cancel",
    ),
    Mutant(
        "sum_without_size_check", CROSSED,
        "if self.terms and other.terms and self.size != other.size:", "if False:",
        ("tests/test_crossed.py::test_public_element_paths_still_check_sizes",),
        "an element sum of two lengths that share no degree goes through",
    ),
    Mutant(
        "multiply_without_size_check", CROSSED,
        "if elem.terms and elem.terms[0][1].size != len(piece_map.perm):", "if False:",
        ("tests/test_crossed.py::test_public_element_paths_still_check_sizes",),
        "a product of elements of two lengths (survived until the test met one with no common degree)",
    ),
    Mutant(
        "no_reduction_after_pointwise_product", CROSSED,
        "return _reduced(self.size, self.den * other.den,", "return _vector(self.size, self.den * other.den,",
        ("tests/test_crossed.py::test_numerator_form_equals_fraction_dict_arithmetic",),
        "a pointwise product left over an unreduced denominator",
    ),
    Mutant(
        "no_reduction_after_multiply", CROSSED,
        "_reduced(len(piece_map.perm), dens[d], out)", "_vector(len(piece_map.perm), dens[d], out)",
        ("tests/test_crossed.py::test_trusted_products_and_scales_equal_the_checked_constructor",),
        "each degree of a twisted product left over an unreduced denominator",
    ),
    Mutant(
        "no_rescale_on_denominator_mismatch", CROSSED,
        "if old != den:  # put the sum so far", "if False:  # put the sum so far",
        ("tests/test_crossed.py::test_trusted_products_and_scales_equal_the_checked_constructor",),
        "products of one degree summed over different denominators without a common one",
    ),
    Mutant(
        "key_by_n", COMMUTANT,
        "r = n % piece_map.period", "r = n",
        ("tests/test_commutant.py::test_oracle_builds_its_generators_once_per_view_and_map",
         "tests/test_commutant.py::test_oracle_keeps_one_table_per_residue_of_each_maps_order"),
        "the oracle's table keyed by the degree, not its residue mod the map's order",
    ),
    Mutant(
        "key_by_piece_count", COMMUTANT,
        "r = n % piece_map.period", "r = n % view.sub.piece_count",
        ("tests/test_commutant.py::test_oracle_keeps_one_table_per_residue_of_each_maps_order",),
        "the oracle's table keyed by the degree mod the coarse piece count",
    ),
    Mutant(
        "store_before_descent", COMMUTANT,
        "        descend_map(view, piece_map)  # same preconditions as sep_set\n"
        "        size = view.ambient.piece_count\n",
        "        view._memo[key] = (piece_map, [], {})\n"
        "        descend_map(view, piece_map)  # same preconditions as sep_set\n"
        "        size = view.ambient.piece_count\n",
        ("tests/test_commutant.py::test_warm_oracle_still_refuses_foreign_and_torn_maps",),
        "the oracle's memo entry stored before the map passes descend_map",
    ),
    Mutant(
        "no_divisibility_check", DYNAMICS,
        "    if any(map(operator.mod, period_of, k_of)):", "    if False:",
        (PER_CHILD,),
        "a fine period that is no multiple of its parent's period goes through",
    ),
    Mutant(
        "multiplier_not_divided", DYNAMICS,
        "return tuple([*map(operator.floordiv, self.period_of, k_of)])", "return self.period_of",
        (PER_CHILD, COUNTER_PROFILES),
        "a piece's multiplier read as its fine period, not divided by its parent's period",
    ),
    Mutant(
        "profile_skips_multipliers", DYNAMICS,
        "if theirs != split:", "if False:",
        ("tests/test_dynamics.py::test_pi_profile_refusals_name_what_the_reference_names",),
        "a profile compares the members' subinterval counts but not their multipliers",
    ),
    Mutant(
        "tilde_keys_unsorted", DYNAMICS,
        "for (k, fine), v in sorted(grouped.items())}", "for (k, fine), v in grouped.items()}",
        (PER_CHILD,),
        "the (k, l) classes keyed in the order of their least pieces, not sorted",
    ),
    Mutant(
        "cycle_filed_by_first_member", DYNAMICS,
        "    k_of = _gather(base_cls.period_of, refinement.parent_of)\n",
        "    k_of = _gather(base_cls.period_of, _gather(refinement.parent_of, [c[0] for _, c in sorted(\n"
        "        (x, c) for c in perm_cycles(refined_map.perm) for x in c)]))\n",
        (PER_CHILD,),
        "every piece of a fine cycle checked against the parent period of the cycle's first member",
    ),
    Mutant(
        "census_last_arc_from_smallest", DYNAMICS,
        "        last = max(cycle)\n", "        last = min(cycle)\n",
        ("tests/test_dynamics.py::test_realize_pi_is_the_lex_minimal_lift_with_its_profile", CENSUS),
        "each orbit's return map put on the arc out of its smallest member, not its largest",
    ),
    Mutant(
        "longest_cycles_first", DYNAMICS,
        "for length in sorted(cycle_type):", "for length in sorted(cycle_type, reverse=True):",
        ("tests/test_enumeration.py::test_minimal_permutation_of_each_cycle_type_is_the_rotation_rule",),
        "the minimal permutation of a cycle type lays out its longest cycles first",
    ),
    Mutant(
        "census_without_n_factorial", ENUMERATION,
        "count = math.factorial(n) * lifts", "count = lifts",
        (CENSUS,),
        "a census case counted without the n! orders of the base jump points",
    ),
    Mutant(
        "multiply_stores_cancelled_zero", CROSSED,
        "del out[j]  # a sum that cancels", "out[j] = 0  # a sum that cancels",
        ("tests/test_crossed.py::test_numerator_form_equals_fraction_dict_arithmetic",
         "tests/test_crossed.py::test_trusted_products_and_scales_equal_the_checked_constructor"),
        "a twisted product keeps an entry whose sum cancels, as a stored zero",
    ),
    Mutant(
        "inverse_power_in_transport_memo", CROSSED,
        "piece_map._memo[key] = perm_power(piece_map.perm, key)",
        "piece_map._memo[key] = perm_power(piece_map.perm, -key)",
        ("tests/test_crossed.py::test_transport_matches_repeated_single_steps_on_seeded_maps",),
        "the transport memo stores the inverse power of the map",
    ),
)


def check(root: Path, mutants=MUTANTS) -> list[str]:
    """One problem per mutant whose text does not occur exactly once, and per repeated name."""
    problems = []
    names = [m.name for m in mutants]
    problems += [f"{name}: listed twice" for name in sorted(set(names)) if names.count(name) > 1]
    for m in mutants:
        count = (root / m.path).read_text(encoding="utf-8").count(m.text)
        if count != 1:
            problems.append(f"{m.name}: its text occurs {count} times in {m.path}")
    return problems


def run_mutant(root: Path, mutant: Mutant, timeout: float = 900) -> dict:
    """Apply one mutant to a temporary copy of ``root`` and run its selection there."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=SKIPPED)
        target = tree / mutant.path
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.text) != 1:
            raise ValueError(f"{mutant.name}: its text does not occur exactly once in {mutant.path}")
        target.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "CROSSED_COMMUTANT_SEED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.selection],
            cwd=tree, env=env, capture_output=True, text=True, timeout=timeout,
        )
        seconds = time.perf_counter() - start
    outcome = {0: "survived", 1: "killed"}.get(run.returncode, f"error (pytest exit {run.returncode})")
    return {**asdict(mutant), "outcome": outcome, "seconds": round(seconds, 2)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)
    problems = check(ROOT)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    results = []
    for mutant in MUTANTS:
        result = run_mutant(ROOT, mutant)
        results.append(result)
        if not args.json:
            print(f"{result['outcome']:9} {mutant.name} ({result['seconds']:.1f} s): {mutant.what}", flush=True)
    if args.json:
        print(json.dumps({"mutants": results}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
