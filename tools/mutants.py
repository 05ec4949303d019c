"""Mutation gate for the test oracles: each row breaks the library in one
place, and every test the row names must fail on that mutant.

Run from anywhere, with the test extras installed:

    python tools/mutants.py

A row is (file under src/sackit, snippet, replacement, test ids).  For each
row the script copies src/, tests/, perfbench/ and pyproject.toml to a
temporary directory, replaces the snippet, which must occur exactly once in
its file, and runs the named tests inside the copy.  They run there because
the `pythonpath = ["src"]` setting of pyproject.toml would otherwise put the
unmutated src/ first.  Before any mutant, the named tests run on an
unmutated copy, where each must pass.

Exit status 0 when every mutant is killed; 1 on a survivor (a named test
that passes on its mutant), a snippet that does not match exactly once, or
a named test that fails on the unmutated tree.  A refactor that moves a
snippet updates its row on purpose.  About 105 s on 2 vCPU (Python 3.11).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

_ART, _CERT, _SGP, _CLI = "artinian.py", "certify.py", "semigroup.py", "cli.py"
_CLOSED = "tests/test_acceptance.py::test_ext_closed_forms"
_FROZEN = "tests/test_artinian.py::test_ext_tor_tables_are_frozen"
_HOM = "tests/test_artinian.py::test_ext_matches_hom_complex_oracle"
_TENSOR = "tests/test_artinian.py::test_tor_matches_tensor_complex_oracle"
_WALK = "tests/test_artinian.py::test_change_of_rings_matches_the_walk"
_ROUTED = "tests/test_artinian.py::test_routed_calls_take_no_syzygy_step_over_the_truncation"
_SCAN = "tests/test_artinian.py::test_certify_premises_match_the_product_scan"
_VOCABULARY = "tests/test_certify.py::test_verify_premise_vocabulary"
_BYTES = "tests/test_certify.py::test_certificate_bytes_are_frozen"
_PAST_CAP = "tests/test_certify.py::test_embedding_dimension_is_counted_past_the_dimension_cap"
_UTF8 = "tests/test_cli.py::test_text_output_is_utf8_under_any_locale"
_READER = "tests/test_cli.py::test_the_reader_agrees_with_argparse"
_CORPUS_READ = "tests/test_cli.py::test_the_reader_takes_every_valid_corpus_line"
_DEPTH = "tests/test_certify.py::test_qpow_checks_the_regular_sequence_against_depth"
_DENSE = "tests/test_dense_oracle.py::test_deep_modules_match_dense_engine"

# (name, file, snippet, replacement, test ids that must fail)
ROWS = [
    # the syzygy engine and the level walk
    ("_multiples writing 1", _ART,
     "image[base + k] = x", "image[base + k] = 1",
     [_FROZEN]),
    ("atom multiples only in _minimalize", _ART,
     "_nakayama(algebra, cols, algebra.degrees[1:])",
     "_nakayama(algebra, cols, algebra._atoms())",
     ["tests/test_artinian.py::test_minimalization_takes_every_radical_multiple"]),
    ("off-by-one radical index of an algebra", _ART,
     "return radical_index(self.degrees, self._atoms())",
     "return radical_index(self.degrees, self._atoms()) + 1",
     ["tests/test_artinian.py::test_algebra_structure_frozen",
      "tests/test_acceptance.py::test_radical_cube_family"]),
    ("+ F(K) dropped from the dimension shift", _ART,
     "last = here - n * sum(m * key[0] for key, m in level.items())",
     "last = -n * sum(m * key[0] for key, m in level.items())",
     [_HOM, _TENSOR]),
    ("free summands carried deeper", _ART,
     "for omega, c in store.get(key, {}).items():",
     "for omega, c in store.get(key, {key: 1}).items():",
     ["tests/test_artinian.py::test_free_modules_are_homologically_trivial",
      "tests/test_artinian.py::test_free_summands_take_no_syzygy_step"]),
    ("syzygy step keeps one redundant column", _ART,
     "return _nakayama(algebra, kern, algebra._atoms())",
     "return _nakayama(algebra, kern, algebra._atoms()) + kern[-1:]",
     [f"{_DENSE}[H3,4,5-q6-k]", f"{_DENSE}[H4,6,7,9-q8-cyc]",
      "tests/test_dense_oracle.py::test_random_presentations_match_dense_engine",
      "tests/test_artinian.py::test_resolution_is_a_minimal_exact_complex[0]"]),
    ("c for m*c in the level walk", _ART,
     "deeper[omega] += m * c", "deeper[omega] += c",
     ["tests/test_artinian.py::test_residue_field_betti_doubling", _TENSOR]),
    ("untransposed tensor block", _ART,
     "entries = tuple(tuple((j, i, x) for i, j, x in ents) for ents in entries)",
     "entries = tuple(tuple((i, j, x) for i, j, x in ents) for ents in entries)",
     ["tests/test_artinian.py::test_deep_ext_tor_match_complex_oracles[H3,4,5-q6-k-cyc]",
      _FROZEN]),
    # change of rings for Ext and Tor over truncations
    ("prefix sums shifted by one", _ART,
     "e = tuple(accumulate(e))", "e = tuple(accumulate(e, initial=0))[:-1]",
     [_CLOSED, _FROZEN, f"{_WALK}[H3,4,5-q8-3]"]),
    ("generator and non-generator swapped", _ART,
     "if q not in H.generators:", "if q in H.generators:",
     ["tests/test_artinian.py::test_chain_algebra_betti_constant", f"{_WALK}[H3,4,5-q6-3]"]),
    ("A_m in the default characteristic", _ART,
     "base = truncation_algebra(H, H.multiplicity, algebra.char)",
     "base = truncation_algebra(H, H.multiplicity)",
     [_ROUTED]),
    ("route taken for a non-truncation quotient_algebra", _ART,
     "H, q = algebra.semigroup, algebra.truncation_q",
     "H, q = algebra.semigroup, algebra.ideal.generators[0]",
     ["tests/test_artinian.py::test_radical_square_zero_ext_tor_closed_form",
      "tests/test_acceptance.py::test_ext_closed_forms_through_the_walk"]),
    ("a*g*b_i dropped", _ART,
     "dims = [a * c * x + a * g * y for x, y in zip(e, b)]",
     "dims = [a * c * x for x, y in zip(e, b)]",
     [f"{_WALK}[H3,4,5-q6-3]", _ROUTED]),
    # certificate premises from the Apery set
    ("off-by-one longest atom chain", _SGP,
     "longest = {0: 0}", "longest = {0: 1}",
     [_SCAN, _VOCABULARY, _BYTES]),
    ("q counted as an atom", _CERT,
     "return [g for g in semigroup.generators if g != q]",
     "return list(semigroup.generators)",
     [_SCAN, _VOCABULARY, _BYTES]),
    ("last generator counted even inside I^p", _CERT,
     "v = sum(not ideal.member(g) for g in semigroup.generators)",
     "v = sum(not ideal.member(g) for g in semigroup.generators[:-1]) + 1",
     [_SCAN, _BYTES, "tests/test_certify.py::test_wide_two_generator_ring_is_pinned"]),
    # one source per algebra setting
    ("characteristic read from the environment again", _ART,
     "p = DEFAULT_PRIME if char is None else int(char)",
     'p = int(__import__("os").environ.get("SACKIT_PRIME", DEFAULT_PRIME)) '
     "if char is None else int(char)",
     ["tests/test_cli.py::test_characteristic_flag_and_env",
      "tests/test_package.py::test_no_module_reads_the_environment"]),
    ("size cap dropped from apery_set", _SGP,
     "        check_dimension(q)\n", "",
     ["tests/test_ideals.py::test_basis_listers_refuse_a_basis_past_the_cap", _PAST_CAP]),
    ("size cap restored in the embedding-dimension premise", _CERT,
     '_check_members(semigroup, (q,), "truncation degree")',
     '_check_members(semigroup, (q,), "truncation degree")\n'
     "    __import__('sackit.semigroup').semigroup.check_dimension(q)",
     [_PAST_CAP]),
    ("R-QPOW asserts a truncation Gorenstein", _CERT,
     "elif isinstance(ring, (SemigroupRing, Truncation)):",
     "elif isinstance(ring, SemigroupRing):",
     ["tests/test_certify.py::test_qpow_checks_the_gorenstein_premise_it_can"
      "[qpow(powser(trunc(sgp(3,4,5),6)),1,1)-qpow(powser(trunc(sgp(3,5),6)),1,1)]"]),
    ("R-QPOW depth check dropped", _CERT,
     "if not 1 <= desc.power <= n or (ring_depth is not None and n > ring_depth):",
     "if not 1 <= desc.power <= n:",
     [f"{_DEPTH}[qpow(sgp(2,3),2,3)-qpow(sgp(2,3),1,1)-1]",
      f"{_DEPTH}[qpow(trunc(sgp(2,3),4),1,1)-None-0]", _BYTES]),
    ("R-QPOW depth of a upow dropped", _CERT,
     "return 0 if isinstance(ring.inner, SemigroupRing) else None",
     "return None",
     [f"{_DEPTH}[qpow(upow(sgp(3,4,5),(3,4,5),1),1,2)-None-0]", _BYTES]),
    ("R-QPOW depth of a qpow not reduced by n", _CERT,
     "return None if inner is None or n > inner else inner - n",
     "return None if inner is None or n > inner else inner",
     [f"{_DEPTH}[qpow(qpow(sgp(2,3),1,1),1,1)-qpow(qpow(powser(sgp(2,3)),1,1),1,1)-1]",
      _BYTES]),
    ("Gorenstein recursion taken for l, n >= 2", _CERT,
     "isinstance(ring, ParameterPowerQuotient) and 1 in (ring.power, ring.regseq_len)",
     "isinstance(ring, ParameterPowerQuotient)",
     ["tests/test_certify.py::test_route_parameter_powers"]),
    ("stdout left in the locale's encoding", _CLI,
     'sys.stdout.reconfigure(encoding="utf-8")', "pass",
     [f"{_UTF8}[ascii]", f"{_UTF8}[latin-1]"]),
    # the command line read off COMMANDS, argparse only for help and errors
    ("reader ignores required", _CLI,
     '        if options.get("required") and flag not in given:\n            return None\n',
     "",
     [_READER]),
    ("reader leaves a string default unconverted", _CLI,
     "if isinstance(value, str) else value", "if flag in given else value",
     [_READER, _CORPUS_READ]),
    ("reader keeps the first of a repeated flag", _CLI,
     'if flag not in flags or flag in given or flag == "--rule":\n'
     "            return None\n"
     '        value = True if "action" in flags[flag] else next(words, "-")\n'
     "        if value is not True and value.startswith(\"-\"):\n"
     "            return None\n"
     "        given[flag] = value\n",
     'if flag not in flags or flag == "--rule":\n'
     "            return None\n"
     '        value = True if "action" in flags[flag] else next(words, "-")\n'
     "        if value is not True and value.startswith(\"-\"):\n"
     "            return None\n"
     "        given.setdefault(flag, value)\n",
     [_READER]),
    ("argparse imported at module level", _CLI,
     "import os\nimport sys\n", "import argparse\nimport os\nimport sys\n",
     [f"tests/test_package.py::test_a_command_runs_only_the_modules_it_uses[args{i}-lazy{i}]"
      for i in (0, 2, 3, 4)]),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, dest / name)


def _passed(tree: Path, tests) -> set[str]:
    """The named tests that pass in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    return {line.split(" ", 1)[1].strip() for line in done.stdout.splitlines()
            if line.startswith("PASSED ")} & set(tests)


def main() -> int:
    problems = []
    for name, file, snippet, _, _ in ROWS:
        count = (ROOT / "src" / "sackit" / file).read_text().count(snippet)
        if count != 1:
            problems.append(f"stale row {name!r}: snippet found {count} times in {file}")
    if problems:
        print("\n".join(problems))
        return 1
    named = sorted({test for row in ROWS for test in row[4]})
    with tempfile.TemporaryDirectory(prefix="sackit-mutants-") as scratch:
        base = Path(scratch) / "base"
        _copy(base)
        failing = sorted(set(named) - _passed(base, named))
        if failing:
            print("named tests fail on the unmutated tree:", *failing, sep="\n  ")
            return 1
        for i, (name, file, snippet, replacement, tests) in enumerate(ROWS):
            tree = Path(scratch) / f"m{i}"
            _copy(tree)
            path = tree / "src" / "sackit" / file
            path.write_text(path.read_text().replace(snippet, replacement))
            survivors = sorted(_passed(tree, tests))
            print(f"{'SURVIVED' if survivors else 'killed  '}  {name}", flush=True)
            problems += [f"{name}: {test} passes" for test in survivors]
            shutil.rmtree(tree)
    print("\n".join(problems) or f"all {len(ROWS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
