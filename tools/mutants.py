"""Mutation gate for the test oracles: each row breaks the library in one
place, and every test the row names must fail on that mutant.

Run from anywhere, with the test extras installed:

    python tools/mutants.py

The table ``ROWS`` holds 107 rows.  A row is (name, file under src/sackit,
snippet, replacement, test ids); a mutant that breaks two places gives a
tuple of snippets and a tuple of their replacements.  For each row the
script copies src/, tests/, perfbench/ and pyproject.toml to a temporary
directory, replaces each snippet, which must occur exactly once in its
file, and runs the named tests inside the copy.
They run there because the `pythonpath = ["src"]` setting of pyproject.toml
would otherwise put the unmutated src/ first.  Before any mutant, the named
tests run on an unmutated copy, where each must pass.

Exit status 0 when every mutant is killed; 1 on a survivor (a named test
that passes on its mutant), a snippet that does not match exactly once, or
a named test that fails on the unmutated tree.  A refactor that moves a
snippet updates its row on purpose.  About 4 min (238 s) on 2 vCPU
(Python 3.11).
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
_MODULE_SET = "tests/test_package.py::test_a_command_runs_only_the_modules_it_uses"
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
_RANDOM_DENSE = "tests/test_dense_oracle.py::test_random_presentations_match_dense_engine"
_UNIT_ROW = "tests/test_dense_oracle.py::test_unit_in_last_generator_row_matches_dense_engine"
_MINIMAL = "tests/test_artinian.py::test_presentation_minimalization"
_MALFORMED = "tests/test_certify.py::test_malformed_descriptors"
_GOR = "tests/test_certify.py::test_qpow_checks_the_gorenstein_premise_it_can"
_EXIT = "tests/test_cli.py::test_the_process_exit_writes_what_main_writes"
_QPOW22 = "qpow(qpow(powser(powser(sgp(2,3))),2,2),1,1)"
_CAP_BASIS = "tests/test_ideals.py::test_basis_listers_refuse_a_basis_past_the_cap"
_SIEVE = "tests/test_semigroup.py::test_apery_representation_matches_sieve"
_APERY_CAP = "tests/test_semigroup.py::test_apery_edges_are_capped_before_the_walk"
_SUM_OF = "tests/test_semigroup.py::test_sum_of_matches_the_unbounded_loop"
_WINDOW = "tests/test_ideals.py::test_ideal_representation_matches_window"
_REF_SETS = "tests/test_ideals.py::test_reference_sets_frozen"
_GLUE_ORACLE = "tests/test_certify.py::test_glue_candidates_match_the_divisor_loop"
_FFD = "tests/test_certify.py::test_ffd_answers_for_its_ring"
_ARTINIAN_COVER = (
    "tests/test_certify.py::test_no_artinian_ring_has_a_semigroup_ring_as_finite_flat_cover")
_READS_RING = "tests/test_certify.py::test_qpow_over_ffd_reads_the_ring_not_the_cover"
_LEMMA42 = "tests/test_acceptance.py::test_lemma42_failures_match_the_oracle"
_OBJECTS = "tests/test_certify.py::test_malformed_descriptor_objects"
_GOLOD = "tests/test_koszul.py::test_golod_rings_meet_the_serre_bound"
_SWEEP = "tests/test_ideals.py::test_power_sweep_counts_its_work_before_the_first_layer"
_POWER_ORACLE = "tests/test_ideals.py::test_power_layers_match_the_generator_oracle"
_PINNED = "tests/test_ideals.py::test_power_layer_lengths_pinned"
_UPOW_ORACLE = "tests/test_certify.py::test_upow_atoms_match_the_power_oracle"
_STEP_CAP = ("tests/test_artinian.py::"
             "test_a_syzygy_step_past_the_column_cap_is_refused_before_it_is_built")
_BIT_CAP = ("tests/test_artinian.py::"
            "test_a_walk_past_the_bit_cap_is_refused_before_the_first_level")
_DEPTH_CAP = "tests/test_artinian.py::test_walk_depth_is_capped_before_the_first_level"
_BASS = "tests/test_artinian.py::test_a_routed_ext_walks_the_bass_numbers_only_when_it_reads_them"
_REALIZED = ("tests/test_artinian.py::"
             "test_a_realization_past_its_cap_is_refused_before_it_is_built")
_GORENSTEIN = "tests/test_artinian.py::test_a_gorenstein_base_walks_no_bass_numbers"
_CHECKED = "tests/test_artinian.py::test_routed_and_walked_calls_check_their_arguments_first"

# (name, file, snippet, replacement, test ids that must fail)
ROWS = [
    # the syzygy engine and the level walk
    ("_multiples writing 1", _ART,
     "image[base + k] = x", "image[base + k] = 1",
     [_FROZEN]),
    # a minimal presentation is one syzygy step
    ("kept generators ignore the constant parts", _ART,
     "kept = [g for g in range(rank0) if g not in constants.rows]",
     "kept = list(range(rank0))",
     [_MINIMAL, f"{_UNIT_ROW}[H3,4,5-q6]", _RANDOM_DENSE]),
    ("generator images not reduced modulo the relation span", _ART,
     "images = [relations.reduce({g * dim_a + b: 1})",
     "images = [({g * dim_a + b: 1})",
     [_MINIMAL, f"{_DENSE}[H3,4,5-q6-k]", _RANDOM_DENSE]),
    ("Nakayama step skipped in the presentation", _ART,
     "tuple(_nakayama(algebra, sparse_kernel(images, algebra.char)))",
     "tuple(sparse_kernel(images, algebra.char))",
     [_MINIMAL, f"{_DENSE}[H3,4,5-q6-k]", _RANDOM_DENSE]),
    ("constant part read at position 1", _ART,
     "if pos % dim_a == 0}", "if pos % dim_a == 1}",
     [_MINIMAL, _RANDOM_DENSE]),
    ("+ F(K) dropped from the dimension shift", _ART,
     "last = here - n * sum(m * key[0] for key, m in level.items())",
     "last = -n * sum(m * key[0] for key, m in level.items())",
     [_HOM, _TENSOR]),
    ("free summands carried deeper", _ART,
     "for omega, c in store.get(key, {}).items():",
     "for omega, c in store.get(key, {key: 1}).items():",
     ["tests/test_artinian.py::test_free_modules_are_homologically_trivial",
      "tests/test_artinian.py::test_free_summands_of_a_walked_module_take_no_syzygy_step"]),
    ("syzygy step keeps one redundant column", _ART,
     "return _nakayama(algebra, sparse_kernel(images, algebra.char))",
     "return _nakayama(algebra, sparse_kernel(images, algebra.char))"
     " + sparse_kernel(images, algebra.char)[-1:]",
     [f"{_DENSE}[H3,4,5-q6-k]", f"{_DENSE}[H4,6,7,9-q8-cyc]",
      _RANDOM_DENSE, "tests/test_artinian.py::test_resolution_is_a_minimal_exact_complex[0]"]),
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
     "truncation_algebra(H, m, algebra.char)", "truncation_algebra(H, m)",
     [_ROUTED]),
    ("route taken for a non-truncation quotient_algebra", _ART,
     "    if q in (None, 1):\n", "    if q == 1:\n",
     ["tests/test_artinian.py::test_radical_square_zero_ext_tor_closed_form",
      "tests/test_acceptance.py::test_ext_closed_forms_through_the_walk"]),
    ("route taken over the field A_1", _ART,
     "    if q in (None, 1):\n", "    if q is None:\n",
     [f"{_WALK}[H1-q5-3]", f"{_WALK}[H1-q5-32003]"]),
    ("route declines at q = m again", _ART,
     "    if q in (None, 1):\n", "    if q in (None, 1, m):\n",
     [_BASS, "tests/test_artinian.py::test_a_module_without_a_k_summand_realizes_nothing"]),
    ("route without its own bit cap", _ART,
     "    _check_bits(upto, m)\n", "",
     ["tests/test_cli.py::test_sums_without_a_k_summand_walk_nothing"]),
    ("e walked whenever M has a k summand", _ART,
     "betti[:upto + 1] if a * c else", "betti[:upto + 1] if a else",
     [_BASS]),
    ("e read one level short", _ART,
     "minimal_resolution(k, max(upto, 1))", "minimal_resolution(k, max(upto - 1, 1))",
     [_CLOSED, f"{_WALK}[H3,4,5-q8-3]",
      "tests/test_cli.py::test_ext_of_k_reads_the_betti_numbers_of_k"]),
    ("the route without the same-algebra check", _ART,
     "    _require_same_algebra(module, target)\n", "",
     [_CHECKED]),
    ("a*g*b_i dropped", _ART,
     "dims = [a * c * x + a * g * y for x, y in zip(e, b)]",
     "dims = [a * c * x for x, y in zip(e, b)]",
     [f"{_WALK}[H3,4,5-q6-3]", _ROUTED]),
    # certificate premises from the generators
    ("cube test checks pairs only", _CERT,
     "for r in (1, 2, 3):", "for r in (1, 2):",
     [_SCAN, _VOCABULARY, _BYTES]),
    ("sums of atoms tested against H, not q + H", _CERT,
     "if not semigroup.contains(d + a - q):", "if not semigroup.contains(d + a):",
     [_SCAN, _VOCABULARY, _PAST_CAP]),
    ("last sum of atoms kept per degree, not the first", _CERT,
     "outside.setdefault(d + a, (*s, a))", "outside[d + a] = (*s, a)",
     [_SCAN]),
    ("q counted as an atom", _CERT,
     "return [g for g in semigroup.generators if g != q]",
     "return list(semigroup.generators)",
     [_SCAN, _VOCABULARY, _BYTES]),
    ("last generator counted even inside I^p", _CERT,
     "v = sum(not ideal.member(g if power == 1 else 0) for g in semigroup.generators)",
     "v = sum(not ideal.member(g if power == 1 else 0) for g in semigroup.generators[:-1]) + 1",
     [_SCAN, _BYTES, "tests/test_certify.py::test_wide_two_generator_ring_is_pinned"]),
    # gluing candidates from gcds
    ("glue n a proper divisor of the gcd", _CERT,
     "        if n >= 2:\n",
     "        if n >= 2:\n            n = min(p for p in range(2, n + 1) if n % p == 0)\n",
     [_GLUE_ORACLE]),
    ("glue candidates in generator order", _CERT,
     "for n, i in sorted((gcd(*gens[:i], *gens[i + 1:]), i) for i in range(len(gens))):",
     "for n, i in [(gcd(*gens[:i], *gens[i + 1:]), i) for i in range(len(gens))]:",
     [_GLUE_ORACLE]),
    # one complete-intersection test, and only deciding rules in the default order
    ("cycle guard dropped", _CERT,
     "    if depth <= 1 or desc in search.stack:\n", "    if depth <= 1:\n",
     ["tests/test_certify.py::test_the_cycle_guard_stops_a_circular_root_modx_proof"]),
    ("R-UPOW back in the default order", _CERT,
     '        ("R-GLUE", _rule_glue_sgp),\n    ),\n',
     '        ("R-GLUE", _rule_glue_sgp),\n        ("R-UPOW", _rule_upow),\n    ),\n',
     ["tests/test_certify.py::test_unknown_is_reachable_and_terminates", _BYTES]),
    ("R-ULCI tests colength_le2 instead of emb_dim_le1", _CERT,
     'verify_premise("emb_dim_le1", semigroup=H, ideal_gens=gens)',
     'verify_premise("colength_le2", semigroup=H, ideal_gens=gens)',
     ["tests/test_certify.py::test_dual_routes_for_reference_ring", _BYTES]),
    # a semigroup ring read once, from its minimal generators
    ("nonzerodivisor premise on a truncation too", _CERT,
     "regular = [] if truncated else [_nonzerodivisor(H, q)]",
     "regular = [_nonzerodivisor(H, q)]",
     [_BYTES, "tests/test_cli.py::test_cli_outputs_are_frozen"]),
    ("R-MODX child is the same shape", _CERT,
     "other = SemigroupRing(desc.generators) if truncated else Truncation(desc.generators, q)",
     "other = Truncation(desc.generators, q) if truncated else SemigroupRing(desc.generators)",
     ["tests/test_certify.py::test_route_modx_chains_to_truncation", _BYTES,
      "tests/test_certify.py::test_root_only_rules_certify_nothing_the_default_order_misses"]),
    ("R-CI at k[[H]] reads the truncation", _CERT,
     "q=q if truncated else None", "q=q",
     ["tests/test_certify.py::test_render_smoke", _BYTES,
      "tests/test_certify.py::test_wide_two_generator_ring_is_pinned"]),
    ("R-GLUE compares with the spelled generators", _CERT,
     ("def _glue(candidates, depth, search):",
      "        if not ok:\n            continue\n        child = _child(SemigroupRing(",
      "return _glue(_glue_decompositions(H), depth, search)"),
     ("def _glue(candidates, depth, search, expected=None):",
      "        if not ok or expected not in (None, tuple(dict(p_glue.evidence)['result'])):\n"
      "            continue\n        child = _child(SemigroupRing(",
      "return _glue(_glue_decompositions(H), depth, search, desc.generators)"),
     ["tests/test_certify.py::test_a_verdict_does_not_depend_on_the_spelling", _BYTES]),
    # is_ulrich reads stability as l(I/I^2) = q, and R-MIN verifies the witness
    # m that minimal multiplicity gives, with no search
    ("stability read as layer <= q", "ideals.py",
     "stable = layer == q", "stable = layer <= q",
     ["tests/test_ideals.py::test_search_reduction_matches_the_generator_loop"]),
    ("R-MIN's witness passed as m + 1", _CERT,
     "q=H.multiplicity)", "q=H.multiplicity + 1)",
     ["tests/test_certify.py::test_r_min_verifies_the_witness_it_knows", _BYTES]),
    # one stability test for the reduction witness, and a root depth of at least 1
    ("search_reduction tries the largest generator", "ideals.py",
     "q = min(ideal.generators, default=0)", "q = max(ideal.generators, default=0)",
     ["tests/test_ideals.py::test_search_reduction_matches_the_generator_loop",
      "tests/test_ideals.py::test_reference_report_frozen"]),
    ("gluing preconditions not checked", _CERT,
     "_semigroup(self.inner.generators, build).glue_generators(self.n, self.m)",
     "pass",
     [f"{_MALFORMED}[glued(sgp(3,4,5),5,4)]",
      f"{_MALFORMED}[ffd(glued(sgp(3,4,5),5,4),sgp(2,3))]",
      f"{_MALFORMED}[qpow(ffd(glued(sgp(3,4,5),5,4),sgp(2,3)),1,1)]",
      f"{_MALFORMED}[glued(sgp(3,4,5),5,2)]",
      f"{_MALFORMED}[ffd(glued(sgp(3,4,5),2,4),sgp(2,3))]"]),
    ("root depth check dropped", _CERT,
     '    if depth < 1:\n        raise SackitError(f"depth must be >= 1, got {depth}")\n', "",
     ["tests/test_certify.py::test_depth_limit_and_stability",
      "tests/test_cli.py::test_certify_depth_must_be_positive"]),
    # one source per algebra setting
    ("2^64 bound dropped", _ART,
     "        if p >= MAX_PRIME:\n"
     '            raise SackitError(f"characteristic {p} is not below the supported 2^64")\n',
     "",
     ["tests/test_cli.py::test_a_characteristic_is_refused_from_2_64_on"]),
    ("characteristic read from the environment again", _ART,
     "p = DEFAULT_PRIME if char is None else int(char)",
     'p = int(__import__("os").environ.get("SACKIT_PRIME", DEFAULT_PRIME)) '
     "if char is None else int(char)",
     ["tests/test_cli.py::test_characteristic_flag_and_env",
      "tests/test_package.py::test_no_module_reads_the_environment"]),
    ("size cap dropped from the basis lister", _SGP,
     "    if (dim := _length(lo, hi)) > MAX_DIMENSION:\n"
     '        raise TooLarge(f"algebra dimension {dim} is above the supported {MAX_DIMENSION}")\n',
     "",
     [_CAP_BASIS, "tests/test_ideals.py::test_gap_and_relative_listers_refuse_past_the_cap"]),
    ("size cap restored in the embedding-dimension premise", _CERT,
     '_check_members(semigroup, (q,), "truncation degree")',
     '_check_members(semigroup, (q,), "truncation degree")\n'
     "    __import__('sackit.semigroup').semigroup._between((0,), (q,))",
     [_PAST_CAP]),
    # the Apery walk is charged m * e before it runs
    ("Apery edge cap compared with >=", _SGP,
     "if m * len(gens) > MAX_APERY_EDGES:", "if m * len(gens) >= MAX_APERY_EDGES:",
     [_APERY_CAP]),
    ("Apery edge cap charges m alone", _SGP,
     "if m * len(gens) > MAX_APERY_EDGES:", "if m > MAX_APERY_EDGES:",
     [_APERY_CAP]),
    # one residue-table core for semigroups and ideals
    ("shifted table rotated the wrong way", _SGP,
     "cut = len(self.table) - self.g % len(self.table)", "cut = self.g % len(self.table)",
     [_SIEVE, _WINDOW, _REF_SETS]),
    # an ideal is its generators; its table is built when a length needs it
    ("ideal membership tested at x + m", "ideals.py",
     "_sum_of(self.ambient._apery, gens, x)",
     "_sum_of(self.ambient._apery, gens, x + len(self.ambient._apery))",
     [_WINDOW, "tests/test_ideals.py::test_relative_length_requires_containment",
      "tests/test_ideals.py::test_membership_and_minimal_generators[hgens4-igens4]"]),
    ("ideal membership without its generator case", "ideals.py",
     "return is_generator or _sum_of(", "return _sum_of(",
     [_WINDOW, "tests/test_ideals.py::test_membership_and_minimal_generators[hgens0-igens0]"]),
    # x - g is a nonzero member, looked up only for the g <= x - m
    ("generator-plus-member bound made strict", _SGP,
     "takewhile((x - m).__ge__, gens)", "takewhile((x - m).__gt__, gens)",
     [_SUM_OF, "tests/test_semigroup.py::test_redundant_generator_examples",
      "tests/test_ideals.py::test_membership_and_minimal_generators[hgens7-igens7]"]),
    ("generator-plus-member bound dropped", _SGP,
     "takewhile((x - m).__ge__, gens)", "gens",
     [_SUM_OF, _SIEVE, "tests/test_semigroup.py::test_redundant_generator_examples"]),
    ("ideal table built from the first generator only", "ideals.py",
     "rows = [_Shifted(table, g) for g in gens]",
     "rows = [_Shifted(table, g) for g in gens[:1]]",
     [_WINDOW, _REF_SETS, "tests/test_ideals.py::test_reference_report_frozen"]),
    ("size cap compared with >=", _SGP,
     "if (dim := _length(lo, hi)) > MAX_DIMENSION:",
     "if (dim := _length(lo, hi)) >= MAX_DIMENSION:",
     [_CAP_BASIS, "tests/test_ideals.py::test_gaps_at_the_cap_are_listed_off_the_table"]),
    ("lister starts each class one step late", _SGP,
     "range(a, b, len(lo))", "range(a + len(lo), b, len(lo))",
     [_SIEVE, "tests/test_semigroup.py::test_apery_frozen",
      "tests/test_semigroup.py::test_members_and_gaps[gens7-43-22]", _REF_SETS]),
    ("R-QPOW asserts a truncation Gorenstein", _CERT,
     "return SemigroupRing(self.generators).gorenstein(search, regular)",
     "return super().gorenstein(search)",
     [f"{_GOR}[qpow(powser(trunc(sgp(3,4,5),6)),1,1)-qpow(powser(trunc(sgp(3,5),6)),1,1)]"]),
    ("R-QPOW depth check dropped", _CERT,
     "if not 1 <= desc.power <= n or (ring_depth is not None and n > ring_depth):",
     "if not 1 <= desc.power <= n:",
     [f"{_DEPTH}[qpow(sgp(2,3),2,3)-qpow(sgp(2,3),1,1)-1]",
      f"{_DEPTH}[qpow(trunc(sgp(2,3),4),1,1)-None-0]", _BYTES]),
    ("R-QPOW depth of a upow dropped", _CERT,
     "return 0 if isinstance(self.inner, SemigroupRing) else None",
     "return None",
     [f"{_DEPTH}[qpow(upow(sgp(3,4,5),(3,4,5),1),1,2)-None-0]", _BYTES]),
    ("R-QPOW depth of a qpow not reduced by n", _CERT,
     "return None if inner is None or n > inner else inner - n",
     "return None if inner is None or n > inner else inner",
     [f"{_DEPTH}[qpow(qpow(sgp(2,3),1,1),1,1)-qpow(qpow(powser(sgp(2,3)),1,1),1,1)-1]",
      _BYTES]),
    ("Gorenstein recursion taken for l, n >= 2", _CERT,
     "return self.inner.gorenstein(search) if 1 in (self.power, self.regseq_len) else None",
     "return self.inner.gorenstein(search)",
     ["tests/test_certify.py::test_route_parameter_powers",
      f"{_GOR}[{_QPOW22}-qpow(qpow(powser(powser(sgp(2,3))),1,2),1,1)]"]),
    ("R/Q^l with l, n >= 2 asserted Gorenstein again", _CERT,
     "if 1 in (self.power, self.regseq_len) else None",
     "if 1 in (self.power, self.regseq_len) else super().gorenstein(search)",
     ["tests/test_certify.py::test_route_parameter_powers",
      f"{_GOR}[{_QPOW22}-qpow(qpow(powser(powser(sgp(2,3))),1,2),1,1)]"]),
    # ffd(R, S) answers for R, and R-FFD refuses depth S > depth R
    ("ffd reads its depth from the cover", _CERT,
     "return (self.inner or super()).depth()", "return (self.cover or super()).depth()",
     [_ARTINIAN_COVER]),
    ("ffd reads its Gorenstein premises from the cover", _CERT,
     "return (self.inner or super()).gorenstein(search)",
     "return (self.cover or super()).gorenstein(search)",
     [_READS_RING, f"{_FFD}[qpow(ffd(sgp(3,4,5),sgp(2,3)),1,1)]"]),
    ("R-FFD depth refusal dropped", _CERT,
     "if cover_depth > ring_depth:", "if False:",
     [_ARTINIAN_COVER, f"{_FFD}[ffd(trunc(sgp(3,4,5),3),sgp(2,3))]",
      f"{_FFD}[ffd(sgp(2,3),powser(sgp(2,3)))]"]),
    ("R-FFD depth refusal at equal depths", _CERT,
     "if cover_depth > ring_depth:", "if cover_depth >= ring_depth:",
     [_READS_RING, "tests/test_certify.py::test_ffd_states_the_depths_it_compares"]),
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
     "        if value is not True and value.startswith(\"-\") and not value[1:2].isdecimal():\n"
     "            return None\n"
     "        given[flag] = value\n",
     'if flag not in flags or flag == "--rule":\n'
     "            return None\n"
     '        value = True if "action" in flags[flag] else next(words, "-")\n'
     "        if value is not True and value.startswith(\"-\") and not value[1:2].isdecimal():\n"
     "            return None\n"
     "        given.setdefault(flag, value)\n",
     [_READER]),
    ("argparse imported at module level", _CLI,
     "import os\nimport sys\n", "import argparse\nimport os\nimport sys\n",
     [f"{_MODULE_SET}[args{i}-lazy{i}]" for i in (0, 2, 3, 4, 5, 6, 7)]),
    # a valid command compiles only its own code path
    ("certify imports the schema module at top level", _CERT,
     'SCHEMA_VERSION = "cert-v1"\n',
     'SCHEMA_VERSION = "cert-v1"\nfrom ._schema import CERT_SCHEMA  # noqa: E402\n',
     [f"{_MODULE_SET}[args{i}-lazy{i}]" for i in (3, 4)]),
    ("cli imports every command module at import", _CLI,
     "main = _Main()\n", "main = _Main()\nfrom . import _cli_ext, _cli_ideal  # noqa: E402\n",
     [f"{_MODULE_SET}[args{i}-lazy{i}]" for i in (0, 3, 6)]),
    ("root help loads the command modules", "_cli_help.py",
     "import argparse\n", "import argparse\n\nfrom . import _cli_ext, _cli_ideal  # noqa\n",
     [f"{_MODULE_SET}[args{i}-lazy{i}]" for i in (1, 8)]),
    # the entry point ends the process by os._exit after flushing
    ("process exit code replaced by 0", _CLI,
     "os._exit(code)", "os._exit(0)",
     [f"{_EXIT}[False]", f"{_EXIT}[True]",
      "tests/test_cli.py::test_module_entry_point_exit_codes"]),
    ("stdout flushes dropped before the process exit", _CLI,
     ("                sys.stdout.flush()\n", "for stream in (sys.stdout, sys.stderr):"),
     ("                pass\n", "for stream in (sys.stderr,):"),
     [f"{_EXIT}[False]"]),
    # lemma42 keeps one running sum per (n, c)
    ("lemma42 ratio check made non-strict", "_cli_ideal.py",
     "if below >= a:", "if below > a:",
     [f"{_LEMMA42}[doubling]", f"{_LEMMA42}[doubling-bumped]"]),
    ("lemma42 running sum not advanced", "_cli_ideal.py",
     "below += a", "below += 0",
     [f"{_LEMMA42}[real]", "tests/test_cli.py::test_lemma42"]),
    ("lemma42 identity check started at l = 4", "_cli_ideal.py",
     "if ell >= 3:", "if ell >= 4:",
     [f"{_LEMMA42}[doubling]", "tests/test_acceptance.py::test_lemma42_counts_every_check[6-10]"]),
    # a descriptor is well formed when its text parses back to it, and each
    # ring checks itself
    ("Truncation.check without the membership test", _CERT,
     '        _check_members(H, (self.q,), "truncation degree")\n', "",
     [f"{_OBJECTS}[Truncation(generators=(3, 4, 5), q=2)]",
      f"{_OBJECTS}[AbstractWithFiniteFlatCover(inner=Truncation(generators=(3, 4, 5), q=2), "
      "cover=SemigroupRing(generators=(2, 3)))]"]),
    ("validator walk not descending into inner rings", _CERT,
     "            yield from _rings(inner)\n", "            pass\n",
     [f"{_MALFORMED}[ffd(glued(sgp(3,4,5),5,4),sgp(2,3))]",
      f"{_MALFORMED}[qpow(ffd(glued(sgp(3,4,5),5,4),sgp(2,3)),1,1)]",
      f"{_OBJECTS}[AbstractWithFiniteFlatCover(inner=Truncation(generators=(3, 4, 5), q=2), "
      "cover=SemigroupRing(generators=(2, 3)))]"]),
    ("round trip compares only the class", _CERT,
     "same = parse_ring(str(desc)) == desc",
     "same = type(parse_ring(str(desc))) is type(desc)",
     [f"{_OBJECTS}[SemigroupRing(generators='34')]",
      f"{_OBJECTS}[SemigroupRing(generators=[3, 4, 5])]"]),
    # Koszul homology oracles
    ("_nakayama keeps one redundant column", _ART,
     "return [vec for vec in vecs if span.add(vec)]",
     "return [vec for vec in vecs if span.add(vec)] + vecs[-1:]",
     [f"{_GOLOD}[(5, 6, 13)]", f"{_GOLOD}[(10, 11, 12, 13)]", f"{_GOLOD}[(3, 4, 5)]"]),
    ("F in _derived_dims drops one row", _ART,
     "                for row in rows:\n", "                for row in rows[:-1]:\n",
     ["tests/test_koszul.py::test_top_koszul_homology_is_the_type"]),
    ("truncation atoms only above q", _CERT,
     "return [g for g in semigroup.generators if g != q]",
     "return [g for g in semigroup.generators if g > q]",
     ["tests/test_koszul.py::test_first_koszul_homology_is_n_where_the_ci_premise_holds"]),
    # a gluing needs n >= 2, as m must be no minimal generator of H
    ("gluing takes n = 1", _SGP,
     '        if n == 1:\n            raise SackitError("gluing needs n >= 2, got n=1")\n', "",
     ["tests/test_semigroup.py::test_glue_error_precedence",
      "tests/test_cli.py::test_glue",
      f"{_MALFORMED}[glued(sgp(2,3),1,4)]",
      "tests/test_certify.py::test_no_certificate_rests_on_a_premise_its_rings_refute"]),
    # the ideal powers sweep: one residue-table step a layer, counted first
    ("power step shifts by H's generators", "ideals.py",
     "below = tuple(_plus(table, ideal.generators))",
     "below = tuple(_plus(table, ideal.ambient.generators))",
     [_POWER_ORACLE, f"{_PINNED}[hgens2-igens2-layers2]"]),
    ("power count drops I's own table", "ideals.py",
     "if (up_to + 1) * ideal.mu()", "if up_to * ideal.mu()",
     [f"{_SWEEP}[3,4,5-4,5]", f"{_SWEEP}[1001,1003-1001,1003]",
      f"{_SWEEP}[7,9,11,13,17-9,11,13]"]),
    ("power sweep without its cap", "ideals.py",
     "(ideal.ambient.multiplicity + _ROW_STEPS) > MAX_POWER_STEPS:",
     "(ideal.ambient.multiplicity + _ROW_STEPS) > MAX_POWER_STEPS and False:",
     [f"{_SWEEP}[3,4,5-3,4,5]", f"{_SWEEP}[4,6,7,9-6]",
      "tests/test_ideals.py::test_power_sweep_cap_over_a_large_multiplicity"]),
    ("Ulrich layer read from I against itself", "ideals.py",
     "layer = _length(ideal._least, _plus(ideal._least, ideal.generators))",
     "layer = _length(ideal._least, ideal._least)",
     [_POWER_ORACLE, "tests/test_ideals.py::test_reference_report_frozen"]),
    ("reader declines values that start with - and a digit", _CLI,
     ' and not value[1:2].isdecimal()', "",
     ["tests/test_cli.py::test_a_value_may_start_with_a_minus_and_a_digit"]),
    # R-CI reads k[H]/I^p off I's generators, and lemma42 stops at min(N, cmax)
    ("upow premise reads I^p as I", _CERT,
     "ideal.member(g if power == 1 else 0)", "ideal.member(g)",
     [_UPOW_ORACLE, _BYTES]),
    ("upow premise forgets the unit ideal", _CERT,
     "ideal.member(g if power == 1 else 0)", "ideal.member(g if power == 1 else -1)",
     [_UPOW_ORACLE]),
    ("lemma42 sweeps n past cmax", "_cli_ideal.py",
     "for n in range(2, min(n_max, cmax) + 1):", "for n in range(2, n_max + 1):",
     ["tests/test_cli.py::test_lemma42_sweeps_n_no_further_than_cmax"]),
    # a walk is capped in k-matrix columns summed over the steps it builds,
    # each charged before it is built
    ("walk without its k-matrix cap", _ART,
     "                if built > MAX_WALK_COLUMNS:\n", "                if False:\n",
     [_STEP_CAP, "tests/test_cli.py::test_a_syzygy_step_past_the_column_cap_ends_in_one_error_line"]),
    ("k-matrix cap counts relation columns", _ART,
     "built += len(key[1]) * algebra.dim", "built += len(key[1])", [_STEP_CAP]),
    ("k-matrix cap charges a step after it is built", _ART,
     ("                if built > MAX_WALK_COLUMNS:\n",
      "                store[key] = _component_split(algebra, len(key[1]), syz)\n"),
     ("                if False:\n",
      "                store[key] = _component_split(algebra, len(key[1]), syz)\n"
      "                if built > MAX_WALK_COLUMNS:\n"
      "                    raise TooLarge(f\"a syzygy walk of {built} k-matrix columns is \"\n"
      "                                   f\"above the supported {MAX_WALK_COLUMNS}\")\n"),
     [_STEP_CAP]),
    # a walk is capped in levels² · max(1, log2(dim A)) over the algebra it walks
    ("walk without its bit cap", _ART,
     "    if bits > MAX_WALK_BITS:\n", "    if False:\n",
     [_BIT_CAP, _DEPTH_CAP, "tests/test_cli.py::test_extdeg_past_the_bit_cap_ends_in_one_error_line"]),
    ("bit cap reads the algebra asked for", _ART,
     "    _check_bits(upto, m)\n", "    _check_bits(upto, algebra.dim)\n",
     [_BIT_CAP]),
    ("bit cap without its one-bit floor", _ART,
     "log2(max(2, dim))", "log2(dim)", [_DEPTH_CAP]),
    # the walk skips the Bass numbers a routed Ext does not read, and the
    # Nakayama pass skips columns on the socle
    ("Bass walk skipped on no k summand of M only", _ART,
     "if transpose or not a * g or", "if transpose or not a or",
     [_BASS]),
    # over a Gorenstein A_m, H symmetric, the Bass numbers are (1, 0, ...)
    ("the Gorenstein case taken for every H", _ART,
     "or H.is_gap_symmetric():", "or True:",
     [f"{_WALK}[H3,4,5-q8-3]", _BASS]),
    ("the Gorenstein case never taken", _ART,
     "or H.is_gap_symmetric():", "or False:",
     [_GORENSTEIN]),
    ("socle read over the first atom only", _ART,
     "if not any(d + a in self._index for a in atoms))",
     "if not any(d + a in self._index for a in atoms[:1]))",
     ["tests/test_artinian.py::test_nakayama_takes_no_multiple_of_a_socle_column", _MINIMAL,
      f"{_UNIT_ROW}[H3,4,5-q6]"]),
    # a realization is capped in the multiples it builds, each counted before
    # it is built
    ("realization without its cap", _ART,
     "    if columns > MAX_REALIZATION_COLUMNS:\n", "    if False:\n",
     [_REALIZED, "tests/test_cli.py::test_a_realization_past_its_cap_ends_in_one_error_line"]),
    ("realization charges its action after building it", _ART,
     ("    _realized(built + len(free_pos) * dim_a)\n",
      "            ents.extend((coord[i], j, x) for i, x in span.reduce(image).items())\n"),
     ("",
      "            ents.extend((coord[i], j, x) for i, x in span.reduce(image).items())\n"
      "    _realized(built + len(free_pos) * dim_a)\n"),
     [_REALIZED]),
    ("realization charges dim M without the factor dim A", _ART,
     "_realized(built + len(free_pos) * dim_a)", "_realized(built + len(free_pos))",
     [_REALIZED]),
    # ext table checks the digit limit before it formats, and a Miller-Rabin
    # witness proves a number composite
    ("ext table formats before its limit check", "_cli_ext.py",
     ("    str(max(dims))\n", "    widths = "), ("", "    str(max(dims))\n    widths = "),
     ["tests/test_cli.py::test_ext_table_checks_the_digit_limit_before_it_formats"]),
    ("Miller-Rabin witness taken for a prime", _ART,
     "            return False\n    return True", "            return True\n    return True",
     ["tests/test_artinian.py::test_is_prime_matches_a_sieve_and_refuses_strong_pseudoprimes",
      "tests/test_cli.py::test_characteristic_flag_and_env"]),
]


def _each(snippets) -> tuple[str, ...]:
    return (snippets,) if isinstance(snippets, str) else snippets


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
    for name, file, snippets, _, _ in ROWS:
        text = (ROOT / "src" / "sackit" / file).read_text()
        for snippet in _each(snippets):
            count = text.count(snippet)
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
        for i, (name, file, snippets, replacements, tests) in enumerate(ROWS):
            tree = Path(scratch) / f"m{i}"
            _copy(tree)
            path = tree / "src" / "sackit" / file
            text = path.read_text()
            for snippet, replacement in zip(_each(snippets), _each(replacements), strict=True):
                text = text.replace(snippet, replacement)
            path.write_text(text)
            survivors = sorted(_passed(tree, tests))
            print(f"{'SURVIVED' if survivors else 'killed  '}  {name}", flush=True)
            problems += [f"{name}: {test} passes" for test in survivors]
            shutil.rmtree(tree)
    print("\n".join(problems) or f"all {len(ROWS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
