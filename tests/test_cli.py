"""Command line surface: every subcommand, exit codes, JSON round trips."""

import builtins
import hashlib
import importlib.util
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from sackit import CERT_SCHEMA
from sackit.artinian import MAX_REALIZATION_COLUMNS, MAX_WALK_BITS, MAX_WALK_COLUMNS
from sackit.certify import RingDescriptor
from sackit.cli import _JSON, COMMANDS, _int_list, _parse_range, _parser, _read, main
from sackit.semigroup import MAX_TABLE_BITS

from cli_runner import invoke


def run(*args, env=None):
    return invoke(args, env=env)


def test_help_and_version():
    assert run("--help").exit_code == 0
    assert run("-h").exit_code == 0
    r = run("--version")
    assert r.exit_code == 0 and "0.1.0" in r.output
    for sub in ("sgp", "ideal", "glue", "ext", "extdeg", "lemma42", "certify"):
        assert run(sub, "--help").exit_code == 0, sub


def test_sgp_info():
    r = run("sgp", "info", "--gens", "8,11,12,14,18", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc == {
        "generators": [8, 11, 12, 14, 18],
        "frobenius": 21,
        "genus": 13,
        "multiplicity": 8,
        "embedding_dim": 5,
        "apery_of_multiplicity": [0, 11, 12, 14, 18, 23, 25, 29],
        "gap_symmetric": False,
        "minimal_multiplicity": False,
        "almost_minimal_multiplicity": False,
    }
    human = run("sgp", "info", "--gens", "8,11,12,14,18")
    assert human.exit_code == 0
    assert "frobenius" in human.output
    # every number shown to humans agrees with the JSON
    for key in ("frobenius", "genus", "multiplicity"):
        m = re.search(rf"{key}\s*[:=]?\s*(\d+)", human.output)
        assert m and int(m.group(1)) == doc[key], key


def test_sgp_info_rejects_bad_input():
    assert run("sgp", "info", "--gens", "4,6").exit_code == 1
    assert run("sgp", "info", "--gens", "4x6").exit_code == 2
    assert run("sgp", "info").exit_code == 2  # --gens is required


def test_ideal_ulrich():
    r = run("ideal", "ulrich", "--gens", "8,11,12,14,18",
            "--ideal", "8,12,14,18", "--json")
    assert r.exit_code == 0
    assert json.loads(r.output) == {
        "is_ulrich": True,
        "reduction_q": 8,
        "colength": 2,
        "mu": 4,
        "layer_length": 8,
        "free_rank": 4,
    }
    explicit = run("ideal", "ulrich", "--gens", "8,11,12,14,18",
                   "--ideal", "8,12,14,18", "--q", "8", "--json")
    assert json.loads(explicit.output) == json.loads(r.output)
    human = run("ideal", "ulrich", "--gens", "8,11,12,14,18",
                "--ideal", "8,12,14,18")
    assert "is_ulrich=true" in human.output
    # no stable reduction exists for the maximal ideal of <5,6,9>
    assert run("ideal", "ulrich", "--gens", "5,6,9",
               "--ideal", "5,6,9").exit_code == 1
    # nor for the unit ideal (0), whose one generator is no witness
    unit = run("ideal", "ulrich", "--gens", "3,4,5", "--ideal", "0")
    assert (unit.exit_code, unit.stderr) == (
        1, "error: no stable reduction degree among the generators\n")
    given = run("ideal", "ulrich", "--gens", "3,4,5", "--ideal", "0", "--q", "3", "--json")
    assert given.exit_code == 0
    assert json.loads(given.output) == {
        "is_ulrich": False, "colength": 0, "mu": 1, "layer_length": 0}


def test_ideal_powers():
    r = run("ideal", "powers", "--gens", "8,11,12,14,18",
            "--ideal", "8,12,14,18", "--up-to", "4", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc == {
        "mu": 4,
        "colength": 2,
        "layers": [8, 8, 8, 8],
        "predicted": [8, 8, 8, 8],
        "matches": [True, True, True, True],
    }
    human = run("ideal", "powers", "--gens", "8,11,12,14,18",
                "--ideal", "8,12,14,18", "--up-to", "4")
    assert human.exit_code == 0 and human.output.count("true") == 4


def test_glue():
    r = run("glue", "--gens", "4,6,7,9", "--n", "2", "--m", "11")
    assert r.exit_code == 0 and r.output.strip() == "8,11,12,14,18"
    j = run("glue", "--gens", "4,6,7,9", "--n", "2", "--m", "11", "--json")
    assert json.loads(j.output) == {"generators": [8, 11, 12, 14, 18]}
    bad = run("glue", "--gens", "3,5", "--n", "2", "--m", "5")
    assert bad.exit_code == 1
    assert "error:" in bad.stderr
    one = run("glue", "--gens", "2,3", "--n", "1", "--m", "4")
    assert (one.exit_code, one.stdout) == (1, "")
    assert one.stderr == "error: gluing needs n >= 2, got n=1\n"


def test_ext_table():
    r = run("ext", "table", "--H", "3,4,5", "--q", "3",
            "--mod", "k", "--range", "0..8", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["dims"] == [1, 2, 4, 8, 16, 32, 64, 128, 256]
    assert doc["functor"] == "ext"
    assert doc["algebra"] == "H=3,4,5; q=3; p=32003"
    assert doc["range"] == [0, 8]
    human = run("ext", "table", "--H", "3,4,5", "--q", "3",
                "--mod", "k", "--range", "0..8")
    nums = [int(x) for x in re.findall(r"\b\d+\b", human.output.split("\n")[-2])]
    assert doc["dims"] == nums or all(d in nums for d in doc["dims"])
    tor = run("ext", "table", "--H", "3,4,5", "--q", "3",
              "--mod", "k", "--range", "0..8", "--tor", "--json")
    tordoc = json.loads(tor.output)
    assert tordoc["functor"] == "tor"
    assert tordoc["dims"] == doc["dims"]  # k against k: same dims both ways


def test_ext_table_module_language():
    r = run("ext", "table", "--H", "4,5,6", "--q", "4",
            "--mod", "cyc(5)+k", "--range", "0..3", "--json")
    assert r.exit_code == 0
    summed = json.loads(r.output)["dims"]
    # the table is Ext(X, X), so a two-part X expands into four blocks
    from sackit import (NumericalSemigroup, cyclic_quotient, ext_dims,
                        residue_field, truncation_algebra)
    A = truncation_algebra(NumericalSemigroup.from_generators([4, 5, 6]), 4)
    blocks = [cyclic_quotient(A, 5), residue_field(A)]
    expected = [
        sum(ext_dims(M, N, 3)[i] for M in blocks for N in blocks)
        for i in range(4)
    ]
    assert summed == expected
    free = run("ext", "table", "--H", "4,5,6", "--q", "4",
               "--mod", "A", "--range", "0..4", "--json")
    assert json.loads(free.output)["dims"][1:] == [0, 0, 0, 0]
    # module-language errors surface as domain errors, like bad descriptors
    assert run("ext", "table", "--H", "4,5,6", "--q", "4",
               "--mod", "cyc(x)", "--range", "0..2").exit_code == 1
    # a negative degree is an error, not a non-basis degree (which gives A)
    negative = run("ext", "table", "--H", "3,4,5", "--q", "6", "--mod", "cyc(-3)")
    assert negative.exit_code == 1 and negative.output.startswith("error:")


def test_characteristic_flag_and_env():
    base = run("ext", "table", "--H", "4,5,6", "--q", "4",
               "--mod", "k", "--range", "0..6", "--json")
    flag = run("ext", "table", "--H", "4,5,6", "--q", "4",
               "--mod", "k", "--range", "0..6", "--p", "2", "--json")
    b, f = (json.loads(x.output) for x in (base, flag))
    assert b["algebra"] == "H=4,5,6; q=4; p=32003"
    assert f["algebra"] == "H=4,5,6; q=4; p=2"
    assert b["dims"] == f["dims"]
    assert run("ext", "table", "--H", "4,5,6", "--q", "4", "--mod", "k",
               "--range", "0..2", "--p", "6").exit_code == 1
    # 1763 = 41 * 43 passes the trial division by the primes up to 37
    composite = run("ext", "table", "--H", "3,4,5", "--q", "6", "--p", "1763")
    assert (composite.exit_code, composite.stdout, composite.stderr) == (
        1, "", "error: characteristic 1763 is not prime\n")
    # the characteristic comes from --p alone: SACKIT_PRIME, prime or not,
    # changes no byte
    for args in (("ext", "table", "--H", "4,5,6", "--q", "4", "--json"),
                 ("extdeg", "--H", "4,5,6", "--q", "4", "--mod", "k")):
        plain = run(*args, env={"SACKIT_PRIME": None})
        assert plain.exit_code == 0
        for value in ("2", "4"):
            odd = run(*args, env={"SACKIT_PRIME": value})
            assert (odd.exit_code, odd.output) == (0, plain.output), (args, value)


def test_a_characteristic_is_refused_from_2_64_on():
    # Miller-Rabin on the prime bases up to 37 proves primality only below
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to all of
    # them; a characteristic from 2^64 on is refused, the largest prime
    # below 2^64 still works
    args = ("ext", "table", "--H", "3,4,5", "--q", "6", "--mod", "cyc(4)+k",
            "--range", "0..4", "--p")
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461
    for p in (psi12, 2**64):
        r = run(*args, str(p))
        assert (r.exit_code, r.stdout) == (1, ""), p
        assert r.stderr == f"error: characteristic {p} is not below the supported 2^64\n"
    r = run(*args, "18446744073709551557")
    assert r.exit_code == 0 and "p=18446744073709551557" in r.stdout
    assert r.stdout.splitlines()[-1] == "dim: 7  11  23  51  106"


def test_a_result_past_the_decimal_digit_limit_is_an_error():
    # the interpreter writes no int of more than 4300 decimal digits; the
    # Apery set of <5, g> and the gluing 4300-digit n * <2, 3> + <5> hold such
    # ints, so both commands end in one error: line, in process and as a
    # process alike
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    g, n = 9 * 10**4299 + 1, 4 * 10**4299 + 1
    for args in (("sgp", "info", "--gens", f"5,{g}"),
                 ("glue", "--gens", "2,3", "--n", str(n), "--m", "5")):
        for flags in ((), ("--json",)):
            done = subprocess.run([sys.executable, "-m", "sackit", *args, *flags],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert "Traceback" not in done.stderr, args
            assert (done.returncode, done.stdout) == (1, ""), args
            assert done.stderr == "error: a result has more than 4300 decimal digits\n"
            r = run(*args, *flags)
            assert (r.exit_code, r.stdout, r.stderr) == (1, "", done.stderr), args


def test_ext_table_checks_the_digit_limit_before_it_formats(monkeypatch):
    # the largest dimension is converted first, so a table past the limit
    # formats no dimension: Ext^i(k, k) over k[3,4,5]/(t^6) has dimension
    # 2^(i+1) - 1, of 663 digits at i = 2200, past the least limit, 640
    converted = []

    def recording(x):
        converted.append(x)
        return builtins.str(x)

    monkeypatch.setattr("sackit._cli_ext.str", recording, raising=False)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for flags in ((), ("--json",)):
            converted.clear()
            r = run("ext", "table", "--H", "3,4,5", "--q", "6", "--mod", "k",
                    "--range", "0..2200", *flags)
            assert (r.exit_code, r.stdout, r.stderr) == (
                1, "", "error: a result has more than 640 decimal digits\n"), flags
            assert converted == [2**2201 - 1], flags
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_raises_a_value_error_that_is_not_the_digit_limit(monkeypatch):
    def broken(gens):
        raise ValueError("no digit limit")

    monkeypatch.setattr("sackit.cli.sgp_info", broken)
    with pytest.raises(ValueError, match="^no digit limit$"):
        run("sgp", "info", "--gens", "3,5")


def test_a_syzygy_step_past_the_column_cap_ends_in_one_error_line(monkeypatch):
    # in process with the walk's cap patched low, on walks that end within it
    # unpatched; then the two lines that ended in a MemoryError traceback
    # under 1 GiB, spawned there with the real cap: each is refused at a step
    # of more k-matrix columns than the cap, before it is built
    refused = "error: a syzygy walk of [0-9]+ k-matrix columns is above the supported {}\n"
    monkeypatch.setattr("sackit.artinian.MAX_WALK_COLUMNS", 1000)
    for args in (("ext", "table", "--H", "4,6,7,9", "--q", "8", "--mod", "cyc(6)"),
                 ("extdeg", "--H", "7,9,11,13,17", "--q", "14", "--mod", "k", "--window", "6")):
        r = run(*args)
        assert (r.exit_code, r.stdout) == (1, ""), args
        assert re.fullmatch(refused.format(1000), r.stderr), r.stderr
    for args in [("--H", "7,9,11,13,17", "--q", "14", "--mod", "k", "--range", "0..12"),
                 ("--H", "4,6,7,9", "--q", "8", "--mod", "cyc(6)", "--range", "0..13")]:
        start = time.perf_counter()
        done = _sackit_capped("ext", "table", *args)
        assert time.perf_counter() - start < 10, args
        assert (done.returncode, done.stdout) == (1, ""), args
        assert re.fullmatch(refused.format(MAX_WALK_COLUMNS), done.stderr), done.stderr


def test_walks_of_many_small_steps_end_in_one_error_line():
    # Ext of k and of cyc(11) over k[4,5,6]/(t^4) store one new, larger
    # component each level, every step far below the walk's cap; the walk
    # to degree 3000 ran past 60 s before its columns were counted in total
    refused = ("error: a syzygy walk of [0-9]+ k-matrix columns is above the supported "
               f"{MAX_WALK_COLUMNS}\n")
    ring = ("--H", "4,5,6", "--q", "4")
    lines = [("ext", "table", *ring, "--mod", "k", "--range", "0..3000"),
             ("ext", "table", *ring, "--mod", "k", "--range", "0..3000", "--tor"),
             ("ext", "table", *ring, "--mod", "cyc(11)", "--range", "0..3000"),
             ("extdeg", *ring, "--mod", "k", "--window", "3000")]

    def timed(args):
        start = time.perf_counter()
        return _sackit_capped(*args), time.perf_counter() - start

    with ThreadPoolExecutor(2) as pool:  # two children at a time
        for args, (done, seconds) in zip(lines, pool.map(timed, lines)):
            assert seconds < 10, args
            assert (done.returncode, done.stdout) == (1, ""), args
            assert re.fullmatch(refused, done.stderr), done.stderr


def test_certify_reads_no_characteristic():
    # the premises are integer combinatorics over the semigroup, so a bad
    # SACKIT_PRIME changes no certificate byte
    for ring in ("sgp(5,1001)", "trunc(sgp(3,4,5),6)", "sgp(2,4001)"):
        plain = run("certify", "--ring", ring, "--json", env={"SACKIT_PRIME": None})
        odd = run("certify", "--ring", ring, "--json", env={"SACKIT_PRIME": "4"})
        assert plain.exit_code == 0 and odd.exit_code == 0, odd.output
        assert odd.output == plain.output, ring


def test_extdeg():
    r = run("extdeg", "--H", "3,4,5", "--q", "3", "--mod", "k",
            "--window", "12", "--json")
    assert r.exit_code == 0
    assert json.loads(r.output) == {
        "last_nonzero_in_window": 12,
        "nonzero_at_boundary": True,
    }
    free = run("extdeg", "--H", "3,4,5", "--q", "3", "--mod", "A", "--json")
    assert json.loads(free.output) == {
        "last_nonzero_in_window": "none",
        "nonzero_at_boundary": False,
    }


@pytest.fixture
def syzygy_steps(monkeypatch):
    """The algebras of the syzygy steps taken while a test runs."""
    import sackit.artinian

    seen = []
    syzygy_columns = sackit.artinian._syzygy_columns

    def recorded(algebra, cols):
        seen.append(algebra)
        return syzygy_columns(algebra, cols)

    monkeypatch.setattr(sackit.artinian, "_syzygy_columns", recorded)
    return seen


# Inputs that used to run for minutes or end in a MemoryError traceback.  The
# change of rings answers them over A_m, whose radical squares to zero here,
# so Omega k = k^e and one syzygy step serves every level: P_k over A_m is
# 1/(1 - e z), and over A_q, q no minimal generator, 1/((1 - z)(1 - e z)).
def test_deep_ext_of_k_over_k4679_t8(syzygy_steps):
    r = run("ext", "table", "--H", "4,6,7,9", "--q", "8", "--mod", "k",
            "--range", "0..13", "--json")
    assert r.exit_code == 0
    assert json.loads(r.output) == {
        "algebra": "H=4,6,7,9; q=8; p=32003", "module": "k", "functor": "ext",
        "range": [0, 13], "dims": [(3**(i + 1) - 1) // 2 for i in range(14)],
    }
    assert [B.descriptor() for B in syzygy_steps] == ["H=4,6,7,9; q=4; p=32003"]
    text = run("ext", "table", "--H", "4,6,7,9", "--q", "8", "--mod", "k",
               "--range", "0..13")
    assert text.stdout.splitlines()[-1].split()[-1] == "2391484" == str((3**14 - 1) // 2)


def test_deep_ext_of_k_over_k345_t6(syzygy_steps):
    r = run("ext", "table", "--H", "3,4,5", "--q", "6", "--mod", "k",
            "--range", "0..40", "--json")
    assert r.exit_code == 0
    assert json.loads(r.output)["dims"] == [2**(i + 1) - 1 for i in range(41)]
    assert [B.descriptor() for B in syzygy_steps] == ["H=3,4,5; q=3; p=32003"]
    text = run("ext", "table", "--H", "3,4,5", "--q", "6", "--mod", "k",
               "--range", "0..40")
    assert text.stdout.splitlines()[-1].split()[-1] == str(2**41 - 1)


def test_wide_extdeg_window_over_k4679_t8(syzygy_steps):
    r = run("extdeg", "--H", "4,6,7,9", "--q", "8", "--mod", "k", "--window", "40")
    assert (r.exit_code, r.output) == (
        0, "last_nonzero_in_window=40\nnonzero_at_boundary=true\n")
    assert [B.descriptor() for B in syzygy_steps] == ["H=4,6,7,9; q=4; p=32003"]


def test_truncation_degree_must_be_positive():
    # q = 0 would be the zero algebra; the trunc(...) descriptor rejects it too
    for args in (
        ("ext", "table", "--H", "3,4,5", "--q", "0", "--mod", "k", "--range", "0..3"),
        ("ext", "table", "--H", "3,4,5", "--q", "-3", "--mod", "k", "--range", "0..3"),
        ("extdeg", "--H", "3,4,5", "--q", "0", "--mod", "k"),
        ("ext", "table", "--H", "3,5", "--q", "4"),  # 4 is no member
    ):
        r = run(*args)
        assert r.exit_code == 1, args
        assert r.output.startswith("error:"), args


def test_certify_depth_must_be_positive():
    # as for --up-to, --window and --n: a root depth below 1 is an error, not
    # an Unknown certificate
    for depth in ("0", "-1"):
        r = run("certify", "--ring", "sgp(3,4,5)", "--depth", depth)
        assert (r.exit_code, r.stdout, r.stderr) == (
            1, "", f"error: depth must be >= 1, got {depth}\n")
    assert run("certify", "--ring", "sgp(3,4,5)", "--depth", "1").exit_code == 0


def test_certify_nesting_limit():
    deep = "powser(" * 3000 + "sgp(3,4,5)" + ")" * 3000
    r = run("certify", "--ring", deep)
    assert r.exit_code == 1
    assert r.output.startswith("error:")
    ok = run("certify", "--ring", "powser(" * 50 + "sgp(3,4,5)" + ")" * 50,
             "--depth", "60", "--json")
    assert ok.exit_code == 0
    doc = json.loads(ok.output)
    jsonschema.validate(doc, CERT_SCHEMA)
    assert doc["verdict"] == "Certified"


def test_lemma42():
    r = run("lemma42", "--n", "6", "--cmax", "10", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["n"] == 6 and doc["cmax"] == 10
    assert doc["ratio_failures"] == [] and doc["identity_failures"] == []
    assert doc["ratio_checked"] > 0 and doc["identity_checked"] > 0
    human = run("lemma42", "--n", "6", "--cmax", "10")
    assert "0 failed" in human.output
    m = re.search(r"ratio checks:\s+(\d+) run", human.output)
    assert m and int(m.group(1)) == doc["ratio_checked"]


def test_lemma42_refuses_a_sweep_past_the_work_cap():
    # the ratio checks are counted in closed form before the sweep, so about
    # 1.7e14 of them end in one error: line at once
    start = time.perf_counter()
    done = _sackit_capped("lemma42", "--n", "100000", "--cmax", "100000")
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_lemma42_sweeps_n_no_further_than_cmax():
    # a row with n > cmax holds no check, so the sweep stops at min(N, cmax)
    start = time.perf_counter()
    done = _sackit_capped("lemma42", "--n", "1000000000000000000", "--cmax", "3", timeout=5)
    assert time.perf_counter() - start < 1
    assert done.returncode == 0, done.stderr
    assert done.stdout == run("lemma42", "--n", "3", "--cmax", "3").output


def test_ext_walks_past_the_level_cap_are_refused_at_once():
    # the bit cap charges a level one bit at least: k over k[3,4,5]/(t^6)
    # walks A_3, of dimension 3, to 30,763 levels; one more, and a 400-digit
    # degree, end in the bit cap's error: line before the first level
    for depth in ("30764", "1" + "0" * 399):
        refused = (f"error: Ext or Tor to degree {depth} over an algebra of dimension 3 "
                   f"would hold about [0-9]+ bits, above the supported {MAX_WALK_BITS}\n")
        for args in (("ext", "table", "--H", "3,4,5", "--q", "6", "--mod", "k",
                      "--range", f"0..{depth}"),
                     ("ext", "table", "--H", "3,4,5", "--q", "6", "--mod", "k",
                      "--range", f"{depth}..{depth}", "--tor"),
                     ("extdeg", "--H", "3,4,5", "--q", "6", "--mod", "k",
                      "--window", depth)):
            start = time.perf_counter()
            done = _sackit_capped(*args)
            assert time.perf_counter() - start < 1
            assert (done.returncode, done.stdout) == (1, ""), args
            assert re.fullmatch(refused, done.stderr), done.stderr


def test_sums_without_a_k_summand_walk_nothing():
    # Ext and Tor of A over a truncation are dim A at degree 0 and 0 above,
    # and the change of rings reads them without a walk: lines that the
    # walk's column cap refused print at once, and a 400-digit degree, at
    # q = m and elsewhere, still ends in the bit cap's error: line
    for args, dims in ((("--H", "8,9,11,13", "--q", "16", "--range", "0..11"), [16] + [0] * 11),
                       (("--H", "8,9,11,13", "--q", "16", "--range", "0..11", "--tor"),
                        [16] + [0] * 11),
                       (("--H", "4,5,6", "--q", "5", "--range", "0..3000"), [5] + [0] * 3000)):
        start = time.perf_counter()
        done = _sackit_capped("ext", "table", "--mod", "A", "--json", *args)
        assert time.perf_counter() - start < 1, args
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["dims"] == dims, args
    depth = "1" + "0" * 399
    for gens, q, m in (("4001,4003", "4001", 4001), ("4,5,6", "5", 4)):
        start = time.perf_counter()
        done = _sackit_capped("ext", "table", "--H", gens, "--q", q, "--mod", "A",
                              "--range", f"0..{depth}")
        assert time.perf_counter() - start < 1
        assert (done.returncode, done.stdout) == (1, ""), gens
        assert re.fullmatch(f"error: Ext or Tor to degree {depth} over an algebra of dimension "
                            f"{m} would hold about [0-9]+ bits, above the supported "
                            f"{MAX_WALK_BITS}\n", done.stderr), done.stderr


def test_ext_of_k_reads_the_betti_numbers_of_k():
    # the change of rings reads dim Ext^i(k, k) over A_m as beta_i(k), a step
    # short of an Ext walk, so lines the walk's column cap refused print:
    # over A_8 of <8,9,11,13> the Betti numbers are every second Fibonacci
    # number (P_k = 1/(1 - 3t + t^2)), summed since 16 is no minimal
    # generator, and A_4 of <4,5,6> is a complete intersection, beta_i = i + 1
    betti = [1, 3]
    while len(betti) < 12:
        betti.append(3 * betti[-1] - betti[-2])
    sums = [sum(betti[:i + 1]) for i in range(12)]
    for args, dims in ((("--H", "8,9,11,13", "--q", "16", "--range", "0..11"), sums),
                       (("--H", "8,9,11,13", "--q", "16", "--range", "0..11", "--tor"), sums),
                       (("--H", "4,5,6", "--q", "4", "--range", "499..499"), [500])):
        done = _sackit_capped("ext", "table", "--mod", "k", "--json", *args)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["dims"] == dims, args


def test_a_realization_past_its_cap_ends_in_one_error_line():
    # Ext of k + A into itself realizes A_m for the Bass numbers when H is
    # not symmetric: over <10007, 10008, 10009> at q = m that is 10007²
    # multiples, refused before the first
    start = time.perf_counter()
    done = _sackit_capped("ext", "table", "--H", "10007,10008,10009", "--q", "10007",
                          "--mod", "k+A", "--range", "0..1")
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (f"error: a realization of {10007**2} k-matrix columns is above "
                           f"the supported {MAX_REALIZATION_COLUMNS}\n")


def test_a_table_past_its_bit_cap_ends_in_one_error_line():
    # glue --n <4300 nines> builds <23n, 29n, 2^20>, whose 2^20 Apery entries
    # are multiples of n of about 1.8 KB each: under 1 GiB it ended in a
    # MemoryError traceback after 5.5 s, and is refused before the walk.  So
    # are a basis and the ideal tables of entries near 10^4000, which ran out
    # of memory too, while 2^20 entries of 128 bits, at the cap, still print
    refused = "error: a table of {} integers of [0-9]+ bits is above the supported {} bits\n"
    huge, odd = str(10**4000), str(10**4000 + 1)
    start = time.perf_counter()
    done = _sackit_capped("glue", "--m", "1048576", "--n", "9" * 4300, "--gens", "29,23")
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (1, "")
    assert re.fullmatch(refused.format(2**20, MAX_TABLE_BITS), done.stderr), done.stderr
    for args in (("ext", "table", "--H", f"2,{odd}", "--q", "1048576", "--mod", "A",
                  "--range", "0..0"),
                 ("ideal", "ulrich", "--gens", "1048576,1048577", "--ideal", f"{huge},{odd}",
                  "--q", huge),
                 ("ideal", "powers", "--gens", "1048576,1048577", "--ideal", huge,
                  "--up-to", "1")):
        start = time.perf_counter()
        done = _sackit_capped(*args)
        assert time.perf_counter() - start < 5, args[:2]
        assert (done.returncode, done.stdout) == (1, ""), args[:2]
        assert re.fullmatch(refused.format(2**20, MAX_TABLE_BITS), done.stderr), done.stderr
    top = -(-2**128 // (2**20 - 1)) | 1
    done = _sackit_capped("sgp", "info", "--gens", f"1048576,{top - 2}")
    assert done.returncode == 0 and "multiplicity                 1048576\n" in done.stdout


def test_extdeg_past_the_bit_cap_ends_in_one_error_line():
    # Ext of k over k[200,...,399]/(t^400) is walked over A_200, where its
    # dimensions grow like 199^i; to degree 30,000 (within MAX_LEVELS) that
    # walk ended in a MemoryError traceback under 1 GiB after about 9 s
    start = time.perf_counter()
    done = _sackit_capped("extdeg", "--H", ",".join(map(str, range(200, 400))),
                          "--q", "400", "--mod", "k", "--window", "30000")
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (1, "")
    assert re.fullmatch(f"error: Ext or Tor to degree 30000 over an algebra of dimension "
                        f"200 would hold about [0-9]+ bits, above the supported "
                        f"{MAX_WALK_BITS}\n", done.stderr), done.stderr


def test_ideal_powers_refuses_a_sweep_past_the_work_cap():
    # the layers' work is bounded before the first product, so a billion
    # layers end in one error: line at once
    start = time.perf_counter()
    done = _sackit_capped("ideal", "powers", "--gens", "3,4,5", "--ideal", "3,4,5",
                          "--up-to", "1000000000")
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_certify_command():
    r = run("certify", "--ring", "sgp(3,4,5)", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    jsonschema.validate(doc, CERT_SCHEMA)
    assert doc["verdict"] == "Certified" and doc["rule"] == "R-MIN"
    human = run("certify", "--ring", "sgp(3,4,5)")
    assert "verdict: Certified" in human.output

    ulci = run("certify", "--ring", "sgp(8,11,12,14,18)",
               "--rule", "R-ULCI", "--json")
    glue = run("certify", "--ring", "sgp(8,11,12,14,18)",
               "--rule", "R-GLUE", "--json")
    d1, d2 = json.loads(ulci.output), json.loads(glue.output)
    assert d1["rule"] == "R-ULCI" and d2["rule"] == "R-GLUE"
    assert d1["citation"] != d2["citation"]

    unknown = run("certify", "--ring", "qpow(sgp(3,4,5),1,1)", "--json")
    assert unknown.exit_code == 0
    assert json.loads(unknown.output)["verdict"] == "Unknown"


def test_certify_errors():
    assert run("certify", "--ring", "sgp(4,6)").exit_code == 1
    assert run("certify", "--ring", "sgp(3,4,5)",
               "--rule", "R-NOPE").exit_code == 2
    assert run("certify").exit_code == 2
    hole = run("certify", "--ring", "powser(?)")
    assert (hole.exit_code, hole.stdout, hole.stderr) == (
        1, "", "error: '?' is only valid inside ffd(...)\n")
    # integers longer than int() converts from text (4300 digits)
    big = "9" * 5000
    for ring in (f"sgp({big},2)", f"trunc(sgp(3,4,5),{big})"):
        r = run("certify", "--ring", ring)
        assert r.exit_code == 1, ring[:20]
        assert r.output.startswith("error:"), ring[:20]


def test_huge_multiplicity_is_an_error():
    # the Apery set holds one integer per residue mod the multiplicity, so a
    # multiplicity past MAX_MULTIPLICITY ends in error: before it allocates
    huge = "10000000000000000000000000000,10000000000000000000000000001"
    for args in (("sgp", "info", "--gens", huge),
                 ("certify", "--ring", "sgp(100000000,100000001)")):
        r = run(*args)
        assert r.exit_code == 1, args
        assert r.output.startswith("error:"), args
    # a gluing that would pass it is a rejected premise, not an error
    r = run("certify", "--ring", "glued(sgp(2,3),1000000000,1000000001)", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["verdict"] == "Unknown" and doc["attempted"] == ["R-GLUE"]


def _sackit_capped(*args, timeout=60):
    """Run the CLI in a child process under a 1 GiB address-space cap, so an
    input that allocates without bound ends in MemoryError, not in a machine
    out of memory, and kill it after ``timeout`` seconds."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "sackit", *args], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=cap)


def test_a_wide_ring_of_minimal_multiplicity_is_certified_spawned():
    # R-MIN passes the witness m, and is_ulrich reads the stability of the
    # maximal ideal of <1000, ..., 1999> off one length, with no pairwise scan
    ring = f"sgp({','.join(map(str, range(1000, 2000)))})"
    done = _sackit_capped("certify", "--ring", ring, "--json", timeout=30)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert (doc["verdict"], doc["rule"]) == ("Certified", "R-MIN")


def test_a_wide_ring_without_minimal_multiplicity_ends_spawned():
    # each R-ULCI candidate over <800, ..., 1199> is minimalized and scanned
    # by membership tests that look up only the generators g <= x - m
    ring = f"sgp({','.join(map(str, range(800, 1200)))})"
    done = _sackit_capped("certify", "--ring", ring, "--json", timeout=5)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "Unknown"


def test_a_wide_ulrich_ideal_is_searched_spawned():
    # `ideal ulrich` without --q scans every pair of the 400 generators, each
    # membership test looking up only the generators g <= x - m: about 0.15 s
    # spawned on 2 vCPU, against 2 s when every generator is looked up
    gens = ",".join(map(str, range(400, 800)))
    done = _sackit_capped("ideal", "ulrich", "--gens", gens, "--ideal", gens, "--json",
                          timeout=2)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert (doc["is_ulrich"], doc["reduction_q"], doc["mu"]) == (True, 400, 400)


def test_the_fuzzer_draws_the_same_command_lines_for_a_seed():
    # tools/fuzz.py runs outside the suite; its draw is checked here, and no
    # line is spawned
    spec = importlib.util.spec_from_file_location(
        "fuzz", Path(__file__).resolve().parents[1] / "tools" / "fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    lines = fuzz.draw(1, 400)
    assert lines == fuzz.draw(1, 400) != fuzz.draw(2, 400)
    named = {next((p for p in COMMANDS if args[:len(p.split())] == p.split()), None)
             for args in lines}
    assert named == set(COMMANDS)


def test_huge_algebra_dimension_is_an_error():
    # an algebra lists one basis degree per dimension, so a colength past
    # MAX_DIMENSION ends in error: before the basis is allocated
    for args in (("ext", "table", "--H", "3,4,5", "--q", "1000000000",
                  "--mod", "k", "--range", "0..2"),
                 ("extdeg", "--H", "3,4,5", "--q", "1000000000", "--mod", "k")):
        done = _sackit_capped(*args)
        assert done.returncode == 1, args
        assert done.stderr.startswith("error: algebra dimension 1000000000"), args
    # certify builds no such algebra: R-RAD3 fails on the sum 3 + 3 + 3 of
    # atoms, which is not in q + H, and R-MODX reaches k[[H]] without the
    # truncation's basis; <3,4,5> is not symmetric, so its truncation is no
    # Gorenstein ring for R-QPOW (over R[[T]], as the Artinian truncation
    # has depth 0)
    for ring, verdict, rule in (
            ("trunc(sgp(3,4,5),1000000000)", "Certified", "R-MODX"),
            ("qpow(powser(trunc(sgp(3,4,5),1000000000)),1,1)", "Unknown", None),
            ("qpow(powser(trunc(sgp(3,5),1000000000)),1,1)", "Certified", "R-QPOW")):
        done = _sackit_capped("certify", "--ring", ring, "--json")
        assert done.returncode == 0, (ring, done.stderr)
        doc = json.loads(done.stdout)
        assert (doc["verdict"], doc["rule"]) == (verdict, rule)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_text_output_is_utf8_under_any_locale(encoding):
    # the R-RAD3, R-MODX and R-QPOW quotes are not ASCII ("…", "∈", "ℓ")
    src = Path(__file__).resolve().parents[1] / "src"
    for ring in ("trunc(sgp(3,4,5),6)", "qpow(sgp(2,3),1,1)"):
        out = {}
        for name in ("utf-8", encoding):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": name}
            done = subprocess.run([sys.executable, "-m", "sackit", "certify", "--ring", ring],
                                  env=env, capture_output=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, b""), (ring, name, done.stderr)
            out[name] = done.stdout
        assert out[encoding] == out["utf-8"], ring


def test_text_output_is_utf8_in_process(monkeypatch):
    # main sets the encoding of a stdout that it can reconfigure
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    with pytest.raises(SystemExit) as done:
        main.main(["certify", "--ring", "qpow(sgp(2,3),1,1)"])
    assert done.value.code == 0
    text = raw.getvalue().decode("utf-8")
    assert "ℓ" in text and text == run("certify", "--ring", "qpow(sgp(2,3),1,1)").stdout


def _sackit_piped(*args, unbuffered):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "sackit", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_ends_quietly(unbuffered):
    # `sackit ... | head -1`.  A block-buffered stdout writes a short output
    # at the exit flush, an unbuffered one in print, so run both ways.  The
    # reader goes after one line of a long output (30000 Apery elements),
    # and before the child writes anything of a short one.
    long = _sackit_piped("sgp", "info", "--gens", "30000,30001", "--json",
                         unbuffered=unbuffered)
    assert long.stdout.readline() == b"{\n"
    long.stdout.close()
    short = _sackit_piped("sgp", "info", "--gens", "2,8001", "--json",
                          unbuffered=unbuffered)
    short.stdout.close()
    for proc in (long, short):
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err, err
    # argparse writes help and the version itself; an unbuffered stdout
    # loses them quietly inside argparse, which then exits 0
    for args in (("--help",), ("--version",), ("certify", "--help")):
        proc = _sackit_piped(*args, unbuffered=unbuffered)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1), (args, err)
        assert "Traceback" not in err and "Exception ignored" not in err, (args, err)


def test_certify_help_lists_every_head():
    r = run("certify", "--help")
    assert r.exit_code == 0
    lines = r.output.splitlines()
    for cls in RingDescriptor.__args__:
        assert any(line.lstrip().startswith(f"{cls.HEAD}(") for line in lines), cls


def test_usage_errors_are_exit_2():
    assert run("no-such-command").exit_code == 2
    assert run("sgp", "info", "--gens", "3,4,5", "--frobulate").exit_code == 2
    assert run("ext", "table", "--H", "3,4,5", "--q", "3",
               "--mod", "k", "--range", "oops").exit_code == 2


def test_outputs_are_bytewise_deterministic():
    for args in (
        ("certify", "--ring", "sgp(8,11,12,14,18)", "--json"),
        ("ext", "table", "--H", "3,4,5", "--q", "3", "--mod", "k",
         "--range", "0..6", "--json"),
        ("sgp", "info", "--gens", "8,11,12,14,18", "--json"),
    ):
        assert run(*args).output == run(*args).output


def test_huge_ideal_power_ends_within_seconds():
    # R-CI reads the atoms of k[H]/I^p off I's generators, so p = 10^9
    # builds no power of I
    done = _sackit_capped("certify", "--ring",
                          "upow(sgp(3,4,5),(3,4,5),1000000000)", "--json")
    assert done.returncode in (0, 1), done.stderr
    if done.returncode == 1:
        assert done.stderr.startswith("error:")
    else:
        jsonschema.validate(json.loads(done.stdout), CERT_SCHEMA)


def test_module_entry_point_exit_codes():
    # the `python -m sackit` process itself, not the test runner: 0 on
    # success, 1 on a domain error, 2 on a usage error
    done = _sackit_capped("--version")
    assert (done.returncode, done.stdout) == (0, "sackit, version 0.1.0\n")
    done = _sackit_capped("sgp", "info", "--gens", "4,6")
    assert done.returncode == 1 and done.stderr.startswith("error:")
    for args in (("sgp", "info", "--gens", "4x6"), (), ("sgp",)):
        done = _sackit_capped(*args)
        assert done.returncode == 2, args
        assert done.stdout == "" and "error:" in done.stderr, args
        assert done.stderr.startswith("Usage: python -m sackit"), args


@pytest.mark.parametrize("unbuffered", [False, True])
def test_the_process_exit_writes_what_main_writes(unbuffered, tmp_path):
    # `python -m sackit` ends by os._exit after flushing, with no interpreter
    # teardown to write what a stream still holds.  Its stdout goes to a
    # file, as a benchmark op's does: block-buffered unless PYTHONUNBUFFERED
    # is set, so the last bytes wait for the flush.  The process must write
    # the bytes and exit with the code that `main` gives in process
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(src), COLUMNS="80")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for args, code, err_start in (
            (("sgp", "info", "--gens", "30000,30001", "--json"), 0, ""),
            (("sgp", "info", "--gens", "4,6"), 1, "error:"),
            (("sgp", "info"), 2, "Usage: python -m sackit sgp info"),
            (("--help",), 0, ""),
            (("--version",), 0, "")):
        out, err = tmp_path / "stdout", tmp_path / "stderr"
        with open(out, "wb") as out_file, open(err, "wb") as err_file:
            done = subprocess.run([sys.executable, "-m", "sackit", *args], env=env,
                                  stdout=out_file, stderr=err_file, timeout=60)
        want = invoke(args, env={"COLUMNS": "80"}, prog_name="python -m sackit")
        assert (want.exit_code, want.stderr[:len(err_start)]) == (code, err_start), args
        assert want.stdout or code, args
        assert done.returncode == code, (args, err.read_text())
        assert out.read_bytes() == want.stdout.encode(), args
        assert err.read_bytes() == want.stderr.encode(), args


# Command lines whose bytes sackit itself writes: every command in text and
# --json form, and one domain error per group.
OUTPUT_CORPUS = [
    ("sgp", "info", "--gens", "8,11,12,14,18"),
    ("sgp", "info", "--gens", "3,5"),
    ("ideal", "ulrich", "--gens", "8,11,12,14,18", "--ideal", "8,12,14,18"),
    ("ideal", "ulrich", "--gens", "3,4,5", "--ideal", "3,4,5", "--q", "3"),
    ("ideal", "powers", "--gens", "8,11,12,14,18", "--ideal", "8,12,14,18"),
    ("ideal", "powers", "--gens", "3,4,5", "--ideal", "4,5", "--up-to", "3"),
    ("glue", "--gens", "4,6,7,9", "--n", "2", "--m", "11"),
    ("ext", "table", "--H", "3,4,5", "--q", "3"),
    ("ext", "table", "--H", "3,4,5", "--q", "6", "--mod", "cyc(4)+k", "--range", "2..6"),
    ("ext", "table", "--H", "4,5,6", "--q", "4", "--mod", "cyc(5)+A", "--range", "0..4",
     "--tor", "--p", "5"),
    ("extdeg", "--H", "3,4,5", "--q", "3", "--mod", "k"),
    ("extdeg", "--H", "3,4,5", "--q", "3", "--mod", "A", "--window", "4"),
    ("lemma42",),
    ("lemma42", "--n", "4", "--cmax", "6"),
    ("certify", "--ring", "sgp(8,11,12,14,18)"),
    ("certify", "--ring", "sgp(8,11,12,14,18)", "--rule", "R-GLUE"),
    ("certify", "--ring", "qpow(sgp(3,4,5),1,1)"),
    ("certify", "--ring", "ffd(sgp(3,4,5),ffd(?,trunc(sgp(4,5,6),4)))", "--depth", "3"),
]
OUTPUT_CORPUS += [args + ("--json",) for args in OUTPUT_CORPUS] + [
    ("sgp", "info", "--gens", "4,6"),
    ("ideal", "ulrich", "--gens", "5,6,9", "--ideal", "5,6,9"),
    ("ideal", "powers", "--gens", "3,4,5", "--ideal", "2"),
    ("glue", "--gens", "3,5", "--n", "2", "--m", "5"),
    ("ext", "table", "--H", "3,4,5", "--q", "3", "--mod", "cyc(x)"),
    ("extdeg", "--H", "3,4,5", "--q", "0", "--mod", "k"),
    ("lemma42", "--n", "1"),
    ("certify", "--ring", "sgp(4,6)", "--json"),
]
# Command lines whose bytes argparse lays out: help at every level, the
# version, and one usage error per group.
ARGPARSE_CORPUS = [
    ("--help",), ("-h",), ("--version",), (), ("sgp",), ("no-such-command",),
] + [
    (*path.split(), "--help")
    for path in ("sgp", "ideal", "ext", *COMMANDS)
] + [
    ("sgp", "info", "--gens", "4x6"),
    ("ideal", "ulrich", "--gens", "3,4,5"),
    ("ext", "table", "--H", "3,4,5", "--q", "3", "--range", "oops"),
    ("glue", "--gens", "3,5", "--n", "2"),
    ("extdeg", "--H", "3,4,5", "--q", "3"),
    ("lemma42", "--cmax", "x"),
    ("certify", "--ring", "sgp(3,4,5)", "--rule", "R-NOPE"),
]
# sha256 over (args, exit code, stdout, stderr) of each corpus; argparse
# lays out help and usage differently across Python versions, so that
# digest is pinned for the version it was taken on
OUTPUT_SHA256 = "81641eb13f23e0ecfdfeee6e94d56b3ce0feae09bf155ea7c2fa18c9d63ccb9d"
ARGPARSE_SHA256 = {
    (3, 11): "6e312577847f411686ac9bd61e089b7ae820a2d28d1e5905fdae99490a125fb5",
}


def _corpus_digest(corpus):
    digest = hashlib.sha256()
    for args in corpus:
        r = invoke(args, env={"COLUMNS": "80", "SACKIT_PRIME": None})
        digest.update(repr((args, r.exit_code, r.stdout, r.stderr)).encode())
    return digest.hexdigest()


def test_cli_outputs_are_frozen():
    # run-to-run determinism (below) cannot see a byte that moves the same
    # way on every run; these digests can
    assert _corpus_digest(OUTPUT_CORPUS) == OUTPUT_SHA256
    if sys.version_info[:2] in ARGPARSE_SHA256:
        assert _corpus_digest(ARGPARSE_CORPUS) == ARGPARSE_SHA256[sys.version_info[:2]]


def test_options_before_the_command_words_reach_the_command():
    # only the matched command gets its flags; a matched path is read from
    # the words of the command line, so an option in front of them still
    # routes to a complete command parser, and help at the root or a group
    # lists every command
    r = run("--json", "sgp", "info")
    assert r.exit_code == 2
    assert "sackit sgp info: error: the following arguments are required: --gens" in r.stderr
    r = run("sgp", "--json", "info", "--gens", "3,4")
    assert r.exit_code == 2 and "unrecognized arguments: --json" in r.stderr
    group = run("ideal", "-h", "ulrich")
    assert group.exit_code == 0 and group.stdout == run("ideal", "--help").stdout
    assert "ulrich" in group.stdout and "powers" in group.stdout
    root = run("-h", "certify", "--ring", "sgp(3,4,5)")
    assert root.exit_code == 0 and root.stdout == run("--help").stdout


def _argparse_values(args):
    """vars() of what argparse parses from ``args``, or None on help, the
    version or a usage error (its output swallowed)."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_parser(None, args).parse_args(args))
    except SystemExit:
        return None


_BAD = ["", "x", "3,x", "1..", "9..2", "-", "-3", "--json", "-h", "--gens"]


def _value(options):
    kind = options.get("type")
    if kind is int:
        good = st.integers(-3, 40).map(str)
    elif kind is _int_list:
        good = st.lists(st.integers(-3, 40), max_size=4).map(lambda xs: ",".join(map(str, xs)))
    elif kind is _parse_range:
        good = st.tuples(st.integers(-2, 9), st.integers(-2, 9)).map(lambda t: f"{t[0]}..{t[1]}")
    else:
        good = st.sampled_from(["k", "A", "cyc(4)+k", "sgp(3,4,5)", "R-GLUE", "R-NOPE"])
    return st.one_of(good, good, good, st.sampled_from(_BAD))


@st.composite
def _command_lines(draw):
    """A command's words and a shuffled subset of its flags with valid and
    invalid values, then noise: repeated, `=`, abbreviated and unknown
    flags, help, the version and stray words, anywhere, the front too."""
    path = draw(st.sampled_from(sorted(COMMANDS)))
    flags = [*COMMANDS[path][1], _JSON]
    args = path.split()
    for flag, options in draw(st.permutations(flags)):
        # a required flag is left out one time in five, any other one in two
        if draw(st.integers(0, 4 if options.get("required") else 1)) == 0:
            continue
        args += [flag] if "action" in options else [flag, draw(_value(options))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        flag, options = draw(st.sampled_from(flags))
        value = draw(_value(options))
        noise = draw(st.sampled_from([
            [flag], [flag, value], [f"{flag}={value}"], [flag[:-1]], ["-h"], ["--help"],
            ["--version"], ["--frobulate"], ["stray"], ["--"], [value]]))
        at = draw(st.integers(0, len(args)))
        args[at:at] = noise
    return args


@settings(max_examples=400, deadline=None)
@given(_command_lines())
@example(["sgp", "info"])  # a required flag left out
@example(["ext", "table", "--H", "3,4,5", "--q", "3"])  # the string default of --range
@example(["ext", "table", "--H", "3,4,5", "--q", "3", "--q", "4"])  # argparse keeps the last
def test_the_reader_agrees_with_argparse(args):
    # whenever the table reader takes a command line, argparse parses it
    # too, to the same values; a line it declines goes to argparse anyway
    values = _read(args)
    if values is not None:
        assert values == _argparse_values(args)


def test_the_reader_takes_every_valid_corpus_line():
    # so a reader that always declined would fail here; only --rule goes to
    # argparse, whose choices for it come from the certify module
    for args in map(list, OUTPUT_CORPUS):
        values = _read(args)
        assert (values is None) == ("--rule" in args), args
        if values is not None:
            assert values == _argparse_values(args), args


def test_a_value_may_start_with_a_minus_and_a_digit():
    # `--flag -2,3` reads as `--flag=-2,3` does, through the reader and, on a
    # line it declines (here an unknown flag after it), through argparse
    base = {path: next(list(args) for args in OUTPUT_CORPUS if " ".join(args).startswith(path))
            for path in COMMANDS}
    negative = {_int_list: "-2,3", int: "-1", _parse_range: "-1..3"}
    for path, (_, flags, _) in COMMANDS.items():
        for flag, options in flags:
            if "action" in options:
                continue
            kind = options.get("type")
            value = negative.get(kind, "-1")
            args = list(base[path])
            if flag in args:
                del args[args.index(flag):args.index(flag) + 2]
            for tail in ([], ["--frobulate"]):
                spaced = invoke(args + [flag, value] + tail)
                joined = invoke(args + [f"{flag}={value}"] + tail)
                assert spaced.exit_code == joined.exit_code, (path, flag, tail)
                assert spaced.output == joined.output, (path, flag, tail)
            # the reader takes it unless its value fails to convert or the
            # flag is --rule, whose choices argparse checks
            taken = _read(args + [flag, value]) is not None
            assert taken == (flag != "--rule" and kind is not _parse_range), (path, flag)
