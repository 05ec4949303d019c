"""Command line surface: every subcommand, exit codes, JSON round trips."""

import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from sackit import CERT_SCHEMA
from sackit.certify import RingDescriptor
from sackit.cli import _JSON, COMMANDS, _int_list, _parse_range, _parser, _read

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
    # the characteristic comes from --p alone: SACKIT_PRIME, prime or not,
    # changes no byte
    for args in (("ext", "table", "--H", "4,5,6", "--q", "4", "--json"),
                 ("extdeg", "--H", "4,5,6", "--q", "4", "--mod", "k")):
        plain = run(*args, env={"SACKIT_PRIME": None})
        assert plain.exit_code == 0
        for value in ("2", "4"):
            odd = run(*args, env={"SACKIT_PRIME": value})
            assert (odd.exit_code, odd.output) == (0, plain.output), (args, value)


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
    ):
        r = run(*args)
        assert r.exit_code == 1, args
        assert r.output.startswith("error:"), args


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


def _sackit_capped(*args):
    """Run the CLI in a child process under a 1 GiB address-space cap, so an
    input that allocates without bound ends in MemoryError, not in a machine
    out of memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "sackit", *args], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=cap)


def test_huge_algebra_dimension_is_an_error():
    # an algebra lists one basis degree per dimension, so a colength past
    # MAX_DIMENSION ends in error: before the basis is allocated
    for args in (("ext", "table", "--H", "3,4,5", "--q", "1000000000",
                  "--mod", "k", "--range", "0..2"),
                 ("extdeg", "--H", "3,4,5", "--q", "1000000000", "--mod", "k")):
        done = _sackit_capped(*args)
        assert done.returncode == 1, args
        assert done.stderr.startswith("error: algebra dimension 1000000000"), args
    # a premise that needs such an algebra is not checked, and the search
    # goes on: R-MODX reaches k[[H]] without the truncation's basis; <3,4,5>
    # is not symmetric, so its truncation is no Gorenstein ring for R-QPOW
    # (over R[[T]], as the Artinian truncation has depth 0)
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
    # power squares, so I^(10^9) takes about 60 products, not 10^9
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
