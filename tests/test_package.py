"""The package surface: the public names, the version literal, which modules
a command actually runs, and the traced benchmark run on a lazy package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sackit

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

PUBLIC = [
    "AbstractCI", "AbstractWithFiniteFlatCover", "CERT_SCHEMA", "CITATIONS", "Certificate",
    "Citation", "DEFAULT_PRIME", "ExtWindowReport", "Glued", "MinimalResolution",
    "MonomialArtinianAlgebra", "NumericalSemigroup", "ParameterPowerQuotient",
    "PowerSeriesExt", "Premise", "PresentedModule", "Realization", "SackitError",
    "SemigroupIdeal", "SemigroupRing", "Truncation", "UlrichPowerQuotient", "UlrichReport",
    "certify", "cumulative_rank_identity", "cyclic_quotient",
    "direct_sum", "estimate_ratio_holds", "ext_deg_window", "ext_dims", "free_module",
    "ideal_from_text", "ideal_to_text", "is_ulrich", "minimal_resolution",
    "module_from_presentation", "parse_ring", "power_layer_lengths", "quotient_algebra",
    "realization", "residue_field", "search_reduction", "tor_dims",
    "truncation_algebra", "ulrich_rank_formula", "validate_descriptor", "verify_premise",
]


def _python(script, *args):
    done = subprocess.run([sys.executable, "-c", script, *args], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_public_names_are_pinned_and_star_import_binds_them():
    assert sackit.__all__ == PUBLIC
    namespace = {}
    exec("from sackit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) <= set(dir(sackit))


def test_certify_stays_the_function_after_the_submodule_is_imported():
    # the function and the submodule share a name; importing the submodule
    # (directly, or through the command line) must not rebind the package
    # attribute, in a fresh interpreter where nothing has run yet.
    # `import sackit.certify as m` reads that attribute, so m is the function
    script = (
        "import types, sackit\n"
        "seen = [sackit.certify]\n"
        "import sackit.certify\n"
        "seen.append(sackit.certify)\n"
        "import sackit.cli\n"
        "seen.append(sackit.certify)\n"
        "import sackit.certify as m\n"
        "seen.append(m)\n"
        "from sackit.certify import certify\n"
        "print([type(f) is types.FunctionType and f is certify for f in seen])\n"
    )
    assert _python(script) == "[True, True, True, True]\n"


def test_version_is_a_literal_in_the_package_source():
    # pyproject.toml reads the version with `attr = "sackit.__version__"`,
    # which setuptools finds statically only as a literal assignment
    tree = ast.parse((ROOT / "src" / "sackit" / "__init__.py").read_text())
    literals = [node.value.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
                and isinstance(node.value, ast.Constant)]
    assert literals == [sackit.__version__]


def test_no_module_reads_the_environment():
    # an algebra's characteristic comes from its caller alone (char=, --p),
    # so the same arguments give the same bytes in any environment
    names = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted((ROOT / "src" / "sackit").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        used = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        used |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        assert not used & names, path.name


# what argparse loads for help and usage errors: about 7 ms of CPU and 0.5 MB
# of a command's start-up (2 vCPU, Python 3.11), and no part of a valid
# command line
_LOADED = """
def _loaded():
    return sorted({"argparse", "gettext", "locale"} & set(sys.modules))
"""

# run a command as `python -m sackit` does, then list each sackit module
# still lazy (registered, never run), each one that ran, and which of the
# modules above are loaded
_RUN_AND_LIST = """
import json, runpy, sys, types
""" + _LOADED + """
sys.argv = ["sackit", *sys.argv[1:]]
try:
    runpy.run_module("sackit", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
modules = {name: type(m) is types.ModuleType for name, m in sys.modules.items()
           if name.startswith("sackit.")}
print(json.dumps({"lazy": sorted(n for n, ran in modules.items() if not ran),
                  "ran": sorted(n for n, ran in modules.items() if ran),
                  "parsing": _loaded()}))
"""


@pytest.mark.parametrize("args,lazy", [
    (["sgp", "info", "--gens", "3,4,5"],
     ["sackit.artinian", "sackit.certify", "sackit.ideals", "sackit.modp"]),
    (["--help"], ["sackit.artinian", "sackit.certify", "sackit.ideals", "sackit.modp"]),
    (["ext", "table", "--H", "3,4,5", "--q", "6", "--range", "0..2"], ["sackit.certify"]),
    # the certificate premises read the semigroup and its ideals, not an algebra
    (["certify", "--ring", "sgp(5,1001)"], ["sackit.artinian", "sackit.modp"]),
    (["certify", "--ring", "trunc(sgp(3,4,5),6)"], ["sackit.artinian", "sackit.modp"]),
])
def test_a_command_runs_only_the_modules_it_uses(args, lazy):
    modules = json.loads(_python(_RUN_AND_LIST, *args).splitlines()[-1])
    assert set(lazy) <= set(modules["lazy"])
    assert "sackit.cli" in modules["ran"]
    if args[0] == "ext":
        assert {"sackit.artinian", "sackit.modp"} <= set(modules["ran"])
    # a valid command line is read off the command table; only help builds
    # the argparse parser.  The interpreter's own start-up may load these
    # modules, and then they are no cost of the command line
    bare = json.loads(_python("import json, sys" + _LOADED + "print(json.dumps(_loaded()))"))
    if args[0] == "--help":
        assert "argparse" in modules["parsing"]
    else:
        assert set(modules["parsing"]) <= set(bare), (args, bare)


@pytest.mark.parametrize("op,untraced", [
    (["cli", "sgp", "info", "--gens", "3,4,5"], ["-m", "sackit", "sgp", "info", "--gens", "3,4,5"]),
    (["resolve", "--H", "3,4,5", "--q", "6", "--length", "3"],
     [str(ROOT / "perfbench" / "resolve_op.py"), "--H", "3,4,5", "--q", "6", "--length", "3"]),
])
def test_traced_op_installs_every_wrapper_and_prints_the_untraced_output(op, untraced, tmp_path):
    # trace_child wraps every TARGETS function at every binding site and
    # refuses the op (exit 70) when a target is missing or an original is
    # left unwrapped; on a lazy package it must load the target modules itself
    stats = tmp_path / "stats.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(stats), *op],
        env=ENV, capture_output=True, text=True, timeout=120)
    plain = subprocess.run([sys.executable, *untraced], env=ENV,
                           capture_output=True, text=True, timeout=120)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    spans = json.loads(stats.read_text())["spans"]
    assert spans["semigroup.from_generators"][0] == 1
