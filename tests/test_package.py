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
    "certify", "cyclic_quotient",
    "direct_sum", "ext_deg_window", "ext_dims", "free_module",
    "is_ulrich", "minimal_resolution", "module_from_presentation", "parse_ring",
    "power_layer_lengths", "quotient_algebra", "realization", "residue_field",
    "search_reduction", "tor_dims", "truncation_algebra", "ulrich_rank_formula",
    "validate_descriptor", "verify_premise",
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


def test_the_schema_and_the_grammar_resolve_from_their_modules():
    # both live outside the module of the certificate search, which never
    # reads them
    from cli_runner import invoke
    from sackit._cli_help import descriptor_grammar
    from sackit._schema import CERT_SCHEMA

    assert sackit.CERT_SCHEMA is CERT_SCHEMA
    assert "schema" in CERT_SCHEMA["definitions"]["certificate"]["properties"]
    help_text = invoke(["certify", "--help"]).stdout
    assert help_text.endswith("\n\n" + descriptor_grammar() + "\n")


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


def test_only_record_freezes_a_value():
    # every value type is a Record: no other module sets attributes past its
    # own __setattr__ or declares __slots__
    for path in sorted((ROOT / "src" / "sackit").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        setattrs = [node for node in nodes if isinstance(node, ast.Attribute)
                    and node.attr == "__setattr__" and isinstance(node.value, ast.Name)
                    and node.value.id == "object"]
        slots = [node for node in nodes if isinstance(node, ast.Name)
                 and node.id == "__slots__"]
        if path.name == "_record.py":
            assert setattrs and slots, path.name
        else:
            assert not setattrs and not slots, path.name


# what argparse loads for help and usage errors: about 7 ms of CPU and 0.5 MB
# of a command's start-up (2 vCPU, Python 3.11), and no part of a valid
# command line
_LOADED = """
def _loaded():
    return sorted({"argparse", "gettext", "locale"} & set(sys.modules))
"""

# run a command as `python -m sackit` does, then list each sackit module
# that ran (a lazy one registered but never run is no plain module yet), and
# which of the modules above are loaded.  The entry point itself ends the process, so the
# script imports what it imports and calls `main.main`, which raises SystemExit
_RUN_AND_LIST = """
import json, sys, types
""" + _LOADED + """
import sackit.__main__
try:
    sackit.cli.main.main(sys.argv[1:], prog_name="python -m sackit")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps({"ran": sorted(name for name, m in sys.modules.items()
                                 if name.startswith("sackit.") and type(m) is types.ModuleType),
                  "parsing": _loaded()}))
"""


# every sackit module but the package itself
_MODULES = sorted(f"sackit.{path.stem}" for path in (ROOT / "src" / "sackit").glob("*.py")
                  if path.stem != "__init__")


# the sackit modules each command never runs, whether registered lazily or
# never imported: __main__, cli and errors run for every command, and a
# command family module (`_cli_ext`, `_cli_ideal`) only for its own commands
@pytest.mark.parametrize("args,lazy", [
    (["sgp", "info", "--gens", "3,4,5"],
     "_cli_ext _cli_help _cli_ideal _schema artinian certify ideals modp".split()),
    (["--help"],
     "_cli_ext _cli_ideal _record _schema artinian certify ideals modp semigroup".split()),
    (["ext", "table", "--H", "3,4,5", "--q", "6", "--range", "0..2"],
     "_cli_help _cli_ideal _schema certify ideals".split()),
    # the certificate premises read the semigroup and its ideals, not an
    # algebra, and a search reads neither the schema nor the grammar
    (["certify", "--ring", "sgp(5,1001)"],
     "_cli_ext _cli_help _cli_ideal _schema artinian modp".split()),
    (["certify", "--ring", "trunc(sgp(3,4,5),6)"],
     "_cli_ext _cli_help _cli_ideal _schema artinian modp".split()),
    (["ideal", "powers", "--gens", "3,4,5", "--ideal", "3"],
     "_cli_ext _cli_help _schema artinian certify modp".split()),
    (["glue", "--gens", "3,5", "--n", "2", "--m", "9"],
     "_cli_ext _cli_help _cli_ideal _schema artinian certify ideals modp".split()),
    (["lemma42", "--n", "3", "--cmax", "4"],
     "_cli_ext _cli_help _schema artinian certify modp".split()),
    # its epilog is the grammar and --rule takes the rule names, both certify's
    (["certify", "--help"], "_cli_ext _cli_ideal _schema artinian modp".split()),
])
def test_a_command_runs_only_the_modules_it_uses(args, lazy):
    modules = json.loads(_python(_RUN_AND_LIST, *args).splitlines()[-1])
    assert sorted(set(_MODULES) - set(modules["ran"])) == [f"sackit.{m}" for m in lazy]
    assert set(modules["ran"]) <= set(_MODULES)
    # a valid command line is read off the command table; only help builds
    # the argparse parser.  The interpreter's own start-up may load these
    # modules, and then they are no cost of the command line
    bare = json.loads(_python("import json, sys" + _LOADED + "print(json.dumps(_loaded()))"))
    if "--help" in args:
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
