"""The traced benchmark run wraps a fixed list of sackit functions
(``perfbench/trace_child.py`` ``TARGETS``) and refuses the op when one of
them is missing.  Check here that every target still resolves, so a
refactor that drops or renames a traced name fails the tests rather than
the traced benchmark."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _prefix, _timed in _targets()]
)
def test_trace_target_resolves(module_name, attr):
    # the same lookup as trace_child.install: the last name must be defined
    # on its owner itself, not inherited
    *path, name = attr.split(".")
    owner = importlib.import_module(module_name)
    for part in path:
        owner = getattr(owner, part)
    assert vars(owner).get(name) is not None, f"{module_name}.{attr}"


def test_cli_import_loads_every_target_module():
    # trace_child imports sackit.cli alone, then finds each target module in
    # sys.modules and dispatches through main.main(args=, prog_name=), the
    # argparse dispatcher's _Main object.  A lazy import, or a main without
    # that method, would make every traced op exit 70 while the untraced run
    # still passes, so check both here, in a fresh interpreter as the traced
    # run starts.
    modules = sorted({m for m, _attr, _prefix, _timed in _targets()})
    script = (
        "import json, sys\n"
        "import sackit.cli\n"
        f"print(json.dumps([m for m in {modules!r} if m not in sys.modules]))\n"
        "sys.stdout.flush()\n"
        "sackit.cli.main.main(args=['--help'], prog_name='traced')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(TRACE_CHILD.parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    missing, usage = done.stdout.splitlines()[:2]
    assert json.loads(missing) == []
    assert done.returncode == 0 and usage.startswith("Usage: traced ")


def test_cli_import_leaves_dataclasses_out():
    # building a dataclass execs its generated methods, and the module
    # itself pulls in inspect: about 12 ms of every command's start-up went
    # there.  The value types are Records, so a fresh `import sackit.cli`
    # loads no dataclasses, while every traced module is still loaded.
    modules = sorted({m for m, _attr, _prefix, _timed in _targets()})
    script = (
        "import json, sys\n"
        "import sackit.cli\n"
        f"print(json.dumps(['dataclasses' in sys.modules,"
        f" [m for m in {modules!r} if m not in sys.modules]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(TRACE_CHILD.parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, []]


def test_cli_import_leaves_json_out():
    # only --json output writes JSON, and cli.main imports json itself on
    # that path, so a fresh `import sackit.cli` loads no json, while every
    # traced module is still loaded
    modules = sorted({m for m, _attr, _prefix, _timed in _targets()})
    script = (
        "import sys\n"
        "import sackit.cli\n"
        f"print(['json' in sys.modules,"
        f" [m for m in {modules!r} if m not in sys.modules]])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(TRACE_CHILD.parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False, []]\n"


def test_cli_import_leaves_click_out():
    # the command line is read off the `cli.COMMANDS` table, so a fresh
    # `import sackit.cli` loads no click (about 20 ms of every command's
    # start-up), while every traced module is still loaded
    modules = sorted({m for m, _attr, _prefix, _timed in _targets()})
    script = (
        "import json, sys\n"
        "import sackit.cli\n"
        f"print(json.dumps(['click' in sys.modules,"
        f" [m for m in {modules!r} if m not in sys.modules]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(TRACE_CHILD.parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, []]
