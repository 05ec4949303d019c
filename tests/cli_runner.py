"""Run the `sackit` command line in process, with stdlib tools only.

``invoke(args, env=None, prog_name="sackit")`` calls ``sackit.cli.main.main``
under that program name with stdout and stderr captured, and returns a
namespace of:

 * ``exit_code`` -- the code of the SystemExit that ends the command (0 when
   the command returns);
 * ``stdout`` and ``stderr`` -- what the command wrote to each;
 * ``output`` -- stdout followed by stderr.

``env`` maps names to values set for the call, or to None to unset them;
every name is restored afterwards.  Any exception other than SystemExit
propagates, so a traceback is never mistaken for a domain error's exit 1.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

from sackit.cli import main


def _set_env(values):
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def invoke(args, env=None, prog_name="sackit"):
    env = env or {}
    saved = {name: os.environ.get(name) for name in env}
    out, err = io.StringIO(), io.StringIO()
    code = 0
    _set_env(env)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main.main(args=list(args), prog_name=prog_name)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        _set_env(saved)
    stdout, stderr = out.getvalue(), err.getvalue()
    return SimpleNamespace(exit_code=code, stdout=stdout, stderr=stderr, output=stdout + stderr)
