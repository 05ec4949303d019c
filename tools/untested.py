"""Line gate for src/: every line of src/sackit/*.py runs under tier-1, or
the allow-list ``ALLOWED`` says why no test can run it in process.

Run from anywhere, with the test extras installed:

    python tools/untested.py

The script runs the tests under tests/ in this process, under a
``sys.settrace`` line tracer (standard library only), and prints each line
of src/sackit/*.py that no test ran.  The tracer is installed again before
each test, since one set only once was lost partway through the run.  A
code object whose every line has run is no longer traced, which keeps the
hot loops of the engine near full speed.

An entry of ``ALLOWED`` is (file under src/sackit, snippet, reason): the
snippet is exact text, one or more whole lines, that occurs once in its file,
and the unrun lines it spans are allowed.  Exit status 0 when every unrun
line is allowed; 1 on an unrun line that is not, or on an entry whose
snippet does not occur exactly once or spans no unrun line.  Test outcomes
are reported but not judged: the tracer's overhead can fail a test that
bounds its own time.  About 2 min (113 s) on 2 vCPU (Python 3.11).
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sackit"

_SPAWNED = "`python -m sackit` runs this module, and only in a spawned process"
_EXIT = "`_Main.__call__` ends its process by os._exit, so only spawned commands run it"

# (file, snippet, reason): lines that no test can run in its own process.  As
# in tools/mutants.py, a snippet occurs exactly once in its file; it covers
# the lines it spans, and at least one of them must go unrun
ALLOWED = [
    ("__main__.py",
     "from .cli import main\n"
     "\n"
     'if __name__ == "__main__":\n'
     '    main(prog_name="python -m sackit")', _SPAWNED),
    ("cli.py",
     "    def __call__(self, args=None, prog_name=None):\n"
     "        try:\n"
     "            self.main(args, prog_name)\n"
     "        except SystemExit as exc:\n"
     "            if exc.code is not None and not isinstance(exc.code, int):\n"
     "                raise  # a message to print: the interpreter's exit path does it\n"
     "            code = exc.code or 0\n"
     "        for stream in (sys.stdout, sys.stderr):\n"
     "            if stream is not None:\n"
     "                try:\n"
     "                    stream.flush()\n"
     "                except (BrokenPipeError, ValueError):  # reader gone, or stream closed\n"
     "                    pass\n"
     "        os._exit(code)", _EXIT),
    ("cli.py",
     "            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n"
     "            raise SystemExit(1)",
     "the reader of stdout gone: tests close the pipe of a spawned process, since "
     "in process the branch would point the test runner's stdout at /dev/null"),
]


def _lines(code) -> set[int]:
    """The source lines of ``code``'s instructions; 0 and None mark those
    of no line."""
    return {line for _, _, line in code.co_lines() if line}


def _executable(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= _lines(code)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class _Tracer:
    def __init__(self, files):
        self.ran = {name: set() for name in files}
        self.files = {str(PACKAGE / name): name for name in files}
        self.seen: dict[str, set[int] | None] = {}  # co_filename -> ran lines or None
        self.done: set = set()  # code objects whose every line has run

    def _lines_of(self, filename):
        if filename not in self.seen:
            name = self.files.get(os.path.realpath(filename))
            self.seen[filename] = None if name is None else self.ran[name]
        return self.seen[filename]

    def call(self, frame, event, arg):
        code = frame.f_code
        if code in self.done:
            return None
        ran = self._lines_of(code.co_filename)
        if ran is None:
            return None
        ran.add(frame.f_lineno)
        wanted = _lines(code)

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            elif event == "return" and wanted <= ran:
                self.done.add(code)
            return local

        return local

    def install(self):
        sys.settrace(self.call)
        threading.settrace(self.call)


class _Reinstall:
    """pytest plugin: the tracer again before each test, and the outcomes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.outcomes: dict[str, list[str]] = {}

    def pytest_runtest_setup(self, item):
        self.tracer.install()

    def pytest_runtest_call(self, item):
        self.tracer.install()

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            self.outcomes.setdefault(report.outcome, []).append(report.nodeid)


def main() -> int:
    import pytest

    files = sorted(path.name for path in PACKAGE.glob("*.py"))
    tracer = _Tracer(files)
    plugin = _Reinstall(tracer)
    os.chdir(ROOT)
    tracer.install()
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "tests"], plugins=[plugin])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    failed = plugin.outcomes.get("failed", [])
    print(f"tests under the tracer: {len(plugin.outcomes.get('passed', []))} passed, "
          f"{len(failed)} failed (not judged)", *failed, sep="\n  ")

    problems, unrun = [], {}
    for name in files:
        path = PACKAGE / name
        source = path.read_text().splitlines()
        unrun[name] = {line: source[line - 1].strip()
                       for line in sorted(_executable(path) - tracer.ran[name])}
    for file, snippet, reason in ALLOWED:
        text = (PACKAGE / file).read_text()
        if text.count(snippet) != 1:
            problems.append(f"stale allow-list entry: snippet found {text.count(snippet)} "
                            f"times in {file}: {snippet.splitlines()[0].strip()!r}")
            continue
        first = text[:text.index(snippet)].count("\n") + 1
        covered = [unrun[file].pop(line) for line in range(first, first + snippet.count("\n") + 1)
                   if line in unrun[file]]
        if not covered:
            problems.append(f"allow-list entry covers no unrun line: {file}:{first}")
        print(f"allowed: src/sackit/{file}:{first}: {len(covered)} unrun lines: {reason}")
    problems += [f"unrun: src/sackit/{name}:{line}: {text}"
                 for name in files for line, text in unrun[name].items()]
    print("\n".join(problems) or "every other line of src/sackit ran under tier-1")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
