"""Lines of ``src/volmc`` that a pytest run never executes.

A line tracer from the standard library alone: ``sys.settrace`` and
``threading.settrace`` record every line run in a module of ``src/volmc``
while ``pytest.main`` runs on the given arguments, from the repository root.
The tracer is installed before ``volmc`` is first imported, so code that
runs at import (``octahedral._build_rotations``,
``CellMesh.__init_subclass__``) counts as run.

A module's executable lines are the line numbers of its compiled code
objects (``co_lines``), leaving out each function's first line: it holds
only the function's prologue, which reports no line event.

Lines that run only in child processes count as never run. These are
``cli.run`` (its call of ``main`` and its exit on a ``VolmcError``) and the
``run()`` under ``if __name__ == "__main__"``, which only the ``volmc`` CLI
subprocesses of ``tests/test_cli.py`` reach (``CliRunner`` calls ``main``
itself), and whatever ``statsrun`` runs only in its worker processes.

Prints, per module, the number of never-run lines and their ranges, then
their total as ``unrun_lines N``; exits with pytest's status. Tracing
slows a run down about 1.7 times: tier-1 (301 tests) took 124 s traced
against 74 s untraced on a 2-CPU machine.

Usage::

    python tools/linecov.py                   # tier-1 (pytest's testpaths)
    python tools/linecov.py -q tests/test_complex.py -k grid
"""

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "volmc")


def executable_lines(path):
    """The line numbers of ``path``'s code objects, without the first line
    of each function, class body and comprehension."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [(code, None)]
    while stack:
        co, first = stack.pop()
        lines.update(ln for _, _, ln in co.co_lines() if ln and ln != first)  # 0: a module prologue
        stack.extend((c, c.co_firstlineno) for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def _tracer(hits):
    """A global trace function that records, per path in ``hits``, the
    lines run in it into ``hits[path]``."""
    local_of = {}  # co_filename -> the local trace function of its file, or None

    def local_for(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return local_of[name]
        except KeyError:
            lines = hits.get(os.path.realpath(name))
            local_of[name] = fn = None if lines is None else local_for(lines)
            return fn

    return trace


def _ranges(unrun, executable):
    """``unrun`` as ranges "a-b" of lines with no run line of ``executable``
    between them."""
    out, run = [], []
    for ln in sorted(executable):
        if ln in unrun:
            run.append(ln)
        elif run:
            out.append(run)
            run = []
    if run:
        out.append(run)
    return [str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out]


def main(argv):
    if "volmc" in sys.modules:
        raise SystemExit("volmc is imported already; its import-time lines would not count")
    paths = sorted(os.path.join(PACKAGE, n) for n in os.listdir(PACKAGE) if n.endswith(".py"))
    hits = {os.path.realpath(p): set() for p in paths}
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in paths:
        executable = executable_lines(path)
        unrun = executable - hits[os.path.realpath(path)]
        total += len(unrun)
        if unrun:
            print(f"{os.path.basename(path)}: {len(unrun)}  {', '.join(_ranges(unrun, executable))}")
    print(f"unrun_lines {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
