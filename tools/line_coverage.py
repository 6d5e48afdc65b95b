"""Statement coverage of ``src/metaring`` under a pytest selection, stdlib only.

    python tools/line_coverage.py [PYTEST ARGS ...]      # default: tests -q

pytest runs in this process under ``sys.settrace`` (and ``threading.settrace``
for threads it starts), which is installed before ``metaring`` is first
imported, so module-level statements count too.  A statement is a line that
starts an ``ast`` statement and holds bytecode of the module; it ran if the
tracer saw a line event on it.  The output lists each statement that never
ran, as ``module.py:line  source``, and a count per module.

A forked child keeps the trace.  The tool alone wraps ``os._exit``, by which
a forked child leaves (the CLI's CSV writer process does), so the child
writes the lines it saw to a file and the tool merges them.  A new
interpreter is not traced: a statement that only a subprocess test runs (the
CLI's ``__main__`` guard, say) is listed as never run.  The trace slows the
run several times over.

To find code that only unit tests reach, run the tests that stand in for the
package's callers (the acceptance contract, perfbench's hooks and the byte
gate of the shipped sweep):

    python tools/line_coverage.py tests/test_acceptance.py \\
        tests/test_perfbench_hooks.py tests/test_sweep_bytes.py -q

Each statement listed then runs only under unit tests.  Most are refusals of
bad input, which stay; the rest, and any result field or option that no
module, acceptance test or ``perfbench/`` file reads or sets (statement
coverage does not see fields), are candidates for deletion.
"""

import ast
import json
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metaring"


def statements(path: Path) -> set:
    """The lines of ``path`` that start a statement and hold bytecode."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return starts & lines


def main(argv: list) -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    parent, real_exit = os.getpid(), os._exit
    children = Path(tempfile.mkdtemp(prefix="line-coverage-"))

    def exit_with_lines(code):
        if os.getpid() != parent:  # a forked child hands its lines to the parent
            lines = {name: sorted(numbers) for name, numbers in seen.items()}
            (children / f"{os.getpid()}.json").write_text(json.dumps(lines))
        real_exit(code)

    sys.path.insert(0, str(ROOT / "src"))
    os._exit = exit_with_lines
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["tests", "-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = real_exit
        for child in children.glob("*.json"):
            for name, numbers in json.loads(child.read_text()).items():
                seen[name].update(numbers)
        shutil.rmtree(children)

    lines = {}
    for name, path in files.items():
        missed = sorted(statements(path) - seen[name])
        source = path.read_text().splitlines()
        for line in missed:
            print(f"{path.name}:{line}  {source[line - 1].strip()}")
        lines[path.name] = len(missed)
    print("never run:", ", ".join(f"{name} {count}" for name, count in lines.items() if count)
          or "none")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
