"""Verify the traffic: which code does no benchmark workload reach?

Run from the repo root with ``BENCHMARK.json`` workload names::

    python -m benchmarks.traffic WORKLOAD... [--lines MODULE...]

Each workload runs two iterations through ``benchmarks/e2e/run.py`` under
a tracer that follows worker threads too.  The report, on standard
output, lists ``file:line name`` for every function of an entered
``repro`` module that was never called.  ``--lines`` adds, for each
named module (a path under ``src/repro``, e.g. ``machine/simulator.py``),
the line ranges that never ran, each with the function it lies in.  The
workloads' own output is suppressed.

A name or range on the list is a candidate, not a verdict: error paths,
``__repr__``s and reference implementations that tests compare against
stay.  See ``CONTRIBUTING.md``, "Verify the traffic".
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _executable_lines(path: pathlib.Path) -> set[int]:
    """Every line the compiled module can execute."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def _ranges(missed: set[int], executable: set[int]) -> list[tuple[int, int]]:
    """Runs of missed lines with no executed line between them."""
    runs: list[list[int]] = []
    previous_missed = False
    for line in sorted(executable):
        if line in missed:
            if previous_missed:
                runs[-1][1] = line
            else:
                runs.append([line, line])
        previous_missed = line in missed
    return [(first, last) for first, last in runs]


def _functions(tree: ast.AST) -> list[ast.AST]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _first_line(node: ast.AST) -> int:
    """The line a function's code object starts on (its first decorator)."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def run(workloads: list[str], line_modules: list[str]) -> str:
    """Run ``workloads`` under the tracer and return the report."""
    watched = {str(SRC / name) for name in line_modules}
    for path in watched:
        if not pathlib.Path(path).is_file():
            raise SystemExit(f"traffic: no module {path}")
    called: set[tuple[str, int]] = set()
    ran: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if event == "call" and filename.startswith(str(SRC)):
            called.add((filename, frame.f_code.co_firstlineno))
            if filename in watched:
                return lines
        return None

    from benchmarks.e2e import run as e2e_run

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        for name in workloads:
            with contextlib.redirect_stdout(io.StringIO()):
                status = e2e_run.main(
                    ["--workload", name, "--iterations", "2", "--trace", "0",
                     "--setup-samples", "0"])
            if status:
                raise SystemExit(f"traffic: workload {name} exited {status}")
    finally:
        sys.settrace(None)
        threading.settrace(None)

    out = [f"# functions no call entered ({' '.join(workloads)})"]
    entered = {filename for filename, _ in called}
    for path in sorted(SRC.rglob("*.py")):
        if str(path) not in entered:
            continue  # a module never entered at all
        for node in _functions(ast.parse(path.read_text())):
            if (str(path), _first_line(node)) not in called:
                out.append(f"{path.relative_to(SRC.parent)}:{node.lineno} "
                           f"{node.name}")
    for name in line_modules:
        path = SRC / name
        executable = _executable_lines(path)
        # a call runs its ``def`` line (the code object's first line)
        hit = {line for filename, line in ran | called
               if filename == str(path)}
        missed = executable - hit
        functions = _functions(ast.parse(path.read_text()))
        runs = _ranges(missed, executable)
        out.append(f"# lines never run in {name}: {len(missed)} of "
                   f"{len(executable)}, in {len(runs)} ranges")
        for first, last in runs:
            inside = [fn for fn in functions
                      if _first_line(fn) <= first <= fn.end_lineno]
            where = (max(inside, key=_first_line).name if inside
                     else "<module>")
            span = str(first) if first == last else f"{first}-{last}"
            out.append(f"{name}:{span} {where}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    parser.add_argument("--lines", nargs="+", default=[], metavar="MODULE",
                        help="also list the never-run lines of these "
                             "modules (paths under src/repro)")
    args = parser.parse_args(argv)
    print(run(args.workloads, args.lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
