#!/usr/bin/env python3
"""List the lines of src/ that the product path never runs, and the tests
there that never changed their answer.

    python tools/reach.py

Under a line tracer (sys.settrace) it runs:

- every tools/identity_sweep.py configuration, its horizon capped at 2.05 s,
  through Simulation, write_outputs and the sweep's trace hook, which takes
  the repr of every record;
- `cwrsim simulate --reps 2` on each scenarios/*.scn, then `cwrsim compare`
  on their output directories.

It then prints every line of a function, method, lambda or comprehension
under src/cwrsim/ that never ran, as runs of consecutive lines with the
function's name. Lines that only reject bad input are listed apart: those of
an `if` body, an `except` clause or a function that ends in `raise`, in
returning a non-zero exit code or in exiting with one (of a function that
returns elsewhere, only that last statement), and an exception class's
methods. The executable lines come from the compiled code
and the rejecting ones from its syntax tree, so the list follows the code as
it moves. Module and class bodies run at import and are not judged: a class
attribute that nothing reads is not found here.

A line probe cannot see a test whose body always runs, so the tracer also
records each frame's (line, next line) pairs. It then prints each
statement-level `if` or `while` test inside a function that ran but was
never True, or never False, with the function's name; those whose body
only rejects bad input are listed apart. The exit status is 0; the lists
are the output.
"""
from __future__ import annotations

import ast
import contextlib
import dis
import hashlib
import importlib
import inspect
import io
import pkgutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SWEEP_HORIZON_US = 2_050_000
SIMULATE_REPS = 2


def src_files() -> list[str]:
    """Each cwrsim module's source file, named as its code objects name it."""
    import cwrsim

    return [importlib.import_module(f"cwrsim.{info.name}").__file__
            for info in pkgutil.iter_modules(cwrsim.__path__)]


def function_lines(filename: str) -> dict[int, str]:
    """Each line holding an instruction of a function in the file, mapped
    to the function's qualified name. The frame set-up, up to RESUME, is
    left out: it sits on the def line, which no line event reports."""
    source = Path(filename).read_text(encoding="utf-8")
    lines: dict[int, str] = {}
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if not code.co_flags & inspect.CO_OPTIMIZED:
            continue
        body = False
        for ins in dis.get_instructions(code):
            if body and ins.positions.lineno is not None:
                lines.setdefault(ins.positions.lineno, code.co_qualname)
            body = body or ins.opname == "RESUME"
    return lines


def _exit_codes(tree: ast.Module) -> dict[str, int]:
    """The module's top-level `NAME = <int>` constants."""
    return {node.targets[0].id: node.value.value for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int}


def rejecting_lines(filename: str) -> set[int]:
    """Lines of each `if` body, `except` clause and function that ends in
    raise, in returning a non-zero exit code or in exiting with one (only
    that last statement of a function that returns elsewhere), and of each
    exception class."""
    tree = ast.parse(Path(filename).read_text(encoding="utf-8"))
    codes = _exit_codes(tree)

    def nonzero(node) -> bool:
        if isinstance(node, ast.Name):
            return codes.get(node.id, 0) != 0
        return isinstance(node, ast.Constant) and type(node.value) is int \
            and node.value != 0

    def rejects(last: ast.stmt) -> bool:
        if isinstance(last, ast.Raise):
            return True
        if isinstance(last, ast.Return):
            return nonzero(last.value)
        call = getattr(last, "value", None)
        return isinstance(last, ast.Expr) and isinstance(call, ast.Call) \
            and isinstance(call.func, (ast.Name, ast.Attribute)) \
            and getattr(call.func, "id", getattr(call.func, "attr", None)) \
            == "exit" and bool(call.args) and nonzero(call.args[0])

    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", "").endswith(("Error", "Exception"))
                for base in node.bases):
            # an exception's methods run only for what it rejects
            lines.update(range(node.lineno, node.end_lineno + 1))
            continue
        if isinstance(node, ast.If):
            body, first = node.body, node.body[0].lineno
        elif isinstance(node, ast.ExceptHandler):
            body, first = node.body, node.lineno
        elif isinstance(node, ast.FunctionDef):
            # a function that returns elsewhere rejects only at its end
            body = node.body
            first = body[-1].lineno if any(
                isinstance(n, ast.Return) for n in ast.walk(node)) \
                else node.lineno
        else:
            continue
        if rejects(body[-1]):
            lines.update(range(first, body[-1].end_lineno + 1))
    return lines


def probe(configs, cli_argvs=(),
          arcs: dict[str, set[tuple[int, int]]] | None = None
          ) -> dict[str, set[int]]:
    """Run each config through Simulation, write_outputs and the identity
    sweep's trace hook, then cwrsim's main on each argv, all under a line
    tracer. Returns, per src/ file, its function lines that never ran.
    `arcs`, when given a dict, receives per src/ file the (line, next line)
    pairs each frame took: 0 as the line stands for the frame's entry, and
    as the next line for its exit."""
    from cwrsim.cli import main as cli_main
    from cwrsim.simulation import Simulation
    from identity_sweep import trace_hook

    taken: dict[str, set[tuple[int, int]]] = {name: set()
                                              for name in src_files()}

    def on_call(frame, event, arg):
        pairs = taken.get(frame.f_code.co_filename)
        if pairs is None:
            return None
        add = pairs.add
        last = 0

        def on_line(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                add((last, line))
                last = line
            elif event == "return":
                add((last, 0))
            return on_line
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for n, cfg in enumerate(configs):
                Simulation(cfg, trace=trace_hook(hashlib.sha256())).run() \
                    .write_outputs(Path(tmp) / str(n))
            for argv in cli_argvs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    status = cli_main(argv)
                if status != 0:
                    raise RuntimeError(f"cwrsim {' '.join(argv)} exited "
                                       f"{status}: {err.getvalue()}")
    finally:
        sys.settrace(previous)
    if arcs is not None:
        arcs.update(taken)
    return {name: set(function_lines(name)) - {line for _, line in pairs}
            for name, pairs in taken.items()}


def one_sided_tests(filename: str, arcs: set[tuple[int, int]]
                    ) -> list[tuple[ast.If | ast.While, bool]]:
    """(statement, answer never given) of each statement-level `if` or
    `while` inside a function whose test ran but always gave the same
    answer, in line order.

    A test answers True when its frame goes on from it to the first line of
    its body, and False when it goes anywhere else, returns included.
    Constant tests, such as `while True`, and bodies on the test's own line
    are not judged."""
    names = function_lines(filename)
    found = []
    for node in ast.walk(ast.parse(Path(filename).read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.If, ast.While)) \
                or isinstance(node.test, ast.Constant) \
                or node.lineno not in names:
            continue
        test = range(node.test.lineno, node.test.end_lineno + 1)
        body = node.body[0].lineno
        if body in test:
            continue
        answers = {line == body for last, line in arcs
                   if last in test and line not in test}
        if len(answers) == 1:
            found.append((node, not answers.pop()))
    return sorted(found, key=lambda f: f[0].lineno)


def report(missed: dict[str, set[int]]) -> list[str]:
    """The never-run lines, rejecting ones apart, as runs of consecutive
    lines: `src/cwrsim/file.py:12-14 Class.method`."""
    plain, rejecting = [], []
    for name in sorted(missed):
        names = function_lines(name)
        rejects = rejecting_lines(name)
        where = Path(name).resolve().relative_to(REPO)
        runs: list[list[int]] = []
        for line in sorted(missed[name]):
            last = runs[-1] if runs else None
            # a run continues over lines that start no instruction
            if last and (line in rejects) == (last[0] in rejects) \
                    and names[line] == names[last[0]] \
                    and not any(n in names for n in range(last[1] + 1, line)):
                last[1] = line
            else:
                runs.append([line, line])
        for first, end in runs:
            span = str(first) if first == end else f"{first}-{end}"
            (rejecting if first in rejects else plain).append(
                f"{where}:{span} {names[first]}")
    return ([f"never run ({len(plain)}):"] + [f"  {r}" for r in plain]
            + [f"never run, only rejecting bad input ({len(rejecting)}):"]
            + [f"  {r}" for r in rejecting])


def branch_report(arcs: dict[str, set[tuple[int, int]]]) -> list[str]:
    """The one-sided tests, those whose body only rejects bad input apart:
    `src/cwrsim/file.py:12 Class.method: never True`."""
    plain, rejecting = [], []
    for name in sorted(arcs):
        names = function_lines(name)
        rejects = rejecting_lines(name)
        where = Path(name).resolve().relative_to(REPO)
        for node, never in one_sided_tests(name, arcs[name]):
            (rejecting if node.body[0].lineno in rejects else plain).append(
                f"{where}:{node.lineno} {names[node.lineno]}: never {never}")
    return ([f"one-sided tests ({len(plain)}):"] + [f"  {r}" for r in plain]
            + [f"one-sided tests, body only rejecting bad input "
               f"({len(rejecting)}):"] + [f"  {r}" for r in rejecting])


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"),
                    str(REPO / "tools")]
    from identity_sweep import sweep_configs

    configs = []
    for _, cfg in sweep_configs():
        cfg.duration_us = min(cfg.duration_us, SWEEP_HORIZON_US)
        configs.append(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = sorted((REPO / "scenarios").glob("*.scn"))
        outs = [str(Path(tmp) / s.stem) for s in scenarios]
        argvs = [["simulate", str(s), "--reps", str(SIMULATE_REPS),
                  "--out", out] for s, out in zip(scenarios, outs)]
        argvs.append(["compare", *outs])
        arcs: dict[str, set[tuple[int, int]]] = {}
        missed = probe(configs, argvs, arcs)
    print("\n".join(report(missed) + branch_report(arcs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
