"""Print every executable line of src/neoms that a run never reaches.

    python3 scripts/reach.py            # cli_diff.py's invocations
    python3 scripts/reach.py --tests    # the same, then tier-1 (pytest)

The invocation list of scripts/cli_diff.py runs in this process, through
`neoms.cli.main`, from a temporary directory that holds its configs; its
output is discarded.  With --tests the tier-1 suite then runs in this
process too, so the report is what neither side reaches.  Lines are
recorded with `sys.settrace`, which is installed before `neoms` is
imported.  A line counts as executable when the compiled module attributes
bytecode to it.  Code run by a child process, such as the tests'
`python -m neoms` subprocesses, is not seen.

Prints one `path:line: source` row per unreached line, then the count.
The exit status is pytest's with --tests, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neoms"


def executable_lines(code: types.CodeType) -> set[int]:
    """Lines that `code` or a code object nested in it has bytecode on."""
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo += [c for c in co.co_consts if isinstance(c, types.CodeType)]
    return lines


def line_recorder(root: Path, seen: dict[str, set[int]]):
    """A `sys.settrace` hook adding each line run in a file under `root`
    to `seen[filename]`."""
    prefix = str(root) + os.sep

    def trace_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = seen.setdefault(filename, set())

        def trace_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_line

        return trace_line

    return trace_call


def run_cli_invocations() -> None:
    sys.path.insert(0, str(ROOT / "scripts"))
    from cli_diff import CONFIGS, INVOCATIONS
    from neoms.cli import main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in CONFIGS.items():
            paths[name] = os.path.join(tmp, f"{name}.conf")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)
        try:
            for template in INVOCATIONS:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        main([a.format(**paths) for a in template])
                    except SystemExit:      # argparse's usage errors
                        pass
        finally:
            os.chdir(here)


def report(seen: dict[str, set[int]]) -> None:
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(text, str(path), "exec"))
        source = text.splitlines()
        missed = sorted(lines - seen.get(str(path), set()))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
        total += len(lines)
        unreached += len(missed)
    print(f"{unreached} of {total} executable lines unreached")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tests", action="store_true",
                    help="also run tier-1 in this process")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    seen: dict[str, set[int]] = {}
    status = 0
    sys.settrace(line_recorder(PACKAGE, seen))
    try:
        run_cli_invocations()
        if args.tests:
            import pytest
            status = int(pytest.main(["-q", "-p", "no:cacheprovider",
                                      str(ROOT / "tests")]))
    finally:
        sys.settrace(None)
    report(seen)
    return status


if __name__ == "__main__":
    sys.exit(main())
