"""README's examples run as written."""

import json
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks():
    """The text of every ``` block, in order."""
    blocks, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if current is None:
                current = []
            else:
                blocks.append(current)
                current = None
        elif current is not None:
            current.append(line)
    return blocks


def _quick_start(env, prelude=""):
    (code,) = re.findall(r"```python\n(.*?)```",
                         README.read_text(encoding="utf-8"), re.S)
    proc = subprocess.run([sys.executable, "-c", prelude + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_quick_start_prints_the_window_and_every_grid_point(subprocess_env):
    """The ```python block runs in a fresh interpreter and prints one line
    for the window and one per point of its 201-point grid."""
    assert len(_quick_start(subprocess_env)) == 202


def test_quick_start_runs_without_numpy(subprocess_env):
    """With numpy blocked, the quick start prints the same 202 lines: a
    sweep and its `points` need no eigenvalues."""
    blocked = _quick_start(subprocess_env,
                           "import sys; sys.modules['numpy'] = None\n")
    assert len(blocked) == 202
    assert blocked == _quick_start(subprocess_env)


_RUN_COMMANDS = """
import contextlib, io, json, sys
import neoms.cli
said = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        try:
            code = neoms.cli.main(argv)
        except SystemExit as exc:   # argparse refusing the line
            code = exc.code
    said.append([code, err.getvalue()])
print(json.dumps(said))
"""


def test_command_block_exits_as_documented(subprocess_env, tmp_path):
    """Each `neoms` line of the command block runs through neoms.cli.main
    beside README's config example saved as my.conf, and exits 0 unless
    its comment says `exits N`; a comment that also says `at P nW` names
    the power the ramp stops at."""
    blocks = _fenced_blocks()
    (commands,) = [b for b in blocks if b[0].startswith("neoms ")]
    (config,) = [b for b in blocks if b[0].startswith("cavity_length")]
    (tmp_path / "my.conf").write_text("\n".join(config) + "\n")
    argvs, comments = [], []
    for line in commands:
        command, _, comment = line.partition("#")
        assert command.split()[0] == "neoms", line
        argvs.append(command.split()[1:])
        comments.append(comment)
    assert len(argvs) == 9
    # in a subprocess with a timeout: a dynamic ramp could integrate long
    proc = subprocess.run([sys.executable, "-c", _RUN_COMMANDS,
                           json.dumps(argvs)], cwd=tmp_path,
                          env=subprocess_env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    said = json.loads(proc.stdout)
    for argv, comment, (code, err) in zip(argvs, comments, said):
        exits = re.search(r"exits (\d+)", comment)
        assert code == (int(exits.group(1)) if exits else 0), (argv, err)
        stop = re.search(r"at ([\d.]+) nW", comment)
        if stop:
            (power,) = re.findall(r"ramp step at (\S+) W", err)
            assert f"{float(power) * 1e9:.3f}" == stop.group(1), err
    assert sorted(code for code, _ in said) == [0] * 8 + [4]
