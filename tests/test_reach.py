"""tests/reach.py names the functions that the workloads never run. It runs
in a child, where no earlier test's cached result spares a function its run.
Its list is pinned in tests/data/unreached.txt, so that a change that leaves
a function unreached, or reaches one, shows in the file's diff:

    PYTHONPATH=src python tests/reach.py > tests/data/unreached.txt
"""

import os
import subprocess
import sys

import reach

SRC = os.path.join(os.path.dirname(os.path.dirname(reach.__file__)), "src")
PINNED = os.path.join(os.path.dirname(reach.__file__), "data", "unreached.txt")


def test_names_the_unreached_functions():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, reach.__file__], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    with open(PINNED) as fh:
        assert out.stdout.split() == fh.read().split()
    assert "kamtori.engine.driver.IterationState.start" in reach.\
        defined_functions(os.path.join(SRC, "kamtori")).values()


def test_against_lists_each_difference(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(reach, "unreached", lambda: (["a", "c"], 3))
    before = tmp_path / "before.txt"
    before.write_text("a\nb\n")
    assert reach.main(["--against", str(before)]) == 1
    assert capsys.readouterr().err == ("2 of 3 functions never ran\n"
                                       "now reached: b\nnow unreached: c\n")
    before.write_text("c\na\n")
    assert reach.main(["--against", str(before)]) == 0
