"""tests/peak_memory.py reads each workload's traced solve peak. The
l2-cohom solve's peak is bounded here: it runs in a child, where no earlier
test has filled the ring's caches."""

import json
import os
import subprocess
import sys

import peak_memory

SRC = os.path.join(os.path.dirname(os.path.dirname(peak_memory.__file__)),
                   "src")
# MB (2^20 bytes) the l2-cohom solve may hold at once: 13.0 when every
# stage's series lived to the end of the solve, 4.81 now; 5.21 when the
# last split added only the terms of combo that its fields read
L2_COHOM_PEAK_MB = 5.1


def test_l2_cohom_solve_peak_is_bounded():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH",
                                                               "")]))
    out = subprocess.run([sys.executable, peak_memory.__file__, "--only",
                          "l2-cohom"], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    got = json.loads(out.stdout)
    assert list(got) == ["l2-cohom"]
    assert 0 < got["l2-cohom"]["peak_mb"] <= L2_COHOM_PEAK_MB
    assert got["l2-cohom"]["at"].startswith("kamtori.")


def test_against_refuses_a_rise_of_more_than_five_percent(tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(peak_memory, "peaks", lambda only="": {
        "a": {"peak_mb": 10.6, "at": "kamtori.series._merge"},
        "b": {"peak_mb": 2.0, "at": "kamtori.series._merge"}})
    before = tmp_path / "before.json"
    before.write_text(json.dumps({"a": {"peak_mb": 10.0},
                                  "b": {"peak_mb": 3.0}}))
    assert peak_memory.main(["--against", str(before)]) == 1
    assert capsys.readouterr().err == "peak rose: a 10.000 -> 10.600 MB\n"
    before.write_text(json.dumps({"a": {"peak_mb": 10.1}}))
    assert peak_memory.main(["--against", str(before)]) == 0
