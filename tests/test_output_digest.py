"""tests/output_digest.py's entries, and the digests it prints compared with
tests/data/output_digest.json, where they are pinned with the numpy build
and CPU they hold on (output_digest.platform()). A change that moves an
output on purpose replaces the file's "digests" with the script's output
and names each moved entry in CHANGES.md."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import output_digest
from kamtori import symplectic
from kamtori.series import Grading
from conftest import drift_free, random_real_series

TESTS = os.path.dirname(os.path.abspath(output_digest.__file__))
PINNED = os.path.join(TESTS, "data", "output_digest.json")


def test_l2_cohom_entry(tmp_path, capsys):
    first = output_digest.digest("l2-cohom")
    # the varying problem's f is l2-cohom's, pinned once as its f0
    assert set(first) == {name + "/" + out
                          for name in ("l2-cohom", "l2-cohom-varying")
                          for out in ("alpha", "residual_plateau", "F",
                                      "max_condition", "v", "nbar",
                                      "projection_defect")} | {"l2-cohom/f0"}
    # the varying beta moves the generator, the plateau, the counter-term
    # systems' condition, Nbar and the projection defect (alpha and v come
    # out the same)
    for out in ("residual_plateau", "F", "max_condition", "nbar",
                "projection_defect"):
        assert first["l2-cohom/" + out] != first["l2-cohom-varying/" + out]
    # the same tree gives the same digests, and --against says so
    path = tmp_path / "before.json"
    path.write_text(json.dumps(first))
    assert output_digest.main(["--only", "l2-cohom", "--against",
                               str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == first
    # a moved entry is listed, and fails the comparison
    path.write_text(json.dumps(dict(first, **{"l2-cohom/alpha": "0" * 64})))
    assert output_digest.main(["--only", "l2-cohom", "--against",
                               str(path)]) == 1
    assert "differs: l2-cohom/alpha\n" in capsys.readouterr().err


def test_relation_defects_recorded_per_checked_map():
    # every map the check sees is recorded in pair order, and the check is
    # restored afterwards
    real = symplectic.symplecticity_residual
    gr = Grading(d=1, l=1, K_q=6, K_phi=3, D=4)
    gen = drift_free(random_real_series(
        gr, 1, 1, np.random.default_rng(2), n_modes=4, max_k=2, max_phi=1,
        max_deg=2, scale=1e-3))
    with output_digest.relation_defects() as got:
        Phi = symplectic.map_from_generator(gen)
    assert symplectic.symplecticity_residual is real
    want = symplectic._relation_defects(Phi)
    assert len(got) == 1 and got[0].tolist() == list(want.values())
    assert Phi.symp_residual == max(want.values())


@pytest.mark.slow
def test_outputs_match_the_pinned_digests():
    # in a child, where no earlier test's cached tables or kept majorants
    # spare the problems any work; BLAS pinned to one thread, as the
    # benchmark pins it (the digests are the same unpinned)
    with open(PINNED) as fh:
        want = json.load(fh)
    try:
        here = output_digest.platform()
    except TypeError:   # numpy < 1.26 gives no dict of its build
        here = {"numpy": np.__version__}
    if any(here.get(key) != want[key] for key in ("numpy", "blas", "simd")):
        pytest.skip("compared nothing: the digests are pinned on numpy %s "
                    "with %s and SIMD %s, and this build differs (%s)"
                    % (want["numpy"], want["blas"], want["simd"], here))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.join(TESTS, "..", "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, output_digest.__file__], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=600)
    assert json.loads(out.stdout) == want["digests"]
