import json

import numpy as np

import output_digest
from kamtori import symplectic
from kamtori.series import Grading
from conftest import drift_free, random_real_series


def test_l2_cohom_entry(tmp_path, capsys):
    first = output_digest.digest("l2-cohom")
    assert set(first) == {name + "/" + out
                          for name in ("l2-cohom", "l2-cohom-varying")
                          for out in ("alpha", "residual_plateau", "F")}
    # the varying beta moves the generator and the plateau (alpha comes out
    # the same)
    for out in ("residual_plateau", "F"):
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
