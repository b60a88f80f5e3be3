"""Each correctness check passes on the program's real output and fails on a
corrupted copy of it.

    python3 -m pytest bench/tests -q     (about a minute: one round of each
                                          workload)
"""

import copy
import math
import os
import shutil

import pytest

import checks as ck
import workloads

SEED = 101


def _failed(checks_, name):
    return [c for c in checks_ if c.name == name and not c.ok]


def _scale_largest(terms, factor):
    """Scale the largest coefficient and its conjugate partner, so the
    corrupted series stays real."""
    key = max(terms, key=lambda k: abs(terms[k]))
    j, k, a = key
    mirror = (tuple(-v for v in j), tuple(-v for v in k), a)
    for kk in {key, mirror}:
        terms[kk] = terms[kk] * factor


@pytest.fixture(scope="module")
def coupled(tmp_path_factory):
    wl = workloads.Coupled()
    p = wl.setup(SEED, str(tmp_path_factory.mktemp("coupled")))
    return wl, p, wl.solve(p)


@pytest.fixture(scope="module")
def l2(tmp_path_factory):
    wl = workloads.L2Cohom()
    p = wl.setup(SEED, str(tmp_path_factory.mktemp("l2")))
    return wl, p, wl.solve(p)


@pytest.fixture(scope="module")
def threedof(tmp_path_factory):
    cwd = os.getcwd()
    workdir = str(tmp_path_factory.mktemp("threedof"))
    wl = workloads.ThreeDofCli()
    try:
        p = wl.setup(SEED, workdir)
        out = wl.solve(p)
    finally:
        os.chdir(cwd)
    return wl, p, out, workdir


def test_coupled_passes(coupled):
    wl, p, out = coupled
    assert wl.failure(out) is None
    assert all(c.ok for c in wl.check(p, out))


def test_coupled_scaled_embedding_coefficient_fails(coupled):
    wl, p, out = coupled
    bad = dict(out)
    bad["embedding"] = copy.deepcopy(out["embedding"])
    _scale_largest(bad["embedding"]["ux"][0].terms, 1 + 1e-3)
    assert _failed(wl.check(p, bad), "torus.invariance_vs_unperturbed")


def test_rung_that_does_not_contract_fails(coupled):
    wl, p, out = coupled
    norms = wl.norms(p, out)
    assert ck.contraction_check(norms).ok
    # the last rung replaced by one that only halves the error
    assert not ck.contraction_check(norms[:-1] + [0.5 * norms[-2]]).ok
    assert ck.contraction_check([1e-2, 0.0]).ok   # exact absorption


def test_l2_passes(l2):
    wl, p, out = l2
    assert all(c.ok for c in wl.check(p, out))


def test_l2_alpha_sign_flipped_fails(l2):
    wl, p, out = l2
    bad = dict(out, alpha=[a.scale(-1.0) for a in out["alpha"]])
    assert _failed(wl.check(p, bad), "alpha_equals_gradient")


def test_l2_plateau_residual_above_limit_fails(l2):
    wl, p, out = l2
    bad = dict(out, residual_plateau=1e-3 * p["f"].majorant_norm())
    assert _failed(wl.check(p, bad), "residual_plateau")


def test_threedof_passes(threedof):
    wl, p, out, workdir = threedof
    assert out["codes"] == [0, 0, 0]
    art = workloads.read_artifacts(workdir)
    results = wl.check_artifacts(art, p["points"], out["log"])
    assert all(c.ok for c in results), results


def test_threedof_nonzero_exit_code_fails(threedof):
    wl, p, out, workdir = threedof
    bad = dict(out, codes=[0, 3, 0])
    assert wl.failure(bad) is not None
    assert not ck.exit_code_check(bad["codes"]).ok


def test_threedof_scaled_torus_json_fails(threedof):
    wl, p, out, workdir = threedof
    art = workloads.read_artifacts(workdir)
    comps = [u for us in art["torus"]["embedding"].values() for u in us]
    size = lambda t: math.hypot(t["re"], t["im"])
    top = max(comps, key=lambda u: max(map(size, u["terms"]), default=0.0))
    t = max(top["terms"], key=size)
    for u in top["terms"]:
        if u["alpha"] == t["alpha"] and (
                (u["j"], u["k"]) == (t["j"], t["k"]) or
                ([-v for v in u["j"]], [-v for v in u["k"]]) ==
                (t["j"], t["k"])):
            u["re"] *= 1 + 1e-3
            u["im"] *= 1 + 1e-3
    results = wl.check_artifacts(art, p["points"], out["log"])
    assert _failed(results, "torus_json.invariance_vs_unperturbed")


def test_threedof_malformed_zeta_csv_fails(threedof, tmp_path):
    wl, p, out, workdir = threedof
    for name in ("reduced.json", "torus.json", "history.json", "zeta.csv"):
        shutil.copy(os.path.join(workdir, name), tmp_path / name)
    lines = (tmp_path / "zeta.csv").read_text().splitlines()
    (tmp_path / "zeta.csv").write_text("\n".join(lines[:-1] + ["1,2"]) + "\n")
    with pytest.raises(ValueError):
        workloads.read_artifacts(str(tmp_path))
