"""sha256 digests of kamtori's canonical outputs, printed as one JSON object.

    PYTHONPATH=src python tests/output_digest.py > digest.json
    PYTHONPATH=src python tests/output_digest.py --against digest.json
    PYTHONPATH=src python tests/output_digest.py \
        --against tests/data/output_digest.json

Two trees compute the same outputs bit for bit exactly when their digests
agree on the same numpy build and CPU. tests/data/output_digest.json pins
the digests with the platform() they were computed on, and
tests/test_output_digest.py compares the script's output with it. The
entries, each named "<problem>/<output>":

- coupled-1p1 at eps 1e-5 and 1e-4 (the problem of bench/workloads.py's
  `Coupled`): the history rows as history.json would hold them, phi0, the
  slot arrays of every embedding component, the invariance residual and
  relation_defects, every checked map's defect of each canonical bracket
  relation in pair order (history.json keeps only the largest, behind
  which a moved pair could hide), and the slot arrays of the final
  tuple's assembled Hamiltonian (`assemble_hamiltonian`) and of zeta,
  both read off the one call of `engine.compute_zeta`;
- threedof-cli at seeds 101, 7 and 42001 (`ThreeDofCli.config`), run
  through `kamtori.cli.main` (reduce, run, verify) in a temporary
  directory: the exit codes and the bytes of reduced.json, history.json,
  torus.json and zeta.csv;
- l2-cohom (`L2Cohom`): alpha's and the generator F's slot arrays, the
  residual plateau, the largest condition number of the counter-term
  systems (`max_condition`, history.json's `cohom_condition`), the slot
  arrays of the drift v and of the correction Nbar's c, beta, Gamma, M, h
  and g in that order, and the projection defect;
- l2-cohom-varying: the same for L2Cohom's problem with 0.01 cos(phi_1)
  added to beta[0][0], whose beta differs from point to point (it stays
  inside the sublevel region), so that its shifted systems are solved one
  grid point at a time where l2-cohom's are factored once per slot;
- l2-iterate (the l = 2 problem of tests/test_engine.py's
  `TestTwoResonanceRun`, about 5 s): iterate's history rows and the slot
  arrays of the final f and of every component of the map Phi, whose
  batched products run at B = 4096 in many chunks.

The problems are read from bench/workloads.py and not changed; l2-iterate,
which no workload runs, is built here as its test builds it. With
--against FILE, an earlier run's output or the pinned file, the entries
that differ are listed and the exit code is 1 if any does. --only PREFIX
computes only the entries of the problems whose name starts with PREFIX.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench"))

import workloads  # noqa: E402
from kamtori import cli, engine, normalform, series, symplectic  # noqa: E402
from kamtori.engine.driver import IterateConfig  # noqa: E402

COUPLED_EPS = (1e-5, 1e-4)
CLI_SEEDS = (101, 7, 42001)
CLI_ARTIFACTS = ("reduced.json", "history.json", "torus.json", "zeta.csv")


def sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def platform():
    """The numpy build and CPU the digests hold on: numpy's version, its
    OpenBLAS build (the block kernel's matrix products) and the SIMD
    extensions it dispatches to (its float64 exp runs AVX-512 code where
    the CPU has it, which differs from libm's by an ulp for some
    arguments)."""
    config = np.show_config(mode="dicts")
    return {"numpy": np.__version__,
            "blas": config["Build Dependencies"]["blas"].get(
                "openblas configuration"),
            "simd": config["SIMD Extensions"]}


def series_parts(f):
    """The slot arrays, radii and truncation loss of one series."""
    return [f.ij.tobytes(), f.ik.tobytes(), f.it.tobytes(),
            np.ascontiguousarray(f.coef).tobytes(), f.coef.shape,
            f.r, f.s, f.trunc_loss]


@contextlib.contextmanager
def relation_defects():
    """A list that collects, for each map checked by
    symplectic.symplecticity_residual while the context is open, its
    relation defects (``_relation_defects``) in pair order."""
    real, got = symplectic.symplecticity_residual, []

    def recording(Phi):
        got.append(np.array(list(symplectic._relation_defects(Phi).values())))
        return real(Phi)
    symplectic.symplecticity_residual = recording
    try:
        yield got
    finally:
        symplectic.symplecticity_residual = real


@contextlib.contextmanager
def zeta_calls():
    """A list that collects (state, zeta) for each call of
    engine.compute_zeta while the context is open."""
    real, got = engine.compute_zeta, []

    def recording(state, H0_series):
        got.append((state, real(state, H0_series)))
        return got[-1][1]
    engine.compute_zeta = recording
    try:
        yield got
    finally:
        engine.compute_zeta = real


def coupled(eps):
    wl = workloads.Coupled()
    wl.EPS = eps
    with relation_defects() as defects, zeta_calls() as zetas:
        out = wl.solve(wl.setup(0, None))
    rows = cli.history_rows(out["hist"])
    name = "coupled-1p1@eps=%g/" % eps
    digests = {name + "history": sha(json.dumps(rows, sort_keys=True)),
               name + "relation_defects": sha(*(d.tobytes() for d in defects))}
    if "embedding" in out:
        emb = [p for key in sorted(out["embedding"])
               for u in out["embedding"][key] for p in series_parts(u)]
        digests.update({name + "phi0": sha(np.asarray(out["phi0"]).tobytes()),
                        name + "embedding": sha(*emb),
                        name + "residual": sha(float(out["residual"]))})
        (state, zeta), = zetas
        digests.update({
            name + "hamiltonian": sha(*series_parts(
                normalform.assemble_hamiltonian(state.N))),
            name + "zeta": sha(*series_parts(zeta))})
    return digests


def threedof(seed):
    name = "threedof-cli@seed=%d/" % seed
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("config.json", "w") as fh:
                json.dump(workloads.ThreeDofCli().config(seed), fh, indent=1)
            grid = str(workloads.ThreeDofCli.GRID)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes = [cli.main(argv) for argv in (
                    ["reduce", "--config", "config.json"],
                    ["run", "--config", "config.json"],
                    ["verify", "--torus", "torus.json", "--problem",
                     "reduced.json", "--grid", grid])]
            digests = {name + "exit_codes": sha(codes)}
            for art in CLI_ARTIFACTS:
                with open(art, "rb") as fh:
                    digests[name + art] = sha(fh.read())
        finally:
            os.chdir(cwd)
    return digests


def l2_cohom(name="l2-cohom", vary=0.0):
    """L2Cohom's entries; with vary, vary cos(phi_1) is added to beta[0][0],
    so that beta differs from one grid point to the next."""
    wl = workloads.L2Cohom()
    p = wl.setup(0, None)
    if vary:
        beta = p["N"].beta
        beta[0][0] = beta[0][0] + series.FTSeries.cos_angle(
            p["f"].grading, 1.0, 1.0, (1, 0), (0,), vary)
    # the workload returns alpha and the plateau; F, which every slot solve
    # feeds, is read off the solution it is given
    solve, sols = engine.solve_cohomological, []

    def recording(*args, **kwargs):
        sols.append(solve(*args, **kwargs))
        return sols[-1]
    engine.solve_cohomological = recording
    try:
        out = wl.solve(p)
    finally:
        engine.solve_cohomological = solve
    alpha = [p for a in out["alpha"] for p in series_parts(a)]
    sol, = sols
    Nbar = sol.Nbar
    nbar = [Nbar.c] + [u for mat in (Nbar.beta, Nbar.Gamma, Nbar.M)
                       for row in mat for u in row] + [Nbar.h, Nbar.g]
    return {name + "/alpha": sha(*alpha),
            name + "/residual_plateau": sha(float(out["residual_plateau"])),
            name + "/F": sha(*series_parts(sol.F)),
            name + "/max_condition": sha(float(sol.max_condition)),
            name + "/v": sha(*(p for u in sol.v for p in series_parts(u))),
            name + "/nbar": sha(*(p for u in nbar for p in series_parts(u))),
            name + "/projection_defect": sha(float(sol.projection_defect))}


def l2_iterate():
    eps = 1e-5
    gr = series.Grading(d=1, l=2, K_q=4, K_phi=4, D=4)
    N0 = normalform.initial_tuple(gr, 1.0, 1.0, [workloads.GOLDEN], [[-1.0]])
    sc = symplectic.sigma_cos
    terms = sc((0, 1, 0), eps) + sc((1, 0, 1), eps) + sc((1, 1, 1), 0.5 * eps)
    f0 = symplectic.shifted_parametrization(terms, 1, 2, gr, 1.0, 1.0)
    state, hist = engine.iterate(N0, f0, IterateConfig(target_tol=1e-13))
    return {"l2-iterate/history": sha(json.dumps(cli.history_rows(hist),
                                                 sort_keys=True)),
            "l2-iterate/f": sha(*series_parts(state.f)),
            "l2-iterate/Phi": sha(*(p for u in state.Phi.U
                                    for p in series_parts(u)))}


PROBLEMS = ([("coupled-1p1@eps=%g" % eps, lambda eps=eps: coupled(eps))
             for eps in COUPLED_EPS]
            + [("threedof-cli@seed=%d" % seed, lambda seed=seed: threedof(seed))
               for seed in CLI_SEEDS]
            + [("l2-cohom", l2_cohom),
               ("l2-cohom-varying",
                lambda: l2_cohom("l2-cohom-varying", vary=0.01)),
               ("l2-iterate", l2_iterate)])


def digest(only=""):
    out = {}
    for name, run in PROBLEMS:
        if name.startswith(only):
            out.update(run())
    return out


def differing(got, want):
    """The entries of got that want lacks or holds with another digest."""
    return sorted(k for k in got if want.get(k) != got[k])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", help="an earlier output to compare with")
    ap.add_argument("--only", default="",
                    help="only the problems whose name starts with this")
    args = ap.parse_args(argv)
    got = digest(args.only)
    print(json.dumps(got, indent=1, sort_keys=True))
    if args.against:
        with open(args.against) as fh:
            want = json.load(fh)
        # the pinned file holds the digests beside their platform
        diff = differing(got, want.get("digests", want))
        for name in diff:
            print("differs: %s" % name, file=sys.stderr)
        print("%d of %d entries differ" % (len(diff), len(got)),
              file=sys.stderr)
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
