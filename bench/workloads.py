"""The three workloads: how each builds its problem, solves it and is checked.

Each workload has `setup(seed, workdir)` (everything up to the built
problem), `solve(problem)` (the work users wait for), `failure(outputs)`
(the reason the program reported a failed operation, or None) and
`check(problem, outputs)` (independent correctness checks). The library is
reached only through its public functions and `kamtori.cli.main`, looked up
at call time so that traced rounds see the wrapped versions.
"""

import contextlib
import json
import math
import os

import numpy as np

import kamtori.cli as cli
import kamtori.engine as engine
import kamtori.engine.cohom as cohom
import kamtori.engine.driver as driver
import kamtori.normalform as normalform
import kamtori.series as series
import kamtori.smalldiv as smalldiv
import kamtori.symplectic as symplectic

import checks as ck

GOLDEN = (1 + math.sqrt(5)) / 2
N_POINTS = 64   # independent check points per round


def _points(seed, dim):
    return ck.check_points(np.random.default_rng([seed, 1]), N_POINTS, dim)


class Coupled:
    """The q-coupled 1+1 problem of the tier-1 suite (`q_coupled_problem`,
    K = 6) at the second amplitude of criterion 9, eps = 1e-5."""

    EPS = 1e-5
    K = 6
    TARGET_TOL = 1e-13

    def setup(self, seed, workdir):
        gr = series.Grading(d=1, l=1, K_q=self.K, K_phi=self.K, D=4)
        sc = symplectic.sigma_cos
        terms = (sc((0, 1), self.EPS) + sc((1, 1), self.EPS)
                 + sc((1, 0), 0.5 * self.EPS, powers=(1, 0)))
        f0 = symplectic.shifted_parametrization(terms, 1, 1, gr, 1.0, 1.0)
        N0 = normalform.initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        return {"f0": f0, "N0": N0, "points": _points(seed, 1)}

    def solve(self, p):
        f0, N0 = p["f0"], p["N0"]
        state, hist = engine.iterate(
            N0, f0, driver.IterateConfig(target_tol=self.TARGET_TOL))
        if hist["failure"] is not None:
            return {"hist": hist}
        H0 = normalform.assemble_hamiltonian(N0) + f0
        zeta = engine.compute_zeta(state, H0)
        phi0, _info = engine.find_vanishing_point(zeta, state.alpha,
                                                  state.N.beta)
        torus = engine.extract_torus(state, phi0)
        residual = engine.verify_invariance(cohom.freeze_phi(H0, phi0),
                                            torus.embedding, [GOLDEN], 64)
        return {"hist": hist, "phi0": phi0, "embedding": torus.embedding,
                "residual": residual}

    def failure(self, out):
        fail = out["hist"]["failure"]
        return None if fail is None else "iterate: %s" % fail["reason"]

    def norms(self, p, out):
        return [driver.c2_norm(p["f0"])] + [
            row["f_norm"] for row in out["hist"]["steps"]
            if row.get("step_ok", True)]

    def check(self, p, out):
        H = ck.model_hamiltonian(1, 1, [GOLDEN], [[-1.0]],
                                 ck.Series.from_terms(1, 1, p["f0"].terms))
        emb = {key: [ck.Series.from_terms(1, 1, u.terms) for u in us]
               for key, us in out["embedding"].items()}
        return [ck.contraction_check(self.norms(p, out))] + \
            ck.invariance_checks("torus", H, out["phi0"], emb, [GOLDEN],
                                 p["points"], ck.CRITERION_1_GATE)


class ThreeDofCli:
    """Criterion 10's 3-dof problem with one resonance, written as a config
    and run through `kamtori reduce`, `run` and `verify` in an empty
    directory. The Hessian is drawn from the seed as criterion 10 draws it
    (seed 101 gives criterion 10's Hessian)."""

    EPS = 1e-6
    K = 3
    GRID = 24

    def config(self, seed):
        rng = np.random.default_rng(seed)
        red = symplectic.unimodular_completion([(1, 1, -1)])
        K = np.array(red.K, dtype=float)
        C = np.array([[1.0 + rng.uniform(0.0, 1.0)]])
        B = rng.uniform(-0.4, 0.4, (2, 1))
        A = (-np.eye(2) * (1.0 + rng.uniform(0.0, 0.5))
             + B @ np.linalg.solve(C, B.T))
        Kinv = np.linalg.inv(K)
        hessian = Kinv @ np.block([[A, B], [B.T, C]]) @ Kinv.T
        kA = [int(v) for v in K.T @ np.array([1, 0, 1])]
        kB = [int(v) for v in K.T @ np.array([0, 1, 1])]
        return {
            "problem": {
                "m": 3, "resonances": [[1, 1, -1]],
                "omega0": [1.0, GOLDEN, 1.0 + GOLDEN],
                "hessian": hessian.tolist(), "h_terms": [],
                "f_terms": [
                    {"q_modes": kA[:2], "x_modes": kA[2:],
                     "re": 0.5 * self.EPS},
                    {"q_modes": kB[:2], "x_modes": kB[2:],
                     "re": 0.35 * self.EPS}],
                "radii": [1.0, 1.0], "tau": 0.1},
            "truncation": {"K_q": self.K, "K_phi": self.K, "D": 4},
            "schedule": {"target_tol": 1e-6},
            "outputs": {"verify_grid": self.GRID},
        }

    def _cli(self, argv):
        with open("cli.log", "a") as log, contextlib.redirect_stdout(log):
            return cli.main(argv)

    def setup(self, seed, workdir):
        os.chdir(workdir)
        with open("config.json", "w") as fh:
            json.dump(self.config(seed), fh, indent=1)
        codes = [self._cli(["reduce", "--config", "config.json"])]
        return {"codes": codes, "points": _points(seed, 2)}

    def solve(self, p):
        codes = p["codes"]
        codes.append(self._cli(["run", "--config", "config.json"]))
        codes.append(self._cli(["verify", "--torus", "torus.json",
                                "--problem", "reduced.json",
                                "--grid", str(self.GRID)]))
        with open("cli.log") as fh:
            log = fh.read()
        return {"codes": list(codes), "log": log}

    def failure(self, out):
        exits = ck.exit_code_check(out["codes"])
        return None if exits.ok else "cli exit codes %s" % out["codes"]

    def check(self, p, out):
        result = [ck.exit_code_check(out["codes"])]
        try:
            art = read_artifacts(".")
        except (OSError, ValueError, KeyError) as exc:
            return result + [ck.Check("artifacts_parse (%s)" % exc, False,
                                      1, 0)]
        result.append(ck.Check("artifacts_parse", True, 0, 0))
        return result + self.check_artifacts(art, p["points"], out["log"])

    def check_artifacts(self, art, points, log):
        red, torus = art["reduced"], art["torus"]
        l, d = red["l"], red["d"]
        rest = (ck.Series.from_json(red["h0"])
                + ck.Series.from_json(red["f0"]))
        H = ck.model_hamiltonian(l, d, red["omega"], red["M0"], rest)
        emb = {key: [ck.Series.from_json(u) for u in us]
               for key, us in torus["embedding"].items()}
        out = ck.invariance_checks("torus_json", H, torus["phi0"], emb,
                                   red["omega"], points,
                                   ck.CRITERION_10_GATE)
        # `verify` re-derives the stored residual from the artifacts; the
        # terms are summed in another order, so only rounding may differ
        line = [ln for ln in log.splitlines()
                if ln.startswith("invariance residual on a")][-1]
        gap = abs(float(line.split(":")[1]) - torus["residual"])
        out.append(ck.Check("verify_matches_run", gap <= 1e-12, gap, 1e-12))
        rows = art["zeta_rows"]
        out.append(ck.Check("zeta_rows", len(rows) == art["zeta_expected"],
                            len(rows), art["zeta_expected"]))
        return out


def read_artifacts(directory):
    """Parse the artifacts of one `kamtori run` (raises on a malformed one)."""
    def load(name):
        with open(os.path.join(directory, name)) as fh:
            return json.load(fh)
    reduced, torus, history = (load("reduced.json"), load("torus.json"),
                               load("history.json"))
    if not history or any("f_norm" not in row for row in history):
        raise ValueError("history.json has no rung rows")
    with open(os.path.join(directory, "zeta.csv")) as fh:
        lines = fh.read().splitlines()
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    width = reduced["l"] + 3
    if lines[0].split(",")[-3:] != ["zeta", "alpha_norm", "nu_max_beta"] \
            or any(len(row) != width for row in rows):
        raise ValueError("zeta.csv has the wrong layout")
    size = normalform.phi_grid_size(reduced["grading"]["K_phi"])
    return {"reduced": reduced, "torus": torus, "history": history,
            "zeta_rows": rows, "zeta_expected": size ** reduced["l"]}


class L2Cohom:
    """One glued cohomological solve at l = 2: the problem of
    `TestTwoNormalDirections::test_cohomological_residual_l2_nonzero_beta`,
    on a 32 x 32 parameter grid."""

    EPS = 1e-4
    K = 4
    GRID = 32

    def setup(self, seed, workdir):
        gr = series.Grading(d=1, l=2, K_q=self.K, K_phi=self.K, D=4)
        N = normalform.initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        N.beta = normalform.const_matrix(
            gr, 1.0, 1.0, np.array([[0.02, 0.01], [0.01, -0.03]]))
        witness = smalldiv.effective_diophantine_constant([GOLDEN], 0.1,
                                                          self.K)
        phix = [cohom.coordinate(gr, 1.0, 1.0, "x", i) for i in range(2)]
        sc = symplectic.sigma_cos
        terms = (sc((0, 1, 0), self.EPS) + sc((1, 0, 1), self.EPS)
                 + sc((2, 1, -1), 0.3 * self.EPS, powers=(1, 0, 0)))
        f = symplectic.shifted_parametrization(terms, 1, 2, gr, 1.0, 1.0)
        return {"N": N, "f": f, "phix": phix, "witness": witness,
                "points": _points(seed, 2)}

    def solve(self, p):
        sol = engine.solve_cohomological(
            p["N"], p["f"], p["phix"], p["witness"], sigma=0.025, delta=0.1,
            delta_plus=0.03, grid_size=self.GRID)
        return {"alpha": sol.alpha, "residual_plateau": sol.residual_plateau}

    def failure(self, out):
        return None

    def check(self, p, out):
        f = p["f"]
        fs = ck.Series.from_terms(2, 1, f.terms)
        alpha = [ck.Series.from_terms(2, 1, a.terms) for a in out["alpha"]]
        return ck.alpha_gradient_check(fs, alpha, p["points"]) + \
            [ck.plateau_check(out["residual_plateau"], fs, f.r, f.s)]


WORKLOADS = {"coupled-1p1": Coupled(), "threedof-cli": ThreeDofCli(),
             "l2-cohom": L2Cohom()}
