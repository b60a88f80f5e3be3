"""Config-driven experiment runner.

Subcommands:
  reduce --config c.json            integer/shear reduction to the model form
  run    --config c.json           full pipeline: schedule, iteration, torus
  verify --torus t.json --problem p.json --grid n

Exit codes: 0 success, 2 precondition failure, 3 convergence failure, 4 I/O;
each is the base class (kamtori.errors) of the failure that ended the run.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import series as fts
from .engine import find_torus, iterate, verify_invariance
from .engine.driver import IterateConfig
from .errors import (ArtifactIOError, ConvergenceError, KamtoriError,
                     PreconditionError)
from .normalform import (assemble_hamiltonian, eval_phi_series,
                         initial_tuple, nu_max_profile)
from .series import Grading, freeze_phi
from .smalldiv import effective_diophantine_constant
from .symplectic import (SigmaTerm, reduce_coordinates,
                         unimodular_completion)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

# the per-rung fields history.json keeps (rung rows and their measures)
HISTORY_FIELDS = (
    "n", "r", "s", "eps_measured", "alpha_norm", "f_norm",
    "conjugacy_residual", "f_plus_trunc_loss", "phi_trunc_loss",
    "psi_remainder", "phi_remainder", "f_plus_terms", "phi_terms",
    "lie_orders", "contraction_exponent", "symp_residual", "K_eff",
    "cohom_condition", "cohom_obstruction", "cohom_projection_defect",
    "cohom_residual_plateau", "cohom_residual_budget", "tuple_drift",
    "step_ok", "postcondition_misses")

# the config keys kamtori reads, at the top level and in each section ("term"
# is an entry of problem.h_terms or problem.f_terms); any other key is refused
CONFIG_KEYS = {
    "config": {"problem", "truncation", "schedule", "outputs"},
    "problem": {"m", "resonances", "omega0", "hessian", "tau", "radii",
                "amplitude", "h_terms", "f_terms"},
    "term": {"q_modes", "x_modes", "action_powers", "re", "im", "hermitian"},
    "truncation": {"K_q", "K_phi", "D"},
    "schedule": {"n_max", "target_tol"},
    "outputs": {"reduced_path", "history_path", "zeta_csv_path",
                "torus_path", "verify_grid"},
}


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactIOError("cannot read %s: %s" % (path, exc)) from exc


def _write_json(path, obj):
    try:
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise ArtifactIOError("cannot write %s: %s" % (path, exc)) from exc


@contextlib.contextmanager
def _parsing(what):
    """Turn a missing key, a wrong type or a bad value met while reading
    `what` into a PreconditionError (the named failures pass as they are)."""
    try:
        yield
    except KamtoriError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError("bad %s: %s: %s"
                                % (what, type(exc).__name__, exc)) from exc


def _read_config(path):
    """The config at path, refused if it holds a key kamtori does not read."""
    cfg = _read_json(path)

    def check(obj, where, kind):
        if not isinstance(obj, dict):
            raise PreconditionError("bad config: %s must be an object" % where)
        unknown = sorted(set(obj) - CONFIG_KEYS[kind])
        if unknown:
            raise PreconditionError("bad config: unknown key %s.%s"
                                    % (where, unknown[0]))
    check(cfg, "config", "config")
    for section in cfg:
        check(cfg[section], section, section)
    with _parsing("config"):
        for name in ("h_terms", "f_terms"):
            for i, entry in enumerate(cfg.get("problem", {}).get(name, [])):
                check(entry, "problem.%s[%d]" % (name, i), "term")
    return cfg


def max_threads():
    """Parallelism cap from the environment, validated only: kamtori's own
    code is sequential, and the BLAS threads numpy runs on are not capped."""
    raw = os.environ.get("KAM_THREADS")
    if raw is None:
        return None
    with _parsing("KAM_THREADS"):
        n = int(raw)
    if n < 1:
        raise PreconditionError("KAM_THREADS must be >= 1")
    return n


def _verify_grid(n):
    """A verify grid of n points per axis, which needs n >= 1."""
    if n < 1:
        raise PreconditionError("verify grid must be >= 1 point per axis, "
                                "got %d" % n)
    return n


def _int(value, field):
    """A config integer: a JSON number without a fractional part (a string,
    a bool or 3.9 is refused, not read as a number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or isinstance(value, float) and not value.is_integer():
        raise PreconditionError("bad config: %s must be an integer, got %s"
                                % (field, json.dumps(value)))
    return int(value)


def _real(value, field, nesting=0):
    """A config real, or with nesting n a list of reals nested n deep: JSON
    numbers (a string or a bool is refused, not read as a number)."""
    if nesting and isinstance(value, list):
        return [_real(v, field, nesting - 1) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PreconditionError("bad config: %s must be a number, got %s"
                                % (field, json.dumps(value)))
    return float(value)


def _ints(values, field):
    """A config list of integers (see _int)."""
    if not isinstance(values, list):
        raise PreconditionError("bad config: %s must be a list of integers, "
                                "got %s" % (field, json.dumps(values)))
    return [_int(v, field) for v in values]


def _sigma_terms(entries, where, amplitude=1.0):
    out = []
    for n, e in enumerate(entries):
        at = "%s[%d]." % (where, n)
        mode = tuple(_ints(e.get("q_modes", []), at + "q_modes")
                     + _ints(e.get("x_modes", []), at + "x_modes"))
        powers = tuple(_ints(e.get("action_powers", [0] * len(mode)),
                             at + "action_powers"))
        c = complex(_real(e.get("re", 0.0), at + "re"),
                    _real(e.get("im", 0.0), at + "im")) * amplitude
        out.append(SigmaTerm(mode, powers, c))
        if e.get("hermitian", True):
            out.append(SigmaTerm(tuple(-v for v in mode), powers,
                                 c.conjugate()))
    return out


def _truncation(cfg):
    t = cfg.get("truncation", {})
    return {key: _int(t.get(key, default), "truncation." + key)
            for key, default in (("K_q", 16), ("K_phi", 16), ("D", 4))}


def _config_sha256(cfg):
    """Digest of what the reduction reads: the problem and the truncation."""
    canon = json.dumps({"problem": cfg["problem"],
                        "truncation": cfg.get("truncation", {})},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def cmd_reduce(cfg, out_path=None):
    with _parsing("config"):
        prob = cfg["problem"]
        m = _int(prob["m"], "problem.m")
        resonances = [[float(v) for v in vec] for vec in prob["resonances"]]
        omega0 = np.asarray(_real(prob["omega0"], "problem.omega0", 1))
        hessian = np.asarray(_real(prob["hessian"], "problem.hessian", 2))
        tau = _real(prob.get("tau", 0.1), "problem.tau")
        r, s = _real(prob.get("radii", [1.0, 1.0]), "problem.radii", 1)
        truncation = _truncation(cfg)
        amplitude = _real(prob.get("amplitude", 1.0), "problem.amplitude")
        h_terms = _sigma_terms(prob.get("h_terms", []), "problem.h_terms")
        f_terms = _sigma_terms(prob.get("f_terms", []), "problem.f_terms",
                               amplitude)
    if not (r > 0 and s > 0):
        raise PreconditionError("bad config: radii must be positive, got "
                                "(%g, %g)" % (r, s))
    for name, value in [("omega0", omega0), ("hessian", hessian),
                        ("resonances", [v for vec in resonances for v in vec]),
                        ("radii", [r, s]), ("tau", tau),
                        ("amplitude", amplitude),
                        ("h_terms", [t.coeff for t in h_terms]),
                        ("f_terms", [t.coeff for t in f_terms])]:
        if not np.isfinite(value).all():
            raise PreconditionError("bad config: problem.%s must be finite"
                                    % name)
    if omega0.shape != (m,) or hessian.shape != (m, m) \
            or any(len(vec) != m for vec in resonances) \
            or any(len(t.mode) != m or len(t.powers) != m
                   for t in h_terms + f_terms):
        raise PreconditionError(
            "bad config: omega0, hessian, each resonance and each term need "
            "m = %d angles" % m)
    l = len(resonances)
    grading = Grading(d=m - l, l=l, **truncation)
    red = unimodular_completion(resonances)
    Karr = np.array(red.K, dtype=float)
    kap = min(np.linalg.norm(Karr, 2), 1.0 / np.linalg.norm(Karr, 2))
    # provisional radii; the shear norm below sharpens the shrink factor
    omega, M0, h0, f0, report = reduce_coordinates(
        hessian, omega0, red, h_terms, f_terms, grading, r, s)
    kap2 = min(0.5, 1.0 / (1.0 + report["shear_norm"]))
    r0, s0 = kap * kap2 * r, kap * kap2 * s
    witness = effective_diophantine_constant(omega, tau, grading.K_q)
    report["gamma_eff"] = witness.gamma
    report["diophantine_ok"] = not witness.resonant
    if witness.resonant:
        raise PreconditionError(
            "(i) failed: reduced frequency resonant at k=%s"
            % (witness.worst_k,))
    reduced = {
        "d": grading.d, "l": l, "omega": [float(v) for v in omega],
        "M0": [[float(v) for v in row] for row in M0],
        "frame": report["normalization"],
        "tau": tau, "radii": [float(r0), float(s0)],
        "grading": dataclasses.asdict(grading),
        "h0": fts.to_json_dict(h0.with_radii(r0, s0)),
        "f0": fts.to_json_dict(f0.with_radii(r0, s0)),
        "report": _jsonable(report),
        "config_sha256": _config_sha256(cfg),
    }
    path = out_path or cfg.get("outputs", {}).get("reduced_path", "reduced.json")
    _write_json(path, reduced)
    print("condition (i)   Diophantine: gamma_eff = %.6g  %s"
          % (witness.gamma, "PASS"))
    print("condition (ii)  nonsingular: hessian eigs %s, C eigs %s  PASS"
          % (report["hessian_eigs"], report["C_eigs"]))
    print("condition (iii) signs: p-block Schur eigs %s (negative), "
          "y-block eigs %s (positive)  PASS"
          % (report["M0_eigs"], report["Q0_eigs"]))
    print("reduced problem written to %s" % path)
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _problem_from(data):
    """reduced.json's problem: its grading, omega, tau and frame, the
    starting tuple N0, the perturbation f0 and H0 = N0's Hamiltonian + f0."""
    with _parsing("reduced problem"):
        grading = Grading(**data["grading"])
        r0, s0 = data["radii"]
        omega = np.asarray(data["omega"], dtype=float)
        M0 = np.asarray(data["M0"], dtype=float)
        frame = np.asarray(data["frame"], dtype=float)
        tau = data["tau"]
        h0 = fts.from_json_dict(data["h0"]).with_radii(r0, s0)
        f0 = fts.from_json_dict(data["f0"]).with_radii(r0, s0)
    N0 = initial_tuple(grading, r0, s0, omega, M0, h=h0)
    return {"grading": grading, "omega": omega, "tau": tau, "frame": frame,
            "N0": N0, "f0": f0, "H0": assemble_hamiltonian(N0) + f0}


def history_rows(history):
    """history.json's rows: the HISTORY_FIELDS of each rung's row and of
    its measures."""
    return [{k: v for k, v in {**row.get("measures", {}), **row}.items()
             if k in HISTORY_FIELDS} for row in history["steps"]]


def _zeta_rows(grid, zv, alpha, beta):
    """zeta.csv's rows on the phi0 search's grid, given its zeta values zv."""
    av = np.stack([eval_phi_series(a, grid).real for a in alpha], axis=-1)
    nv = nu_max_profile(beta, grid)
    rows = []
    for i in range(len(grid)):
        rows.append([float(v) for v in grid[i]]
                    + [float(zv[i]), float(np.linalg.norm(av[i])),
                       float(nv[i])])
    return rows


def _write_zeta_csv(path, rows, l):
    header = ",".join(["phi%d" % (i + 1) for i in range(l)]
                      + ["zeta", "alpha_norm", "nu_max_beta"])
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join("%.17g" % v for v in row) + "\n")
    except OSError as exc:
        raise ArtifactIOError("cannot write %s: %s" % (path, exc)) from exc


def _pipeline(cfg):
    """Reduce (unless reduced.json was written from this very problem and
    truncation), iterate, compute zeta, extract and verify the torus, and
    write history.json, zeta.csv and torus.json."""
    with _parsing("schedule"):
        sched_cfg = cfg.get("schedule", {})
        target_tol = _real(sched_cfg.get("target_tol", 1e-12),
                           "schedule.target_tol")
        n_max = _int(sched_cfg.get("n_max", 8), "schedule.n_max")
    if not target_tol > 0:
        raise PreconditionError("bad config: schedule.target_tol must be "
                                "above 0, got %g" % target_tol)
    outputs = cfg.get("outputs", {})
    reduced_path = outputs.get("reduced_path", "reduced.json")
    data = _read_json(reduced_path) if os.path.exists(reduced_path) else None
    if data is None or data.get("config_sha256") != _config_sha256(cfg):
        cmd_reduce(cfg, reduced_path)
        data = _read_json(reduced_path)
    prob = _problem_from(data)
    grading = prob["grading"]
    it_cfg = IterateConfig(tau=prob["tau"], n_max=n_max,
                           target_tol=min(target_tol, 1e-12),
                           frame=prob["frame"])
    default_grid = 64 if grading.d == 1 else 24
    with _parsing("outputs"):
        grid_n = _verify_grid(_int(outputs.get("verify_grid", default_grid),
                                   "outputs.verify_grid"))
    state, history = iterate(prob["N0"], prob["f0"], it_cfg)
    phi0, info, torus, residual = find_torus(state, prob["H0"], grid_n)
    artifacts = {}
    hist_path = outputs.get("history_path", "history.json")
    _write_json(hist_path, history_rows(history))
    artifacts["history"] = hist_path
    csv_path = outputs.get("zeta_csv_path", "zeta.csv")
    _write_zeta_csv(csv_path, _zeta_rows(info["zeta_grid"],
                                         info["zeta_values"], state.alpha,
                                         state.N.beta), grading.l)
    artifacts["zeta_csv"] = csv_path
    torus_path = outputs.get("torus_path", "torus.json")
    emb = {k: [fts.to_json_dict(u) for u in us]
           for k, us in torus.embedding.items()}
    _write_json(torus_path, {
        "phi0": [float(v) for v in phi0],
        "omega": [float(v) for v in prob["omega"]],
        "tau": prob["tau"],
        "embedding": emb,
        "residual": float(residual),
        "alpha_at_phi0": [float(v) for v in info["alpha_at_phi0"]],
        "nu_max_at_phi0": float(info["nu_max_at_phi0"]),
        "distance_to_trivial": float(torus.distance_to_trivial),
        "grad_norm": float(info["grad_norm"]),
        "hamiltonian": fts.to_json_dict(info["hamiltonian"]),
    })
    artifacts["torus"] = torus_path
    return state, history, phi0, info, residual, target_tol, artifacts


def cmd_run(cfg):
    state, history, phi0, info, residual, target_tol, artifacts = \
        _pipeline(cfg)
    print("steps run: %d" % state.n)
    for row in history["steps"]:
        print("  n=%d  |f| = %.6g  conjugacy = %s"
              % (row["n"], row["f_norm"] or 0.0,
                 "%.3g" % row["conjugacy_residual"]
                 if row.get("conjugacy_residual") is not None else "n/a"))
    print("phi0 = %s  (gradient %.3g)" % (phi0, info["grad_norm"]))
    print("|alpha(phi0)| = %.6g   nu_max(beta(phi0)) = %.6g"
          % (float(np.linalg.norm(info["alpha_at_phi0"])),
             info["nu_max_at_phi0"]))
    print("invariance residual = %.6g  (gate %.3g)" % (residual, target_tol))
    for kind, path in sorted(artifacts.items()):
        print("wrote %s: %s" % (kind, path))
    if history.get("failure"):
        print("iteration stopped early: %s" % history["failure"]["reason"])
        return EXIT_CONVERGENCE
    return EXIT_OK if residual <= target_tol else EXIT_CONVERGENCE


def cmd_verify(torus_path, problem_path, grid_n):
    _verify_grid(grid_n)
    data = _read_json(torus_path)
    try:
        H = fts.from_json_dict(data["hamiltonian"])
        emb = {k: [fts.from_json_dict(u) for u in us]
               for k, us in data["embedding"].items()}
        omega = np.asarray(data["omega"], dtype=float)
        tau = float(data.get("tau", 0.1))
        phi0 = np.asarray(data["phi0"], dtype=float) if problem_path else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactIOError("torus file %s is malformed: %s"
                              % (torus_path, exc)) from exc
    if len({u.grading for us in emb.values() for u in us}) > 1:
        raise ArtifactIOError("torus file %s is malformed: its embedding "
                              "components have different gradings" % torus_path)
    d, l = H.grading.d, H.grading.l
    shapes = {"embedding": {k: len(us) for k, us in emb.items()},
              "omega": omega.shape}
    want = {"embedding": {"uq": d, "ux": l, "up": d, "uy": l},
            "omega": (d,)}
    if problem_path:
        shapes["phi0"], want["phi0"] = phi0.shape, (l,)
    bad = ["%s is %s, not %s" % (k, shapes[k], want[k])
           for k in want if shapes[k] != want[k]]
    arrays = {"omega": [omega], "phi0": [] if phi0 is None else [phi0],
              "hamiltonian": [H.coef],
              "embedding": [u.coef for us in emb.values() for u in us]}
    bad += ["%s is not finite" % k for k, vs in arrays.items()
            if not all(np.isfinite(v).all() for v in vs)]
    if bad:
        raise ArtifactIOError("torus file %s is malformed: %s"
                              % (torus_path, "; ".join(bad)))
    if problem_path:
        prob = _problem_from(_read_json(problem_path))
        pd, pl = prob["grading"].d, prob["grading"].l
        if (pd, pl) != (d, l):
            raise ArtifactIOError("torus file %s (d = %d, l = %d) does not "
                                  "match problem file %s (d = %d, l = %d)"
                                  % (torus_path, d, l, problem_path, pd, pl))
        H = freeze_phi(prob["H0"], phi0)
        omega = prob["omega"]
    residual = verify_invariance(H, emb, omega, grid_n=grid_n)
    witness = effective_diophantine_constant(omega, tau, H.grading.K_q)
    print("rotation vector: [%s]  (gamma_eff %.6g over |k| <= %d)"
          % (", ".join("%.17g" % v for v in omega), witness.gamma,
             witness.K_checked))
    print("invariance residual on a %d-point grid: %.9g" % (grid_n, residual))
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kamtori",
        description="surviving lower-dimensional invariant tori of a resonant "
                    "torus: reduction, continuation and residual verification")
    sub = parser.add_subparsers(dest="command", required=True)
    p_red = sub.add_parser("reduce", help="reduce an m-dof problem to model form")
    p_red.add_argument("--config", required=True)
    p_run = sub.add_parser("run", help="run the full pipeline")
    p_run.add_argument("--config", required=True)
    p_ver = sub.add_parser("verify", help="re-verify a stored torus")
    p_ver.add_argument("--torus", required=True)
    p_ver.add_argument("--problem", default=None)
    p_ver.add_argument("--grid", type=int, default=64)
    args = parser.parse_args(argv)
    try:
        max_threads()
        if args.command == "reduce":
            cmd_reduce(_read_config(args.config))
            return EXIT_OK
        if args.command == "run":
            return cmd_run(_read_config(args.config))
        if args.command == "verify":
            return cmd_verify(args.torus, args.problem, args.grid)
    except PreconditionError as exc:
        print("precondition failure: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print("convergence failure: %s" % exc, file=sys.stderr)
        return EXIT_CONVERGENCE
    except ArtifactIOError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
