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
import hashlib
import json
import os
import sys

import numpy as np

from . import series as fts
from .engine import (compute_zeta, extract_torus, find_vanishing_point,
                     iterate, verify_invariance)
from .engine.driver import IterateConfig
from .errors import (ArtifactIOError, ConvergenceError, KamtoriError,
                     PreconditionError)
from .normalform import (assemble_hamiltonian, eval_phi_series,
                         initial_tuple, nu_max_profile, phi_grid,
                         phi_grid_size)
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


def max_threads():
    """Parallelism cap from the environment (the solver itself is sequential,
    so any cap >= 1 is honored)."""
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


def _sigma_terms(entries, amplitude=1.0):
    out = []
    for e in entries:
        mode = tuple(int(v) for v in (list(e.get("q_modes", []))
                                      + list(e.get("x_modes", []))))
        powers = tuple(int(v) for v in e.get("action_powers",
                                             [0] * len(mode)))
        c = complex(e.get("re", 0.0), e.get("im", 0.0)) * amplitude
        out.append(SigmaTerm(mode, powers, c))
        if e.get("hermitian", True):
            out.append(SigmaTerm(tuple(-v for v in mode), powers,
                                 c.conjugate()))
    return out


def _truncation(cfg):
    t = cfg.get("truncation", {})
    return {"K_q": int(t.get("K_q", 16)), "K_phi": int(t.get("K_phi", 16)),
            "D": int(t.get("D", 4))}


def _config_sha256(cfg):
    """Digest of what the reduction reads: the problem and the truncation."""
    canon = json.dumps({"problem": cfg["problem"],
                        "truncation": cfg.get("truncation", {})},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def cmd_reduce(cfg, out_path=None):
    with _parsing("config"):
        prob = cfg["problem"]
        m = int(prob["m"])
        resonances = [[float(v) for v in vec] for vec in prob["resonances"]]
        omega0 = np.asarray(prob["omega0"], dtype=float)
        hessian = np.asarray(prob["hessian"], dtype=float)
        tau = float(prob.get("tau", 0.1))
        r, s = (float(v) for v in prob.get("radii", [1.0, 1.0]))
        truncation = _truncation(cfg)
        amplitude = float(prob.get("amplitude", 1.0))
        h_terms = _sigma_terms(prob.get("h_terms", []))
        f_terms = _sigma_terms(prob.get("f_terms", []), amplitude)
    if not (r > 0 and s > 0):
        raise PreconditionError("bad config: radii must be positive, got "
                                "(%g, %g)" % (r, s))
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
        "grading": {"d": grading.d, "l": l, "K_q": grading.K_q,
                    "K_phi": grading.K_phi, "D": grading.D},
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


def _load_reduced(path):
    return _problem_from(_read_json(path))


def _problem_from(data):
    with _parsing("reduced problem"):
        gd = data["grading"]
        grading = Grading(gd["d"], gd["l"], gd["K_q"], gd["K_phi"], gd["D"])
        r0, s0 = data["radii"]
        h0 = fts.from_json_dict(data["h0"])
        f0 = fts.from_json_dict(data["f0"])
        return {
            "grading": grading, "r0": r0, "s0": s0,
            "omega": np.asarray(data["omega"], dtype=float),
            "M0": np.asarray(data["M0"], dtype=float),
            "frame": np.asarray(data["frame"], dtype=float),
            "tau": data["tau"],
            "h0": h0.with_radii(r0, s0),
            "f0": f0.with_radii(r0, s0),
        }


def _zeta_rows(zv, alpha, beta, grading):
    """zeta.csv's rows on the phi0 search's grid, given its zeta values zv."""
    grid = phi_grid(grading.l, phi_grid_size(grading.K_phi))
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
    outputs = cfg.get("outputs", {})
    reduced_path = outputs.get("reduced_path", "reduced.json")
    data = _read_json(reduced_path) if os.path.exists(reduced_path) else None
    if data is None or data.get("config_sha256") != _config_sha256(cfg):
        cmd_reduce(cfg, reduced_path)
        data = _read_json(reduced_path)
    prob = _problem_from(data)
    grading = prob["grading"]
    with _parsing("schedule"):
        sched_cfg = cfg.get("schedule", {})
        target_tol = float(sched_cfg.get("target_tol", 1e-12))
        it_cfg = IterateConfig(
            tau=prob["tau"], n_max=int(sched_cfg.get("n_max", 8)),
            target_tol=min(target_tol, 1e-12),
            lambda_cfg=float(sched_cfg.get("lambda_cfg", 0.1)),
            frame=prob["frame"])
    default_grid = 64 if grading.d == 1 else 24
    with _parsing("outputs"):
        grid_n = _verify_grid(int(outputs.get("verify_grid", default_grid)))
    N0 = initial_tuple(grading, prob["r0"], prob["s0"], prob["omega"],
                       prob["M0"], h=prob["h0"])
    state, history = iterate(N0, prob["f0"], it_cfg)
    H0 = assemble_hamiltonian(N0) + prob["f0"]
    zeta = compute_zeta(state, H0)
    phi0, info = find_vanishing_point(zeta, state.alpha, state.N.beta)
    torus = extract_torus(state, phi0)
    Hbar = freeze_phi(H0, phi0)
    residual = verify_invariance(Hbar, torus.embedding, prob["omega"],
                                 grid_n=grid_n)
    artifacts = {}
    hist_path = outputs.get("history_path", "history.json")
    # the rung's norms, what the truncated ring dropped and kept, the
    # solve's diagnostics and the postconditions it missed
    hist_out = [{k: _jsonable(v) for k, v in {**row.get("measures", {}),
                                               **row}.items()
                 if k in HISTORY_FIELDS}
                for row in history["steps"]]
    _write_json(hist_path, hist_out)
    artifacts["history"] = hist_path
    csv_path = outputs.get("zeta_csv_path", "zeta.csv")
    _write_zeta_csv(csv_path, _zeta_rows(info["zeta_values"], state.alpha,
                                         state.N.beta, grading), grading.l)
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
        "hamiltonian": fts.to_json_dict(Hbar),
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactIOError("torus file %s is malformed: %s"
                              % (torus_path, exc)) from exc
    if len({u.grading for us in emb.values() for u in us}) > 1:
        raise ArtifactIOError("torus file %s is malformed: its embedding "
                              "components have different gradings" % torus_path)
    if problem_path:
        prob = _load_reduced(problem_path)
        H0 = assemble_hamiltonian(initial_tuple(
            prob["grading"], prob["r0"], prob["s0"], prob["omega"],
            prob["M0"], h=prob["h0"])) + prob["f0"]
        H = freeze_phi(H0, np.asarray(data["phi0"], dtype=float))
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
            cmd_reduce(_read_json(args.config))
            return EXIT_OK
        if args.command == "run":
            return cmd_run(_read_json(args.config))
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
