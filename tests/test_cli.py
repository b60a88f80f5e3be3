import importlib
import inspect
import json
import os
import pkgutil

import numpy as np
import pytest

import kamtori
import kamtori.cli as cli
import kamtori.engine.driver as driver
import kamtori.engine.torus as engine_torus
from kamtori.cli import (EXIT_CONVERGENCE, EXIT_IO, EXIT_OK,
                         EXIT_PRECONDITION, main)
from kamtori.engine.cohom import CohomologyError
from kamtori.errors import (ArtifactIOError, ConvergenceError, KamtoriError,
                            PreconditionError)
from kamtori.normalform import BumpProjectionError
from kamtori.series import FTSeries, GradingError, RealityError
from kamtori.smalldiv import ResonanceError, SolverPreconditionError
from kamtori.symplectic import (GeneratorTooLargeError, ReductionError,
                                SymplecticityError, unimodular_completion)
from conftest import GOLDEN

# the named failure classes, StepFailure, and the exit-4 base itself
NAMED_FAILURES = [GradingError, RealityError, ReductionError, CohomologyError,
                  SolverPreconditionError, ResonanceError, BumpProjectionError,
                  GeneratorTooLargeError, SymplecticityError,
                  driver.StepFailure, ArtifactIOError]


def flagship_config(tmp_path, eps=1e-4, target_tol=1e-8, K=16, D=4,
                    extra_f=None):
    f_terms = [{"q_modes": [0], "x_modes": [1], "action_powers": [0, 0],
                "re": 0.5 * eps}]
    if extra_f:
        f_terms += extra_f
    cfg = {
        "problem": {
            "m": 2, "resonances": [[0, 1]],
            "omega0": [GOLDEN, 0.0],
            "hessian": [[-1.0, 0.0], [0.0, 1.0]],
            "h_terms": [],
            "f_terms": f_terms,
            "radii": [2.0, 2.0],
            "tau": 0.1,
        },
        "truncation": {"K_q": K, "K_phi": K, "D": D},
        "schedule": {"n_max": 8, "target_tol": target_tol},
        "outputs": {
            "reduced_path": str(tmp_path / "reduced.json"),
            "history_path": str(tmp_path / "history.json"),
            "zeta_csv_path": str(tmp_path / "zeta.csv"),
            "torus_path": str(tmp_path / "torus.json"),
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path, cfg


class TestReduce:
    def test_model_passthrough(self, tmp_path, capsys):
        path, cfg = flagship_config(tmp_path)
        assert main(["reduce", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        reduced = json.loads((tmp_path / "reduced.json").read_text())
        assert reduced["M0"] == [[-1.0]]
        assert reduced["omega"][0] == pytest.approx(GOLDEN)

    def test_sign_rejection_exits_2(self, tmp_path, capsys):
        path, cfg = flagship_config(tmp_path)
        cfg["problem"]["hessian"] = [[-1.0, 0.0], [0.0, -1.0]]
        path.write_text(json.dumps(cfg))
        assert main(["reduce", "--config", str(path)]) == EXIT_PRECONDITION
        assert "(iii)" in capsys.readouterr().err

    def test_dependent_resonances_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dep.json"
        path.write_text(json.dumps({
            "problem": {"m": 3, "resonances": [[1, 1, -1], [2, 2, -2]],
                        "omega0": [1.0, GOLDEN, 1.0 + GOLDEN],
                        "hessian": np.diag([-1.0, 1.0, 1.0]).tolist()},
            "truncation": {"K_q": 3, "K_phi": 3, "D": 4},
            "outputs": {"reduced_path": str(tmp_path / "red.json")}}))
        assert main(["reduce", "--config", str(path)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("precondition failure: ")
        assert "linearly dependent" in err
        assert not (tmp_path / "red.json").exists()

    def test_three_dof_single_resonance(self, tmp_path):
        a, b = 1.0, GOLDEN
        cfg = {
            "problem": {
                "m": 3, "resonances": [[1, 1, -1]],
                "omega0": [a, b, a + b],
                "hessian": np.diag([-1.0, -1.0, 1.0]).tolist(),
                "h_terms": [], "f_terms": [
                    {"q_modes": [1, 0], "x_modes": [0], "re": 1e-6}],
                "radii": [1.0, 1.0], "tau": 0.1,
            },
            "truncation": {"K_q": 4, "K_phi": 4, "D": 4},
            "schedule": {"target_tol": 1e-6},
            "outputs": {"reduced_path": str(tmp_path / "red3.json")},
        }
        # hessian must be expressed in the original frame: undo the K-change
        from kamtori.symplectic import unimodular_completion
        red = unimodular_completion([(1, 1, -1)])
        K = np.array(red.K, dtype=float)
        blocked = np.diag([-1.0, -2.0, 1.5])
        Kinv = np.linalg.inv(K)
        cfg["problem"]["hessian"] = (Kinv @ blocked @ Kinv.T).tolist()
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(cfg))
        assert main(["reduce", "--config", str(path)]) == EXIT_OK
        reduced = json.loads((tmp_path / "red3.json").read_text())
        assert reduced["d"] == 2 and reduced["l"] == 1
        w = np.array(red.K) @ np.array([a, b, a + b])
        assert abs(w[2]) < 1e-12


class TestRun:
    def test_flagship_success(self, tmp_path, capsys):
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "invariance residual" in out
        hist = json.loads((tmp_path / "history.json").read_text())
        assert hist[0]["n"] == 1
        # each rung reports what the truncated ring dropped and kept
        for row in hist:
            for key in ("f_plus_trunc_loss", "phi_trunc_loss",
                        "psi_remainder", "phi_remainder"):
                assert np.isfinite(row[key]) and row[key] >= 0.0
            for key in ("f_plus_terms", "phi_terms"):
                assert isinstance(row[key], int) and row[key] >= 0
            assert all(isinstance(o, int) and 0 <= o <= 13
                       for o in row["lie_orders"])
            assert row["contraction_exponent"] is None \
                or np.isfinite(row["contraction_exponent"])
        torus = json.loads((tmp_path / "torus.json").read_text())
        assert torus["residual"] <= 1e-8

    def test_profile_emitted(self, flagship_artifacts):
        csv = (flagship_artifacts[1].parent / "zeta.csv").read_text() \
            .splitlines()
        assert csv[0] == "phi1,zeta,alpha_norm,nu_max_beta"
        assert len(csv) == 1 + 65
        rows = np.array([[float(v) for v in ln.split(",")] for ln in csv[1:]])
        # zeta is the averaged perturbation profile eps*cos(phi)
        assert np.max(np.abs(rows[:, 1] - 1e-4 * np.cos(rows[:, 0]))) < 1e-12

    def test_zero_amplitude_trivial(self, tmp_path):
        path, cfg = flagship_config(tmp_path, eps=0.0)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        torus = json.loads((tmp_path / "torus.json").read_text())
        assert torus["residual"] == 0.0
        assert torus["distance_to_trivial"] == 0.0

    def test_oversized_perturbation_fails_with_report(self, tmp_path, capsys):
        path, cfg = flagship_config(tmp_path, eps=0.5, K=6)
        cfg["problem"]["f_terms"].append(
            {"q_modes": [1], "x_modes": [1], "re": 0.25})
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(path)])
        assert rc == EXIT_CONVERGENCE
        out = capsys.readouterr()
        assert "stopped early" in out.out or "failure" in out.err

    def test_history_reports_symp_residual(self, flagship_artifacts):
        hist = json.loads(
            (flagship_artifacts[1].parent / "history.json").read_text())
        assert hist
        for row in hist:
            assert np.isfinite(row["symp_residual"])
            assert 0.0 <= row["symp_residual"] <= 1e-8

    def test_history_reports_solve_diagnostics(self, flagship_artifacts):
        hist = json.loads(
            (flagship_artifacts[1].parent / "history.json").read_text())
        assert hist
        for row in hist:
            for key in ("cohom_condition", "cohom_obstruction",
                        "cohom_projection_defect", "cohom_residual_plateau",
                        "cohom_residual_budget", "tuple_drift"):
                assert np.isfinite(row[key]) and row[key] >= 0.0, key
            # every rung solves on the whole q-ball (flagship_config's K_q)
            assert row["K_eff"] == 16
            assert row["step_ok"] is True
            assert row["postcondition_misses"] == []

    def test_missed_postcondition_named(self, tmp_path, monkeypatch, capsys):
        # a plateau residual over its budget: the printed reason and the
        # rung's history row name the measure, its value and its bound
        real = driver.solve_cohomological

        def off_plateau(*args, **kwargs):
            sol = real(*args, **kwargs)
            sol.residual_plateau = 0.125
            return sol
        monkeypatch.setattr(driver, "solve_cohomological", off_plateau)
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_CONVERGENCE
        out = capsys.readouterr().out
        row = json.loads((tmp_path / "history.json").read_text())[-1]
        miss = ("cohom_residual_ok: plateau 0.125 > budget %.3g"
                % row["cohom_residual_budget"])
        assert "postcondition targets missed: " + miss in out
        assert row["postcondition_misses"] == [miss]
        assert row["step_ok"] is False and np.isfinite(row["f_norm"])

    def test_unschedulable_perturbation_exits_3(self, tmp_path, capsys):
        # at tau = 2 the glue level of rung 0 is not below its threshold
        path, cfg = flagship_config(tmp_path)
        cfg["problem"]["tau"] = 2.0
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "perturbation too large to schedule" in err
        assert "glue level delta_plus" in err

    def test_early_stop_writes_profile_and_exits_3(self, tmp_path,
                                                   monkeypatch, capsys):
        real = cli.iterate

        def stopped(N0, f0, config=None):
            state, history = real(N0, f0, config)
            history["failure"] = {"n": state.n, "reason": "tuple drift",
                                  "measures": {}}
            return state, history
        monkeypatch.setattr(cli, "iterate", stopped)
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_CONVERGENCE
        assert (tmp_path / "zeta.csv").read_text().startswith(
            "phi1,zeta,alpha_norm,nu_max_beta")
        assert "iteration stopped early: tuple drift" in capsys.readouterr().out

    def test_embedding_reality_loss_exits_3(self, tmp_path, monkeypatch,
                                            capsys):
        # an unmatched angle mode in the map's q-displacement: the extracted
        # embedding is not real, a check of the result that broke down
        real = engine_torus.extract_torus

        def unmatched(state, phi0):
            u = state.Phi.U[0]
            state.Phi.U[0] = u + FTSeries.term(u.grading, u.r, u.s, (0,),
                                               (1,), (0,) * u.grading.nz,
                                               1e-3)
            return real(state, phi0)
        monkeypatch.setattr(engine_torus, "extract_torus", unmatched)
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith(
            "convergence failure: embedding component lost reality symmetry")

    def test_determinism_byte_identical(self, tmp_path):
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        first = {name: (tmp_path / name).read_bytes()
                 for name in ["history.json", "zeta.csv", "torus.json"]}
        os.remove(tmp_path / "reduced.json")
        assert main(["run", "--config", str(path)]) == EXIT_OK
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_conjugacy_check_error_exits_3(self, tmp_path, monkeypatch,
                                           capsys):
        def too_large(*args):
            raise GeneratorTooLargeError("angle displacement too large")
        monkeypatch.setattr(driver, "conjugacy_residual", too_large)
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_CONVERGENCE
        assert "conjugacy check failed" in capsys.readouterr().out


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)
    return calls


class TestReducedCache:
    def test_unchanged_config_reuses_reduced(self, tmp_path, monkeypatch):
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        blob = (tmp_path / "reduced.json").read_bytes()
        reduces = _count_calls(monkeypatch, cli, "cmd_reduce")
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert reduces == []
        assert (tmp_path / "reduced.json").read_bytes() == blob
        # a file without the digest cannot be matched to a config
        stale = json.loads(blob)
        del stale["config_sha256"]
        (tmp_path / "reduced.json").write_text(json.dumps(stale))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert len(reduces) == 1
        assert (tmp_path / "reduced.json").read_bytes() == blob

    def test_changed_amplitude_reduces_again(self, tmp_path):
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        first = (tmp_path / "torus.json").read_bytes()
        cfg["problem"]["f_terms"][0]["re"] *= 2.0
        path.write_text(json.dumps(cfg, indent=1))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "torus.json").read_bytes() != first


class TestVerify:
    def test_round_trip_matches_run(self, tmp_path, capsys):
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        run_out = capsys.readouterr().out
        rc = main(["verify", "--torus", str(tmp_path / "torus.json"),
                   "--problem", str(tmp_path / "reduced.json"),
                   "--grid", "64"])
        assert rc == EXIT_OK
        ver_out = capsys.readouterr().out
        run_resid = json.loads((tmp_path / "torus.json").read_text())["residual"]
        line = [ln for ln in ver_out.splitlines() if "residual" in ln][0]
        assert float(line.split(":")[1]) == pytest.approx(run_resid, abs=1e-12)

    def test_problem_grading_with_unknown_key_exits_2(
            self, tmp_path, capsys, flagship_artifacts):
        # a grading crosses JSON as its fields, and only those
        reduced = flagship_artifacts[1]
        data = json.loads(reduced.read_text())
        data["grading"]["K"] = 3
        (tmp_path / "reduced.json").write_text(json.dumps(data))
        assert main(["verify", "--torus", str(reduced.parent / "torus.json"),
                     "--problem", str(tmp_path / "reduced.json")]) \
            == EXIT_PRECONDITION
        assert "bad reduced problem: TypeError" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path):
        assert main(["verify", "--torus", str(tmp_path / "absent.json"),
                     "--grid", "8"]) == EXIT_IO

    def test_mixed_grading_embedding_exits_4(self, tmp_path, capsys,
                                             flagship_artifacts):
        # one embedding component in a larger grading than the others: the
        # file no longer describes one embedding, and verify refuses it
        data = json.loads(json.dumps(flagship_artifacts[0]))
        comps = [u for us in data["embedding"].values() for u in us]
        assert len({json.dumps(u["grading"]) for u in comps}) == 1
        comps[-1]["grading"]["K_q"] += 1
        bad = tmp_path / "mixed_torus.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--torus", str(bad), "--grid", "8"]) == EXIT_IO
        assert "different gradings" in capsys.readouterr().err

    def test_corrupted_embedding_exits_4(self, tmp_path):
        bad = tmp_path / "bad_torus.json"
        bad.write_text(json.dumps({"phi0": [0.0], "omega": [1.0]}))
        assert main(["verify", "--torus", str(bad), "--grid", "8"]) == EXIT_IO


@pytest.fixture(scope="module")
def flagship_artifacts(tmp_path_factory):
    """The torus.json and reduced.json of one flagship run."""
    tmp_path = tmp_path_factory.mktemp("flagship")
    path, cfg = flagship_config(tmp_path)
    assert main(["run", "--config", str(path)]) == EXIT_OK
    return (json.loads((tmp_path / "torus.json").read_text()),
            tmp_path / "reduced.json")


class TestMalformedTorus:
    """A torus.json whose parts do not fit together exits 4 with the file
    named as malformed, with or without --problem."""

    @pytest.mark.parametrize("edit, problem", [
        (lambda t: t.pop("phi0"), True),
        (lambda t: t.update(phi0=["zero"]), True),
        (lambda t: t.update(phi0=[0.0, 1.0]), True),
        (lambda t: t.update(phi0=[float("nan")]), True),
        (lambda t: t.update(embedding=[]), False),
        (lambda t: t["embedding"].pop("uq"), False),
        (lambda t: t["embedding"].pop("uy"), True),
        (lambda t: t["embedding"]["ux"].append(t["embedding"]["ux"][0]),
         False),
        (lambda t: t.update(omega=[1.0, 2.0]), False),
        (lambda t: t.update(omega=[float("inf")]), False),
        (lambda t: t["hamiltonian"]["terms"][-1].update(re=float("nan")),
         False),
        (lambda t: t["embedding"]["up"][0]["terms"].append(
            {"alpha": [0, 0, 0], "j": [0], "k": [1], "re": float("inf"),
             "im": 0.0}), True),
        (lambda t: t["hamiltonian"]["grading"].update(K=3), False)],
        ids=["no-phi0", "phi0-not-numeric", "phi0-too-long", "phi0-nan",
             "embedding-not-object", "no-uq", "no-uy", "ux-too-long",
             "omega-too-long", "omega-inf", "hamiltonian-nan",
             "embedding-inf", "grading-unknown-key"])
    def test_exits_4(self, tmp_path, capsys, flagship_artifacts, edit,
                     problem):
        torus, reduced = flagship_artifacts
        torus = json.loads(json.dumps(torus))
        edit(torus)
        bad = tmp_path / "torus.json"
        bad.write_text(json.dumps(torus))
        argv = ["verify", "--torus", str(bad), "--grid", "8"]
        if problem:
            argv += ["--problem", str(reduced)]
        assert main(argv) == EXIT_IO
        assert "torus file %s is malformed" % bad in capsys.readouterr().err


class TestFailureExitCodes:
    def test_bug_propagates_as_a_traceback(self, tmp_path, monkeypatch):
        # a numpy shape error is a ValueError, and no precondition failure
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")
        monkeypatch.setattr(cli, "iterate", broken)
        path, cfg = flagship_config(tmp_path)
        with pytest.raises(ValueError, match="broadcast"):
            main(["run", "--config", str(path)])

    @pytest.mark.parametrize("cls", NAMED_FAILURES, ids=lambda c: c.__name__)
    def test_named_failure_exits_by_base(self, tmp_path, monkeypatch, capsys,
                                         cls):
        def failing(*args, **kwargs):
            raise cls("named failure raised by the iteration")
        monkeypatch.setattr(cli, "iterate", failing)
        path, cfg = flagship_config(tmp_path)
        want = {PreconditionError: EXIT_PRECONDITION,
                ConvergenceError: EXIT_CONVERGENCE,
                ArtifactIOError: EXIT_IO}
        base, = [b for b in want if issubclass(cls, b)]
        assert main(["run", "--config", str(path)]) == want[base]
        assert "named failure raised by the iteration" in \
            capsys.readouterr().err

    def test_every_failure_class_has_one_base(self):
        bases = (PreconditionError, ConvergenceError, ArtifactIOError)
        found = []
        for info in pkgutil.walk_packages(kamtori.__path__, "kamtori."):
            mod = importlib.import_module(info.name)
            for _, cls in inspect.getmembers(mod, inspect.isclass):
                if cls.__module__ == mod.__name__ \
                        and issubclass(cls, BaseException) \
                        and cls not in bases + (KamtoriError,):
                    found.append(cls)
                    assert sum(issubclass(cls, b) for b in bases) == 1, cls
        assert set(NAMED_FAILURES) - set(bases) <= set(found)

    def test_bug_in_the_reduction_propagates(self, tmp_path, monkeypatch):
        # only reading the config is a precondition check; a bare ValueError
        # from the reduction it feeds is a bug
        def broken(resonances):
            raise ValueError("index out of range")
        monkeypatch.setattr(cli, "unimodular_completion", broken)
        path, cfg = flagship_config(tmp_path)
        with pytest.raises(ValueError, match="index out of range"):
            main(["reduce", "--config", str(path)])

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg["problem"].pop("m"),
        lambda cfg: cfg["problem"].update(m="three"),
        lambda cfg: cfg["problem"].update(resonances=[[0, 0]]),
        lambda cfg: cfg["problem"].update(resonances=[[0, 1.5]]),
        lambda cfg: cfg["problem"].update(resonances=[]),
        lambda cfg: cfg["problem"].update(resonances=[[0, 1, 0]]),
        lambda cfg: cfg["problem"].update(omega0=[GOLDEN]),
        lambda cfg: cfg["problem"]["f_terms"][0].update(q_modes=[0, 1]),
        lambda cfg: cfg.update(truncation={"K_q": 0}),
        lambda cfg: cfg.update(schedule={"n_max": None}),
        lambda cfg: cfg["problem"].update(f_terms=5),
        lambda cfg: cfg["problem"].update(h_terms={"re": 1.0}),
        lambda cfg: cfg.update(schedule=[]),
        lambda cfg: cfg["schedule"].update(n_max=0),
        lambda cfg: cfg["problem"].update(radii=[0.0, 1.0]),
        lambda cfg: cfg["problem"].update(radii=[1.0, -2.0]),
        lambda cfg: cfg["problem"].update(radii=[float("nan"), 1.0])])
    def test_bad_config_exits_2(self, tmp_path, capsys, edit):
        path, cfg = flagship_config(tmp_path)
        edit(cfg)
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_PRECONDITION
        assert "precondition failure" in capsys.readouterr().err


def _refuse_work(monkeypatch):
    """Make the reduction and the iteration fail the test if they run."""
    def never(*args, **kwargs):
        raise AssertionError("work ran on a config it must refuse")
    monkeypatch.setattr(cli, "unimodular_completion", never)
    monkeypatch.setattr(cli, "iterate", never)


class TestConfigChecks:
    @pytest.mark.parametrize("edit, name", [
        (lambda p: p.update(amplitude=float("inf")), "amplitude"),
        (lambda p: p.update(amplitude=float("nan")), "amplitude"),
        (lambda p: p["hessian"][1].__setitem__(1, float("nan")), "hessian"),
        (lambda p: p["omega0"].__setitem__(0, float("nan")), "omega0"),
        (lambda p: p.update(tau=float("inf")), "tau"),
        (lambda p: p.update(radii=[float("inf"), 1.0]), "radii"),
        (lambda p: p.update(resonances=[[0, float("nan")]]), "resonances"),
        (lambda p: p["f_terms"][0].update(re=float("nan")), "f_terms"),
        (lambda p: p["f_terms"][0].update(im=float("-inf")), "f_terms"),
        (lambda p: p.update(h_terms=[{"q_modes": [0], "x_modes": [3],
                                      "re": float("inf")}]), "h_terms")],
        ids=["amplitude-inf", "amplitude-nan", "hessian-nan", "omega0-nan",
             "tau-inf", "radii-inf", "resonance-nan", "f-re-nan", "f-im-inf",
             "h-re-inf"])
    def test_non_finite_problem_data_exits_2(self, tmp_path, capsys, edit,
                                             name):
        path, cfg = flagship_config(tmp_path)
        edit(cfg["problem"])
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_PRECONDITION
        assert "problem.%s must be finite" % name in capsys.readouterr().err
        assert not (tmp_path / "reduced.json").exists()

    @pytest.mark.parametrize("edit, key", [
        (lambda cfg: cfg["schedule"].update(taget_tol=1e-12),
         "schedule.taget_tol"),
        (lambda cfg: cfg["schedule"].update(lambda_cfg=0.1),
         "schedule.lambda_cfg"),
        (lambda cfg: cfg.update(shedule={}), "config.shedule"),
        (lambda cfg: cfg["problem"].update(omega=[1.0]), "problem.omega"),
        (lambda cfg: cfg["problem"]["f_terms"][0].update(amp=1.0),
         "problem.f_terms[0].amp"),
        (lambda cfg: cfg["truncation"].update(K=4), "truncation.K"),
        (lambda cfg: cfg["outputs"].update(zeta_path="z.csv"),
         "outputs.zeta_path")])
    @pytest.mark.parametrize("command", ["reduce", "run"])
    def test_unknown_key_exits_2(self, tmp_path, monkeypatch, capsys, edit,
                                 key, command):
        _refuse_work(monkeypatch)
        path, cfg = flagship_config(tmp_path)
        edit(cfg)
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == EXIT_PRECONDITION
        assert "unknown key %s" % key in capsys.readouterr().err

    @pytest.mark.parametrize("target_tol", [-1.0, 0.0, float("nan")])
    def test_target_tol_not_above_zero_exits_2(self, tmp_path, monkeypatch,
                                               capsys, target_tol):
        _refuse_work(monkeypatch)
        path, cfg = flagship_config(tmp_path, target_tol=target_tol)
        assert main(["run", "--config", str(path)]) == EXIT_PRECONDITION
        assert "schedule.target_tol must be above 0" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("edit, field", [
        (lambda cfg: cfg["problem"]["f_terms"][0].update(x_modes="1"),
         "problem.f_terms[0].x_modes"),
        (lambda cfg: cfg["problem"]["f_terms"][0].update(q_modes=[1.7]),
         "problem.f_terms[0].q_modes"),
        (lambda cfg: cfg["problem"]["f_terms"][0].update(
            action_powers=[True, 0]), "problem.f_terms[0].action_powers"),
        (lambda cfg: cfg["problem"].update(h_terms=[
            {"q_modes": ["1"], "x_modes": [0]}]), "problem.h_terms[0].q_modes"),
        (lambda cfg: cfg["truncation"].update(K_q=3.9), "truncation.K_q"),
        (lambda cfg: cfg["truncation"].update(K_q="3"), "truncation.K_q"),
        (lambda cfg: cfg["truncation"].update(K_phi=False),
         "truncation.K_phi"),
        (lambda cfg: cfg["truncation"].update(D=4.5), "truncation.D"),
        (lambda cfg: cfg["problem"].update(m="2"), "problem.m")],
        ids=["x_modes-string", "q_modes-fraction", "action_powers-bool",
             "h_terms-string", "K_q-fraction", "K_q-string", "K_phi-bool",
             "D-fraction", "m-string"])
    def test_non_integer_reduce_field_exits_2(self, tmp_path, monkeypatch,
                                              capsys, edit, field):
        _refuse_work(monkeypatch)
        path, cfg = flagship_config(tmp_path)
        edit(cfg)
        path.write_text(json.dumps(cfg))
        assert main(["reduce", "--config", str(path)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "bad config: %s must be " % field in err and "integer" in err
        assert not (tmp_path / "reduced.json").exists()

    @pytest.mark.parametrize("command, edit, field, got", [
        ("reduce", lambda cfg: cfg["problem"].update(tau=True),
         "problem.tau", "true"),
        ("reduce", lambda cfg: cfg["problem"].update(tau="0.1"),
         "problem.tau", '"0.1"'),
        ("reduce", lambda cfg: cfg["problem"].update(amplitude=True),
         "problem.amplitude", "true"),
        ("reduce", lambda cfg: cfg["problem"].update(radii=[True, True]),
         "problem.radii", "true"),
        ("reduce", lambda cfg: cfg["problem"].update(omega0=[GOLDEN, "0"]),
         "problem.omega0", '"0"'),
        ("reduce", lambda cfg: cfg["problem"]["hessian"][1].__setitem__(
            1, "1.0"), "problem.hessian", '"1.0"'),
        ("reduce", lambda cfg: cfg["problem"]["f_terms"][0].update(re="1e-5"),
         "problem.f_terms[0].re", '"1e-5"'),
        ("reduce", lambda cfg: cfg["problem"]["f_terms"][0].update(im=False),
         "problem.f_terms[0].im", "false"),
        ("run", lambda cfg: cfg["schedule"].update(target_tol="1e-8"),
         "schedule.target_tol", '"1e-8"')],
        ids=["tau-bool", "tau-string", "amplitude-bool", "radii-bool",
             "omega0-string", "hessian-string", "re-string", "im-bool",
             "target_tol-string"])
    def test_non_number_real_field_exits_2(self, tmp_path, monkeypatch,
                                           capsys, command, edit, field, got):
        _refuse_work(monkeypatch)
        path, cfg = flagship_config(tmp_path)
        edit(cfg)
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == EXIT_PRECONDITION
        assert "bad config: %s must be a number, got %s\n" % (field, got) \
            in capsys.readouterr().err
        assert not (tmp_path / "reduced.json").exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda cfg: cfg["schedule"].update(n_max=8.5), "schedule.n_max"),
        (lambda cfg: cfg["schedule"].update(n_max="8"), "schedule.n_max"),
        (lambda cfg: cfg["outputs"].update(verify_grid="64"),
         "outputs.verify_grid"),
        (lambda cfg: cfg["outputs"].update(verify_grid=63.5),
         "outputs.verify_grid")],
        ids=["n_max-fraction", "n_max-string", "verify_grid-string",
             "verify_grid-fraction"])
    def test_non_integer_run_field_exits_2(self, tmp_path, monkeypatch,
                                           capsys, edit, field):
        monkeypatch.setattr(cli, "iterate", lambda *a, **k: pytest.fail(
            "iterated on a config it must refuse"))
        path, cfg = flagship_config(tmp_path)
        edit(cfg)
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_PRECONDITION
        assert "bad config: %s must be an integer" % field in \
            capsys.readouterr().err

    def test_integral_floats_read_as_integers(self, tmp_path):
        # 16.0 is the integer 16: the grading matches the plain config's
        path, cfg = flagship_config(tmp_path)
        assert main(["reduce", "--config", str(path)]) == EXIT_OK
        plain = json.loads((tmp_path / "reduced.json").read_text())
        cfg["truncation"] = {"K_q": 16.0, "K_phi": 16.0, "D": 4.0}
        path.write_text(json.dumps(cfg))
        assert main(["reduce", "--config", str(path)]) == EXIT_OK
        floats = json.loads((tmp_path / "reduced.json").read_text())
        assert floats["grading"] == plain["grading"]
        assert floats["f0"] == plain["f0"]

    def test_config_with_every_accepted_key_runs(self, tmp_path):
        # the flagship config with every optional key set to its default
        path, cfg = flagship_config(tmp_path)
        cfg["problem"].update(amplitude=1.0)
        cfg["problem"]["f_terms"][0].update(im=0.0, hermitian=True)
        cfg["outputs"].update(verify_grid=64)
        sections = dict(cfg, config=cfg, term=cfg["problem"]["f_terms"][0])
        for kind, keys in cli.CONFIG_KEYS.items():
            assert set(sections[kind]) == keys, kind
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_OK


class TestVerifyGrid:
    def test_run_verify_grid_below_one_exits_2_before_iterating(
            self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("iterate ran on a config it must refuse")
        monkeypatch.setattr(cli, "iterate", never)
        path, cfg = flagship_config(tmp_path)
        cfg["outputs"]["verify_grid"] = 0
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "precondition failure" in err and "verify grid" in err

    def test_verify_grid_below_one_exits_2(self, tmp_path, capsys):
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "--torus", str(tmp_path / "torus.json"),
                     "--grid", "0"]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "precondition failure" in err and "verify grid" in err


class TestThreadCap:
    def test_non_integer_cap_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KAM_THREADS", "two")
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_PRECONDITION

    def test_env_var_parsed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KAM_THREADS", "2")
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_OK

    def test_invalid_cap_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KAM_THREADS", "0")
        path, cfg = flagship_config(tmp_path)
        assert main(["run", "--config", str(path)]) == EXIT_PRECONDITION


@pytest.fixture(scope="module")
def two_angle_run(tmp_path_factory):
    """Three degrees of freedom, one resonance, so two surviving angles: the
    directory of its whole pipeline through the CLI, and run's exit code."""
    tmp_path = tmp_path_factory.mktemp("two_angle")
    red = unimodular_completion([(1, 1, -1)])
    K = np.array(red.K, dtype=float)
    blocked = np.diag([-1.0, -1.5, 1.2])
    Kinv = np.linalg.inv(K)
    kA = [int(v) for v in (K.T @ np.array([1, 0, 1]))]
    cfg = {
        "problem": {
            "m": 3, "resonances": [[1, 1, -1]],
            "omega0": [1.0, GOLDEN, 1.0 + GOLDEN],
            "hessian": (Kinv @ blocked @ Kinv.T).tolist(),
            "h_terms": [],
            "f_terms": [{"q_modes": kA[:2], "x_modes": kA[2:],
                         "re": 0.5e-5}],
            "radii": [1.0, 1.0], "tau": 0.1,
        },
        "truncation": {"K_q": 3, "K_phi": 3, "D": 4},
        "schedule": {"target_tol": 1e-6},
        "outputs": {
            "reduced_path": str(tmp_path / "red.json"),
            "history_path": str(tmp_path / "hist.json"),
            "zeta_csv_path": str(tmp_path / "zeta.csv"),
            "torus_path": str(tmp_path / "torus.json"),
            "verify_grid": 16,
        },
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return tmp_path, main(["run", "--config", str(path)])


class TestTwoAngleRun:
    def test_full_pipeline_after_reduction(self, two_angle_run):
        tmp_path, code = two_angle_run
        assert code == EXIT_OK
        torus = json.loads((tmp_path / "torus.json").read_text())
        assert torus["residual"] <= 1e-6
        assert main(["verify", "--torus", str(tmp_path / "torus.json"),
                     "--grid", "12"]) == EXIT_OK


class TestVerifyDimensionMismatch:
    """verify refuses a torus and a reduced problem of different d or l,
    in either direction, naming both files and both dimensions."""

    @pytest.mark.parametrize("torus_d, problem_d", [(1, 2), (2, 1)])
    def test_exits_4(self, capsys, flagship_artifacts, two_angle_run,
                     torus_d, problem_d):
        dirs = {1: flagship_artifacts[1].parent, 2: two_angle_run[0]}
        torus = dirs[torus_d] / "torus.json"
        problem = {1: flagship_artifacts[1], 2: dirs[2] / "red.json"}[problem_d]
        capsys.readouterr()
        assert main(["verify", "--torus", str(torus), "--problem",
                     str(problem), "--grid", "8"]) == EXIT_IO
        assert capsys.readouterr().err == (
            "I/O error: torus file %s (d = %d, l = 1) does not match problem "
            "file %s (d = %d, l = 1)\n" % (torus, torus_d, problem, problem_d))
