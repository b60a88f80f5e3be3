"""Each linear combination of series is one ft_sum merge, byte for byte the
left fold of `+` that tests/sum_oracle.py writes out.

The grid solve's residual combination (combo) and linear generator are
checked on every grid solve of l2-cohom, l2-cohom-varying and coupled-1p1
(both of its rungs), and the reduction on the terms that the
workloads of bench/workloads.py reduce: coupled-1p1 at both amplitudes and
l2-cohom through shifted_parametrization, threedof-cli at seed 101 (its h0
and f0) through `kamtori reduce`.  Each compares the slot arrays, the
coefficient bytes and trunc_loss (output_digest.series_parts).  Unlike
tests/data/output_digest.json these hold on every numpy build and CPU.
"""

import json

import numpy as np
import pytest

import kamtori.symplectic as symplectic
import sum_oracle
from kamtori import cli
from kamtori.engine import cohom
from output_digest import series_parts, workloads
from test_tracker_row import PROBLEMS


@pytest.mark.parametrize("problem", PROBLEMS)
def test_grid_solve_combinations_match_the_folds(problem, monkeypatch):
    # per grid solve: the channels and alpha (_linear_stage), the channels'
    # generators and the mean of B_y (_counter_terms), then the combo and
    # linear generator that _quadratic_stage is handed
    solves = []
    linear, counter, quadratic = (cohom._linear_stage, cohom._counter_terms,
                                  cohom._quadratic_stage)

    def linear_stage(*args):
        out = linear(*args)
        solves[-1].update(channels=args[8], alpha=out[0])
        return out

    def counter_terms(*args):
        out = counter(*args)
        solves.append(dict(gens=[part[0] for part in args[6]], mqby=out[2]))
        return out

    def quadratic_stage(gr, r, s, combo, gen_lin, *rest):
        solves[-1].update(combo=combo, F_lin=gen_lin.F)
        return quadratic(gr, r, s, combo, gen_lin, *rest)
    monkeypatch.setattr(cohom, "_linear_stage", linear_stage)
    monkeypatch.setattr(cohom, "_counter_terms", counter_terms)
    monkeypatch.setattr(cohom, "_quadratic_stage", quadratic_stage)
    PROBLEMS[problem]()
    assert len(solves) == (2 if problem == "coupled-1p1" else 1)
    for got in solves:
        # every solve combines the f channel with a tracker channel
        assert got["alpha"].any()
        assert series_parts(got["combo"]) == series_parts(
            sum_oracle.combine(got["channels"], got["alpha"]))
        assert series_parts(got["F_lin"]) == series_parts(
            sum_oracle.linear_generator(got["gens"], got["alpha"],
                                        got["mqby"]))


def built(monkeypatch, build):
    """(args, result) of each sigma_to_parametrized call that build makes."""
    calls, real = [], symplectic.sigma_to_parametrized

    def recording(*args, **kwargs):
        calls.append(((args, kwargs), real(*args, **kwargs)))
        return calls[-1][1]
    monkeypatch.setattr(symplectic, "sigma_to_parametrized", recording)
    build()
    return calls


def reduce_threedof(seed):
    with open("config.json", "w") as fh:
        json.dump(workloads.ThreeDofCli().config(seed), fh)
    assert cli.main(["reduce", "--config", "config.json"]) == 0


def coupled_setup(eps):
    wl = workloads.Coupled()
    wl.EPS = eps
    wl.setup(0, None)


REDUCTIONS = {
    "coupled-1p1@eps=1e-05": (lambda: coupled_setup(1e-5), 1),
    "coupled-1p1@eps=0.0001": (lambda: coupled_setup(1e-4), 1),
    "l2-cohom": (lambda: workloads.L2Cohom().setup(0, None), 1),
    "threedof-cli@seed=101": (lambda: reduce_threedof(101), 2),
}


@pytest.mark.parametrize("problem", REDUCTIONS)
def test_built_problem_matches_the_fold(problem, monkeypatch, tmp_path):
    # threedof-cli's h0 and f0 go through its shear and normalization; the
    # others through shifted_parametrization's identity reduction
    monkeypatch.chdir(tmp_path)
    build, count = REDUCTIONS[problem]
    calls = built(monkeypatch, build)
    assert len(calls) == count
    for (args, kwargs), got in calls:
        want = sum_oracle.sigma_to_parametrized(*args, **kwargs)
        assert series_parts(got) == series_parts(want)
    # f0 sums more than one reduced term
    assert len(calls[-1][1].coef) > 1 and np.any(calls[-1][1].coef)
