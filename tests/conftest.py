import json
import math

import numpy as np
import pytest
from hypothesis import settings

from kamtori.series import FTSeries, Grading, from_json_dict, to_json_dict
from kamtori.symplectic import GeneratingFunction

# every run draws the same examples: no example database, no per-example
# deadline (a first call may build a grading's tables)
settings.register_profile("reproducible", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("reproducible")

GOLDEN = (1 + math.sqrt(5)) / 2


@pytest.fixture
def g11():
    return Grading(d=1, l=1, K_q=8, K_phi=8, D=4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_real_series(grading, r, s, rng, n_modes=6, max_k=3, max_phi=2,
                       max_deg=2, scale=1.0):
    """Random series with the reality symmetry, bounded mode content."""
    terms = {}
    for _ in range(n_modes):
        j = tuple(int(rng.integers(-max_phi, max_phi + 1))
                  for _ in range(grading.l))
        k = tuple(int(rng.integers(-max_k, max_k + 1))
                  for _ in range(grading.d))
        alpha = [0] * grading.nz
        deg = int(rng.integers(0, max_deg + 1))
        for _ in range(deg):
            alpha[int(rng.integers(0, grading.nz))] += 1
        c = complex(rng.standard_normal(), rng.standard_normal()) * scale
        if sum(map(abs, j)) > grading.K_phi or sum(map(abs, k)) > grading.K_q:
            continue  # a mode outside the grading is no term of the ring
        key = (j, k, tuple(alpha))
        mirror = (tuple(-v for v in j), tuple(-v for v in k), tuple(alpha))
        terms[key] = terms.get(key, 0.0) + c
        terms[mirror] = terms.get(mirror, 0.0) + np.conj(c)
    return FTSeries(grading, r, s, terms)


def drift_free(F):
    """The generator F + <v, q> with v = 0: d zero series on F's radii."""
    return GeneratingFunction(
        F, [FTSeries.zero(F.grading, F.r, F.s) for _ in range(F.grading.d)])


def dumps(f):
    """A series as compact JSON text (to_json_dict, keys sorted)."""
    return json.dumps(to_json_dict(f), separators=(",", ":"), sort_keys=True)


def loads(text):
    """The series of dumps' text."""
    return from_json_dict(json.loads(text))
