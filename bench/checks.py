"""Correctness checks that do not trust the library's own evaluation.

`Series` evaluates a sparse Fourier-Taylor series and its first partials
straight from its `(j, k, a) -> c` terms (or their JSON form), without
`kamtori.series.evaluate` or `kamtori.symplectic.vector_field`. Variables
follow the library's layout: parameter phi (l), angles q (d) and the Taylor
block z = (x (l), p (d), y (l)); (q, p) and (x, y) are the conjugate pairs.

Every check returns a `Check`; a workload's round is correct when all hold.
"""

import math
from dataclasses import dataclass

import numpy as np

CRITERION_1_GATE = 1e-8    # absolute invariance gate of criterion 1
CRITERION_10_GATE = 1e-6   # absolute invariance gate of criterion 10
# The torus must also remove all but this share of the invariance defect of
# the unperturbed torus; at small amplitudes the absolute gates alone would
# pass an embedding that is wrong in its third digit.
RELATIVE_GATE = 1e-6
CONTRACTION_EXPONENT = 1.4  # criterion 2
ALPHA_GRADIENT_REL = 1e-8
PLATEAU_REL = 1e-8


@dataclass
class Check:
    name: str
    ok: bool
    value: float
    limit: float

    def as_dict(self):
        return {"name": self.name, "ok": bool(self.ok),
                "value": float(self.value), "limit": float(self.limit)}


class Series:
    """A finite sum  sum c e^{i (j.phi + k.q)} z^a  held as arrays."""

    def __init__(self, l, d, keys, coeffs):
        self.l, self.d = l, d
        n = len(coeffs)
        keys = np.asarray(keys, dtype=np.int64).reshape(n, 3 * l + 2 * d)
        self.J = keys[:, :l].astype(float)
        self.K = keys[:, l:l + d].astype(float)
        self.A = keys[:, l + d:]
        self.C = np.asarray(coeffs, dtype=complex).reshape(n)

    @classmethod
    def from_terms(cls, l, d, terms):
        """From a `{(j, k, a): c}` dict."""
        items = list(terms.items())
        keys = [list(j) + list(k) + list(a) for (j, k, a), _c in items]
        return cls(l, d, keys, [c for _key, c in items])

    @classmethod
    def from_json(cls, data):
        """From the `{"grading", "radii", "terms"}` form of a stored series."""
        g = data["grading"]
        keys = [t["j"] + t["k"] + t["alpha"] for t in data["terms"]]
        coeffs = [complex(t["re"], t["im"]) for t in data["terms"]]
        return cls(g["l"], g["d"], keys, coeffs)

    def __add__(self, other):
        keys = np.vstack([np.hstack([s.J, s.K, s.A]) for s in (self, other)])
        return Series(self.l, self.d, np.rint(keys).astype(np.int64),
                      np.concatenate([self.C, other.C]))

    def _parts(self, phi, q, z):
        """Phase factors (P, n), monomials (P, n) at P points."""
        phase = self.J @ np.asarray(phi, dtype=float)
        phase = phase[None, :] + np.asarray(q, dtype=float) @ self.K.T
        z = np.asarray(z, dtype=float)
        mono = np.prod(z[:, None, :] ** self.A[None, :, :], axis=-1)
        return np.exp(1j * phase), mono

    def value(self, phi, q, z):
        e, mono = self._parts(phi, q, z)
        return ((e * mono) @ self.C).real

    def d_q(self, phi, q, z):
        """(P, d) partials in the angles."""
        e, mono = self._parts(phi, q, z)
        return np.stack([((e * mono) @ (1j * self.K[:, i] * self.C)).real
                         for i in range(self.d)], axis=-1)

    def d_z(self, phi, q, z):
        """(P, nz) partials in the Taylor variables."""
        e, _mono = self._parts(phi, q, z)
        z = np.asarray(z, dtype=float)
        out = []
        for m in range(self.A.shape[1]):
            lowered = self.A.copy()
            lowered[:, m] = np.maximum(lowered[:, m] - 1, 0)
            mono = np.prod(z[:, None, :] ** lowered[None, :, :], axis=-1)
            out.append(((e * mono) @ (self.A[:, m] * self.C)).real)
        return np.stack(out, axis=-1)

    def majorant(self, r, s):
        ang = np.abs(self.J).sum(axis=1) + np.abs(self.K).sum(axis=1)
        return float(np.sum(np.abs(self.C) * np.exp(ang * r)
                            * s ** self.A.sum(axis=1)))


def model_hamiltonian(l, d, w, M0, rest):
    """<w, p> + 1/2 <M0 p, p> + 1/2 |y|^2 plus the series `rest`."""
    zl, zd = [0] * l, [0] * d
    keys, coeffs = [], []

    def mono(*positions):
        a = [0] * (2 * l + d)
        for pos in positions:
            a[pos] += 1
        return zl + zd + a

    for i in range(d):
        keys.append(mono(l + i))
        coeffs.append(float(w[i]))
        for j in range(d):
            keys.append(mono(l + i, l + j))
            coeffs.append(0.5 * float(M0[i][j]))
    for i in range(l):
        keys.append(mono(l + d + i, l + d + i))
        coeffs.append(0.5)
    return Series(l, d, keys, coeffs) + rest


def invariance_defect(H, phi0, embedding, omega, points):
    """max over `points` of |X_H(emb(q)) - D emb(q) . omega| with H at phi0.

    embedding: {"uq", "ux", "up", "uy"} lists of q-only `Series`."""
    l, d = H.l, H.d
    omega = np.asarray(omega, dtype=float)
    q = np.asarray(points, dtype=float)
    z0 = np.zeros((len(q), 2 * l + d))
    comps = (embedding["uq"] + embedding["ux"] + embedding["up"]
             + embedding["uy"])
    vals = np.stack([u.value(np.zeros(l), q, z0) for u in comps], axis=-1)
    flow = np.stack([u.d_q(np.zeros(l), q, z0) @ omega for u in comps],
                    axis=-1)
    flow[:, :d] += omega
    qe = q + vals[:, :d]
    ze = vals[:, d:]
    dq = H.d_q(phi0, qe, ze)
    dz = H.d_z(phi0, qe, ze)
    dx, dp, dy = dz[:, :l], dz[:, l:l + d], dz[:, l + d:]
    field = np.hstack([dp, dy, -dq, -dx])
    return float(np.max(np.linalg.norm(field - flow, axis=1)))


def invariance_checks(name, H, phi0, embedding, omega, points, gate):
    """The absolute gate, and the gate relative to the unperturbed torus."""
    defect = invariance_defect(H, phi0, embedding, omega, points)
    zero = {key: [Series(u.l, u.d, np.zeros((0, 3 * u.l + 2 * u.d)), [])
                  for u in comps] for key, comps in embedding.items()}
    trivial = invariance_defect(H, phi0, zero, omega, points)
    return [Check(name + ".invariance", defect <= gate, defect, gate),
            Check(name + ".invariance_vs_unperturbed",
                  defect <= RELATIVE_GATE * trivial, defect,
                  RELATIVE_GATE * trivial)]


def contraction_check(norms):
    """Every rung with 1e-250 < |f_n| < 1 contracts with exponent >= 1.4,
    or absorbs the error exactly (|f_{n+1}| <= 1e-250)."""
    worst = math.inf
    for a, b in zip(norms, norms[1:]):
        if not 1e-250 < a < 1.0:
            continue
        exponent = math.inf if b <= 1e-250 else (
            math.log(b) / math.log(a) if b < 1.0 else -math.inf)
        worst = min(worst, exponent)
    return Check("contraction_exponent", worst >= CONTRACTION_EXPONENT,
                 worst, CONTRACTION_EXPONENT)


def check_points(rng, n, dim, avoid=(24, 32, 64)):
    """n points of [0, 2 pi)^dim at least 1e-3 away from every coordinate
    line of the uniform grids of the listed sizes (the library's own
    verification and parameter grids)."""
    out = []
    while len(out) < n:
        p = rng.uniform(0.0, 2 * math.pi, dim)
        if all(abs(v * m / (2 * math.pi) - round(v * m / (2 * math.pi)))
               * 2 * math.pi / m >= 1e-3 for v in p for m in avoid):
            out.append(p)
    return np.array(out)


def alpha_gradient_check(f, alpha, points):
    """alpha(phi) against the phi-gradient of the q-average of f at z = 0.

    f, alpha: `Series`; alpha is a list of l phi-only series."""
    l = f.l
    keep = np.all(f.K == 0, axis=1) & np.all(f.A == 0, axis=1)
    phase = np.exp(1j * (np.asarray(points) @ f.J[keep].T))
    grad = np.stack([(phase @ (1j * f.J[keep, i] * f.C[keep])).real
                     for i in range(l)], axis=-1)
    q0, z0 = np.zeros((1, f.d)), np.zeros((1, 2 * l + f.d))
    got = np.array([[a.value(p, q0, z0)[0] for a in alpha] for p in points])
    gap = float(np.max(np.abs(got - grad)))
    scale = float(np.max(np.abs(grad)))
    return [Check("alpha_equals_gradient", gap <= ALPHA_GRADIENT_REL * scale,
                  gap, ALPHA_GRADIENT_REL * scale),
            Check("gradient_nonzero", scale > 0.0, scale, 0.0)]


def plateau_check(residual_plateau, f, r, s):
    limit = PLATEAU_REL * f.majorant(r, s)
    return Check("residual_plateau", residual_plateau <= limit,
                 residual_plateau, limit)


def exit_code_check(codes):
    return Check("cli_exit_codes", all(c == 0 for c in codes),
                 max((abs(c) for c in codes), default=0), 0)
