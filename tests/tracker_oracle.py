"""The parameter-tracker row of the counter-term system, written out by hand.

The row's generator entries are the means at z = 0 of {phix_i, F_c}, where
F_c = A + B.z is the linear generator of channel c.  At z = 0 only the
degree-0 terms of each derivative meet, so the bracket is the sum of the
2 (d + l) products of z = 0 restrictions below, each a separate multiply
and each added to the sum so far in bracket order.  kamtori.engine.cohom
forms the same entries as one bracket restricted to the TaylorSplit field
a; tests/test_tracker_row.py compares the two byte for byte.
"""

import numpy as np

from kamtori.engine.cohom import _mean0
from kamtori.series import (FTSeries, coordinates, differentiate, multiply,
                            restrict_z0)


def tracker_mean(phix_B, A, Bx, By, Bp, nb):
    """(nb, l): the mean at z = 0 of {phix_i, A + B.z} at each point, for
    the batched trackers phix_B and one channel's blocks A, B_x, B_y, B_p."""
    gr = A.grading
    l, d = gr.l, gr.d
    dphix = {var: [restrict_z0(differentiate(u, var)) for u in phix_B]
             for var in coordinates(gr)}
    out = np.zeros((nb, l), dtype=complex)
    dqA = [restrict_z0(differentiate(A, ("q", j))) for j in range(d)]
    Bp0 = [restrict_z0(Bp[j]) for j in range(d)]
    Bx0 = [restrict_z0(Bx[j]) for j in range(l)]
    By0 = [restrict_z0(By[j]) for j in range(l)]
    for i in range(l):
        acc = FTSeries.zero(gr, A.r, A.s)
        for j in range(d):
            acc = acc + multiply(dphix["q", j][i], Bp0[j])
            acc = acc - multiply(dphix["p", j][i], dqA[j])
        for j in range(l):
            acc = acc + multiply(dphix["x", j][i], By0[j])
            acc = acc - multiply(dphix["y", j][i], Bx0[j])
        out[:, i] = _mean0(acc, nb)
    return out


def tracker_row(phix_B, channels, nb):
    """(nb, l, channels): tracker_mean of each channel's (A, B_x, B_y, B_p)
    in the last axis."""
    return np.stack([tracker_mean(phix_B, *blocks, nb) for blocks in channels],
                    axis=2)
