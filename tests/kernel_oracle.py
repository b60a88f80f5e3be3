"""The two product kernels as they formed their products before tiling: the
block kernel gathers e's rows for every output mode at once and forms one
product P per group of halves, and the batched pair kernel forms the
products of all its sorted pairs as one (pairs, B) array.

Kept as the test oracle of ``kamtori.series._block_product`` and of the
batched branch of ``kamtori.series._pair_product`` (its unbatched branch,
which bins the pairs, is unchanged): the tiled kernels must return the same
slots, coefficients and losses, bit for bit.  A batched product forms no
loss: its loss is 0.0 (None without losses)."""

import numpy as np

from kamtori.series import _EMPTY, _NONE, _block_loss, _kept, _starts


def block_product(plan, layout, halves, r, s, losses=True):
    """``_block_product`` with one gathered array and one P per group."""
    e, c, at = layout.e, layout.c, layout.at
    sides = [(b, a) if layout.swap else (a, b) for a, b in halves]
    products, combos = {}, {}
    for n, (de, dc) in enumerate(sides):
        products.setdefault((de if de.on_modes else None,
                             dc if dc.on_modes else None), []).append(n)
    o_slot = plan.code(layout.oj, layout.ok, 0)
    out = [None] * len(halves)
    gathered = None
    for (me, mc), members in sorted(products.items(),
                                    key=lambda item: item[0][0] is not None):
        if me is None:
            gathered = e.dense[at.T] if gathered is None else gathered
            ed = gathered
        else:
            gathered = None
            factor = np.append(me.mode_factor(plan, e.ij, e.ik), 0.0)
            ed = (e.dense * factor[:, None])[at.T]
        cd = c.dense[:-1]
        if mc is not None:
            cd = cd * mc.mode_factor(plan, c.ij, c.ik)[:, None]
        P = (cd.T @ ed.reshape(len(c.ij), -1)).reshape(len(c.taylor), len(at),
                                                       len(e.taylor))
        del cd, ed
        for n in members:
            de, dc = sides[n]
            shift = tuple(sorted(de.shift + dc.shift))
            if shift not in combos:
                ts = plan.taylor_sums(shift)[c.taylor[:, None], e.taylor]
                q, p = np.nonzero(ts >= 0)
                order = np.argsort(ts[q, p], kind="stable")
                combos[shift] = q[order], p[order], ts[q[order], p[order]]
            q, p, t = combos[shift]
            tc, te = dc.taylor_factor(plan, c.taylor), de.taylor_factor(plan, e.taylor)
            factor = (1 if tc is None else tc[q]) * (1 if te is None else te[p])
            if np.ndim(factor):
                live = factor != 0
                q, p, t, factor = q[live], p[live], t[live], factor[live]
            first = _starts(t)
            terms = P[q, :, p]
            if np.ndim(factor):
                terms *= factor[:, None]
            acc = np.add.reduceat(terms, first, axis=0).T.ravel()
            out[n] = ((o_slot[:, None] + t[first]).ravel(), acc)
        del P
    loss = _block_loss(plan, layout, sides, r, s) if losses \
        else [None] * len(out)
    return [o + (x,) for o, x in zip(out, loss)]


def pair_product(plan, f, g, halves, losses=True):
    """``_pair_product`` on operands of which one at least is batched, with
    every product of the sorted pairs formed at once."""
    js, ks, ts = plan.slots
    out = []
    for a, b in halves:
        fd, gd = (_kept(plan, u, d)[:4] for u, d in ((f, a), (g, b)))
        (fj, fk, ft, fc), (gj, gk, gt, gc) = fd, gd
        if not len(fc) or not len(gc):
            out.append((_NONE, _EMPTY, 0.0))
            continue
        slot = js[fj].take(gj, axis=1)
        slot += ks[fk].take(gk, axis=1)
        slot += ts[ft].take(gt, axis=1)
        outside = slot < 0
        loss = 0.0 if losses else None
        assert fc.ndim == 2 or gc.ndim == 2, "the oracle of batched products"
        pairs = np.flatnonzero(~outside.ravel())
        pairs = pairs[np.argsort(slot.ravel()[pairs], kind="stable")]
        slot = slot.ravel()[pairs]
        pf, pg = np.divmod(pairs, len(gc))
        coef = fc.reshape(len(fc), -1)[pf] * gc.reshape(len(gc), -1)[pg]
        first = _starts(slot)
        acc = coef if len(first) == len(slot) \
            else np.add.reduceat(coef, first, axis=0)
        out.append((slot[first], acc, loss))
    return out
