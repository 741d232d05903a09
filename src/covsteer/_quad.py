"""Adaptive Gauss-Kronrod quadrature for array-valued integrands.

A 15-point Kronrod rule with embedded 7-point Gauss error estimate,
refined by rounds of interval bisection.  Unlike library quadratures, the
evaluated nodes are returned to the caller, which lets the boundary-map
residual and its Jacobian be assembled from one shared node set.
"""

import numpy as np

# Kronrod-15 abscissae/weights on [-1, 1] and the embedded Gauss-7 weights
# (Gauss points are the even-indexed Kronrod points).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _panels(f, ends):
    """Rows (ends, Kronrod sum, error estimate, node times, f values) of the
    panels whose ends are the rows of the (m, 2) array ends, from one call of f."""
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    ts = 0.5 * ends.sum(axis=1)[:, None] + half[:, None] * _XK
    vals = np.asarray(f(ts.ravel()), dtype=float)
    vals = vals.reshape(ts.shape + vals.shape[1:])
    kron = np.einsum("pj,pj...->p...", half[:, None] * _WK, vals)
    gauss = np.einsum("pj,pj...->p...", half[:, None] * _WG, vals[:, 1::2])
    return ends, kron, np.max(np.abs(kron - gauss).reshape(len(half), -1), axis=1), ts, vals


def adaptive_gk(f, a, b, atol=1e-10, rtol=0.0, max_panels=2000, edges=None):
    """Integrate an array-valued f over [a, b] by rounds of panel bisection.

    f takes a 1-D array of times and returns an array whose leading axis
    runs over those times; the starting panels, between edges from a to b
    (default [a, b]), are one call, and so is each round.  With tol = atol +
    rtol * max|integral| (the relative guard keeps the work bounded when the
    integrand magnitude blows up), a round stops the refinement once the
    summed error estimate is at most tol or max_panels panels are reached,
    and otherwise bisects every panel whose estimate is above its share
    tol / count, worst first, up to max_panels.  Returns (integral, error,
    saturated, panels), saturated meaning that max_panels stopped the
    refinement above tol, and panels the final panels' edges, node times
    and f at them.
    """
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    edges = np.asarray((a, b) if edges is None else edges, dtype=float)
    rows = _panels(f, np.stack([edges[:-1], edges[1:]], axis=1))  # sorted by left edge
    while True:
        ends, kron, err = rows[:3]
        integral, total = kron.sum(axis=0), float(err.sum())
        tol = atol + rtol * float(np.max(np.abs(integral)))
        saturated = not total <= tol  # NaN never meets it
        if not saturated or len(err) >= max_panels:
            break
        above = np.count_nonzero(~(err <= tol / len(err)))  # NaN counts as above
        # At least one: rounding can leave the sum above tol with no panel above its share.
        split = max(1, min(above, max_panels - len(err)))
        worst = np.argsort(np.nan_to_num(-err, nan=-np.inf))[:split]
        lo, hi = ends[worst].T
        mid = 0.5 * (lo + hi)
        halves = _panels(f, np.stack([lo, mid, mid, hi], axis=1).reshape(-1, 2))
        keep = np.delete(np.arange(len(err)), worst)
        order = np.argsort(np.concatenate([ends[keep, 0], halves[0][:, 0]]))
        rows = tuple(np.concatenate([old[keep], new])[order] for old, new in zip(rows, halves))
    ts, vals = rows[3:]
    return sign * integral, total, saturated, (np.append(ends[:, 0], ends[-1, 1]), ts.ravel(),
                                               vals.reshape((-1,) + vals.shape[2:]))


def interpolant_integrals(edges, values, times):
    """(int from edges[0] to each time, tail) from adaptive_gk's panels:
    each panel's degree-14 Legendre interpolant through its nodes, integrated
    exactly; tail sums 2 half max(|c13|, |c14|), what they leave unresolved."""
    leg = np.polynomial.legendre
    edges, values, times = (np.asarray(x, dtype=float) for x in (edges, values, times))
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
    coef = np.linalg.solve(leg.legvander(_XK, 14), values.reshape(len(half), len(_XK), -1))
    tail = float(np.sum(2.0 * half * np.max(np.abs(coef[:, -2:]), axis=(1, 2))))
    before = np.insert(np.cumsum(2.0 * half[:, None] * coef[:, 0], axis=0), 0, 0.0, axis=0)
    idx = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, len(half) - 1)
    part = np.einsum("kj,kjd->kd", leg.legvander((times - mid[idx]) / half[idx], 15),
                     leg.legint(coef, lbnd=-1, axis=1)[idx])
    return (before[idx] + half[idx, None] * part).reshape(times.shape + values.shape[1:]), tail
