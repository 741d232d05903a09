"""Adaptive Gauss-Kronrod quadrature for array-valued integrands.

A 15-point Kronrod rule with embedded 7-point Gauss error estimate,
refined by interval bisection.  Unlike library quadratures, the evaluated
nodes are returned to the caller, which lets the boundary-map residual and
its Jacobian be assembled from one shared node set.
"""

import heapq

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


def _panels(f, edges):
    """(integral, error, nodes, values) of each panel between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    ts = 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * _XK
    vals = np.asarray(f(ts.ravel()), dtype=float)
    vals = vals.reshape(ts.shape + vals.shape[1:])
    ks = [h * np.tensordot(_WK, v, axes=(0, 0)) for h, v in zip(half, vals)]
    gs = [h * np.tensordot(_WG, v[1::2], axes=(0, 0)) for h, v in zip(half, vals)]
    return [(k, float(np.max(np.abs(k - g))), t, v) for k, g, t, v in zip(ks, gs, ts, vals)]


def adaptive_gk(f, a, b, atol=1e-10, rtol=0.0, max_panels=2000, edges=None):
    """Integrate an array-valued f over [a, b] by panel bisection.

    f takes a 1-D array of times and returns an array whose leading axis
    runs over those times; the starting panels, between edges from a to b
    (default [a, b]), are one call, and so is each bisection.  Refinement
    stops when the error estimate falls below atol + rtol * max|integral|;
    the relative guard keeps the work bounded when the integrand magnitude
    blows up.  Returns (integral, error, saturated, panels), saturated
    meaning that max_panels stopped the refinement above that tolerance, and
    panels the final panels' edges, node times and f at them.
    """
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    edges = (a, b) if edges is None else edges
    heap = sorted((-err, i, lo, hi, k, ts, vals) for i, (lo, hi, (k, err, ts, vals))
                  in enumerate(zip(edges[:-1], edges[1:], _panels(f, edges))))  # a heap
    counter = len(heap)
    total_err = sum(-item[0] for item in heap)
    running = np.sum([item[4] for item in heap], axis=0)
    saturated = False
    while not total_err <= atol + rtol * float(np.max(np.abs(running))):  # NaN never meets it
        if len(heap) >= max_panels:
            saturated = True
            break
        neg_err, _, lo, hi, whole, _ts, _vals = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (k1, e1, t1, v1), (k2, e2, t2, v2) = _panels(f, (lo, mid, hi))
        total_err += e1 + e2 - (-neg_err)
        running += k1 + k2 - whole
        heapq.heappush(heap, (-e1, counter, lo, mid, k1, t1, v1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, k2, t2, v2))
        counter += 2
    integral = sign * sum(item[4] for item in heap)
    heap.sort(key=lambda item: item[2])
    return integral, total_err, saturated, (np.array([item[2] for item in heap] + [b]), *(
        np.concatenate([item[col] for item in heap]) for col in (5, 6)))


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
