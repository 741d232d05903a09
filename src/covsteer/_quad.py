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


def _panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ts = mid + half * _XK
    vals = np.asarray(f(ts), dtype=float)
    k = half * np.tensordot(_WK, vals, axes=(0, 0))
    g = half * np.tensordot(_WG, vals[1::2], axes=(0, 0))
    err = float(np.max(np.abs(k - g)))
    return k, err, ts, vals


def adaptive_gk(f, a, b, atol=1e-10, rtol=0.0, max_panels=2000,
                collect_nodes=False):
    """Integrate an array-valued f over [a, b] by panel bisection.

    f takes a 1-D array of times and returns an array whose leading axis
    runs over those times; each panel's 15 nodes are one call.  Refinement
    stops when the error estimate falls below atol + rtol * max|integral|;
    the relative guard keeps the work bounded when the integrand magnitude
    blows up.  Returns (integral, error, saturated), saturated meaning that
    max_panels stopped the refinement above that tolerance; collect_nodes
    adds a fourth item: the node times of the final panel set, sorted, and
    f at them.
    """
    if a == b:
        z = np.zeros_like(np.asarray(f(np.array([a])), dtype=float)[0])
        nodes = (np.empty(0), np.empty((0,) + z.shape))
        return (z, 0.0, False, nodes) if collect_nodes else (z, 0.0, False)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    k, err, ts, vals = _panel(f, a, b)
    heap = [(-err, 0, a, b, k, ts, vals)]
    counter = 1
    total_err = err
    running = np.array(k, dtype=float)
    saturated = False
    while not total_err <= atol + rtol * float(np.max(np.abs(running))):  # NaN never meets it
        if len(heap) >= max_panels:
            saturated = True
            break
        neg_err, _, lo, hi, whole, _ts, _vals = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        k1, e1, t1, v1 = _panel(f, lo, mid)
        k2, e2, t2, v2 = _panel(f, mid, hi)
        total_err += e1 + e2 - (-neg_err)
        running += k1 + k2 - whole
        heapq.heappush(heap, (-e1, counter, lo, mid, k1, t1, v1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, k2, t2, v2))
        counter += 2
    integral = sign * sum(item[4] for item in heap)
    if not collect_nodes:
        return integral, total_err, saturated
    heap.sort(key=lambda item: item[2])
    return integral, total_err, saturated, tuple(
        np.concatenate([item[col] for item in heap]) for col in (5, 6))
