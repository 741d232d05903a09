from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from covsteer.errors import DimensionError
from covsteer.matfun import (
    BoundaryData,
    MatrixPoly,
    spd_sqrt,
    unvec,
    validate_system,
    vec,
)

from helpers import const, make_system, example_system


def test_evaluate_constant():
    f = const([[1.0]])
    assert_allclose(f.derivative(0).eval(0.7), [[1.0]])


def test_evaluate_affine_derivative():
    f = MatrixPoly.from_entries([[[3.0, 1.0]]])  # 3 + t
    assert_allclose(f.derivative(1).eval(0.5), [[1.0]])
    assert_allclose(f.derivative(0).eval(0.2), [[3.2]])
    assert_allclose(f.derivative(2).eval(0.9), [[0.0]])


def test_evaluate_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        coeffs = list(rng.uniform(-2.0, 2.0, size=5))
        f = MatrixPoly.from_entries([[coeffs]])
        t = rng.uniform(0.1, 0.9)
        fd = (f.eval(t + h)[0, 0] - f.eval(t - h)[0, 0]) / (2.0 * h)
        exact = f.derivative(1).eval(t)[0, 0]
        assert abs(fd - exact) <= 1e-8 * max(1.0, abs(exact))


def test_kron_identity():
    assert_allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_hand_example():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array([
        [0.0, 1.0, 0.0, 2.0],
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 3.0, 0.0, 4.0],
        [3.0, 0.0, 4.0, 0.0],
    ])
    assert_allclose(np.kron(x, y), expected)


@pytest.mark.parametrize("n", [2, 3])
def test_kron_vec_identity(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = rng.standard_normal((n, n))
        y = rng.standard_normal((n, n))
        h = rng.standard_normal((n, n))
        lhs = np.kron(x, y) @ vec(h)
        rhs = vec(y @ h @ x.T)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_vec_column_major():
    assert_allclose(vec(np.array([[1.0, 3.0], [2.0, 4.0]])), [1.0, 2.0, 3.0, 4.0])
    assert_allclose(vec(np.zeros((2, 2))), np.zeros(4))


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 3))
    assert_allclose(unvec(vec(h)), h)


def test_matrix_poly_product_is_exact():
    a = MatrixPoly.from_entries([[[1.0, 2.0], [0.0, 1.0]], [[3.0], [1.0, 0.0, 1.0]]])
    b = MatrixPoly.from_entries([[[0.0, 1.0]], [[2.0]]])
    prod = a @ b
    for t in np.linspace(0.0, 1.0, 7):
        assert_allclose(prod.eval(t), a.eval(t) @ b.eval(t), atol=1e-14)


def test_matrix_poly_requires_nonempty_coeffs():
    with pytest.raises(ValueError):
        MatrixPoly(1, 1, (((),),))


def _with_channel(e, nu):
    """The example system with one general channel (E, nu)."""
    return replace(example_system(), general_channels=((const(e), const(nu)),))


@pytest.mark.parametrize("call,error,message", [
    (lambda: MatrixPoly(0, 1, ()), ValueError, "dimensions must be positive"),
    (lambda: MatrixPoly(2, 1, (((1.0,),),)), DimensionError, "coefficient table is not 2x1"),
    (lambda: MatrixPoly.from_entries([[[]]]), ValueError, "at least one coefficient"),
    (lambda: const([[np.inf]]), ValueError, "coefficients must be finite"),
    (lambda: const(np.eye(2)) + const(np.eye(3)), DimensionError, "matrix shapes differ"),
    (lambda: const(np.ones((2, 3))) @ const(np.eye(2)), DimensionError,
     "inner dimensions differ"),
    (lambda: vec(np.ones((2, 3))), DimensionError, "vec expects a square matrix"),
    (lambda: unvec(np.ones(3)), DimensionError, "perfect square"),
    (lambda: spd_sqrt(-np.eye(2)), ValueError, r"not positive definite \(lambda_min=-1"),
    (lambda: _with_channel(np.eye(3), [[1.0]]), DimensionError, "E_1 must be 2x2"),
    (lambda: _with_channel(np.eye(2), np.eye(2)), DimensionError, "nu_1 must be scalar"),
    (lambda: BoundaryData(sigma0=np.ones(2), sigma1=np.eye(2)), DimensionError,
     "sigma0 must be square"),
    (lambda: BoundaryData(sigma0=np.eye(2), sigma1=[[1.0, 0.5], [0.0, 1.0]]), ValueError,
     "sigma1 is not symmetric"),
], ids=["dimensions", "table", "empty_entry", "finite", "sum", "product", "vec",
        "unvec", "spd_sqrt", "channel_e", "channel_nu", "square", "symmetric"])
def test_malformed_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_validation_names_an_asymmetric_weight():
    sys = make_system(2, 1, 1, [[-2.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0], [0.0]],
                      [[1.0]], [[0.5]], [[1.0, 1.0], [0.0, 1.0]], [[1.0]])
    assert [(c.name, c.time, c.detail) for c in validate_system(sys).failures()] \
        == [("Q", 0.0, "Q not symmetric at t=0.000")]
    assert not MatrixPoly.from_entries([[[0.0, 1.0]]]).matches_constant([[0.0]])


_COEF = st.floats(-10.0, 10.0)
_TIMES = st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8)


def _table(rows, cols):
    """Ragged rows x cols entries of degree 0 to 4."""
    entry = st.lists(_COEF, min_size=1, max_size=5)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _poly_tables(draw):
    """Tables of f, g (r x m) and h (m x c), shapes 1 to 3."""
    r, m, c = (draw(st.integers(1, 3)) for _ in range(3))
    return draw(_table(r, m)), draw(_table(r, m)), draw(_table(m, c))


def _abs_poly(table):
    """The polynomial of absolute coefficients, a bound on rounding at |t|."""
    return MatrixPoly.from_entries([[[abs(c) for c in e] for e in row] for row in table])


@settings(max_examples=60, deadline=None)
@given(tables=_poly_tables(), ts=_TIMES, order=st.integers(0, 5))
def test_matrix_poly_stacked_eval_is_per_time_eval(tables, ts, order):
    f = MatrixPoly.from_entries(tables[0])
    assert not f.coef.flags.writeable
    d = f.derivative(order)
    stack = d.eval(np.array(ts)[:, None, None])
    assert stack.shape == (len(ts), f.rows, f.cols)
    for k, t in enumerate(ts):
        assert stack[k].tobytes() == d.eval(t).tobytes()


def _underflow(products, t, deg):
    """Bound on the error of `products` subnormal products.  The rounding
    model fl(xy) = xy(1 + d) + e adds |e| <= 2^-1075, half the smallest
    subnormal, per product, carried to the value by at most max(1, |t|)^deg.
    A sum or difference whose result is subnormal is exact."""
    return products * max(1.0, abs(t)) ** deg * np.nextafter(0.0, 1.0) / 2


@settings(max_examples=60, deadline=None)
@given(tables=_poly_tables(), ts=_TIMES, factor=_COEF)
@example(tables=([[[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 1.0]]],
                 [[[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 1.5]]], [[[1.0]]]),
         ts=[5e-324], factor=1.0)  # (f + g)(t) = 2.5 subnormal units rounds to 2, f(t) + g(t) to 3
def test_matrix_poly_arithmetic_matches_pointwise(tables, ts, factor):
    rtol = 1e-13
    f, g, h = (MatrixPoly.from_entries(tab) for tab in tables)
    abs_f, abs_g, abs_h = (_abs_poly(tab) for tab in tables)
    deg_f, deg_g, deg_h = (len(p.coef) - 1 for p in (f, g, h))
    deg_fg = max(deg_f, deg_g)
    for t in ts:
        fv, gv, hv = f.eval(t), g.eval(t), h.eval(t)
        af, ag, ah = abs_f.eval(abs(t)), abs_g.eval(abs(t)), abs_h.eval(abs(t))
        # Horner products: deg_fg for f + g, deg_f for f and deg_g for g.
        under = _underflow(3 * deg_fg, t, deg_fg)
        assert np.all(np.abs((f + g).eval(t) - (fv + gv)) <= rtol * (af + ag) + under)
        assert np.all(np.abs((f - g).eval(t) - (fv - gv)) <= rtol * (af + ag) + under)
        # Per unit of (1 + |f|)(1 + |h|): the product's coefficient and Horner
        # products, fv @ hv's own, and f's and h's evaluation errors carried
        # through the other factor, fewer than (deg_f + 2)(deg_h + 2) in all.
        under = _underflow((deg_f + 2) * (deg_h + 2), t, deg_f + deg_h) * ((1 + af) @ (1 + ah))
        assert np.all(np.abs((f @ h).eval(t) - fv @ hv) <= rtol * (af @ ah) + under)
        # 2 deg_f + 2 products: deg_f + 1 coefficient products, deg_f Horner
        # products and factor * fv.
        assert np.all(np.abs(f.scale(factor).eval(t) - factor * fv)
                      <= rtol * abs(factor) * af + _underflow(2 * deg_f + 2, t, deg_f))
        assert np.array_equal(f.T.eval(t), fv.T)
        # Zero padding to the higher degree leaves every value exact.
        assert np.array_equal(MatrixPoly.hstack([f, g, f]).eval(t), np.hstack([fv, gv, fv]))
        # d/dt sum_k c_k t^k = sum_k k c_k t^(k-1), entry by entry.
        terms = [[[k * c * t ** (k - 1) for k, c in enumerate(e) if k]
                  for e in row] for row in tables[0]]
        want = np.array([[sum(e) for e in row] for row in terms])
        bound = np.array([[sum(abs(x) for x in e) for e in row] for row in terms])
        # 2 deg_f - 1 products in f', 2 deg_f in want, and t^(k-1) within one
        # subnormal, that is two units, amplified by |k c_k|.
        weight = np.array([[1.0 + sum(k * abs(c) for k, c in enumerate(e)) for e in row]
                           for row in tables[0]])
        assert np.all(np.abs(f.derivative().eval(t) - want)
                      <= rtol * bound + _underflow(4 * deg_f, t, deg_f) * weight)


def test_validate_example_system_passes():
    assert validate_system(example_system()).passed


def test_validate_rejects_zero_r():
    sys = make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                      [[0.0]], [[0.0]], [[0.0]])
    report = validate_system(sys)
    assert not report.passed
    failure = report.failures()[0]
    assert failure.name == "R"
    assert failure.time == 0.0
    assert "not positive definite" in failure.detail


@pytest.mark.parametrize("field,value", [
    ("R", [[-1.0]]),
    ("Q", [[-1.0, 0.0], [0.0, 0.0]]),
    ("nu", [[-0.5]]),
])
def test_validate_flags_each_corruption(field, value):
    base = dict(a=[[-2.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]], c=[[1.0], [0.0]],
                d=[[1.0]], nu=[[0.5]], q_mat=[[1.0, 0.0], [0.0, 0.0]], r=[[1.0]])
    key = {"R": "r", "Q": "q_mat", "nu": "nu"}[field]
    base[key] = value
    sys = make_system(2, 1, 1, **base)
    report = validate_system(sys)
    assert not report.passed
    assert any(c.name == field for c in report.failures())


def test_validate_flags_a_negative_general_channel_rate():
    channels = [(const(2.0 * np.eye(2)), const([[0.25]])),
                (const(np.eye(2)), const([[-0.5]]))]
    sys = make_system(2, 1, 1, [[-2.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0], [0.0]],
                      [[1.0]], [[0.5]], [[1.0, 0.0], [0.0, 0.0]], [[1.0]], channels)
    assert [c.name for c in validate_system(sys).failures()] == ["nu_2"]


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError, match="B declared 2x1"):
        make_system(2, 1, 1, np.zeros((2, 2)), [[0.0, 1.0]], [[1.0], [0.0]],
                    [[1.0]], [[0.0]], np.zeros((2, 2)), [[1.0]])


def test_boundary_data_requires_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        BoundaryData(sigma0=np.zeros((2, 2)), sigma1=np.eye(2))
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.3, 0.2]))
    assert_allclose(bd.sigma1, np.diag([0.3, 0.2]))


def test_boundary_data_refuses_mismatched_shapes():
    with pytest.raises(DimensionError, match=r"sigma0 is \(2, 2\) but sigma1 is \(3, 3\)"):
        BoundaryData(sigma0=np.eye(2), sigma1=np.eye(3))
