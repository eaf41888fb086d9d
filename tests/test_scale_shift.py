import numpy as np
import pytest

from helpers import ScaleShift, scale_shift_backward, scale_shift_forward


def test_identity_initialization_is_exact():
    x = np.random.default_rng(0).standard_normal((7, 5))
    y = scale_shift_forward(x, ScaleShift.identity(5))
    assert np.array_equal(y, x)


def test_constant_example():
    params = ScaleShift(gamma=np.full(4, 2.0), beta=np.ones(4))
    y = scale_shift_forward(np.zeros((3, 4)), params)
    assert np.array_equal(y, np.ones((3, 4)))


def test_forward_matches_elementwise_loop():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 9))
    params = ScaleShift(gamma=rng.standard_normal(9), beta=rng.standard_normal(9))
    y = scale_shift_forward(x, params)
    for i in range(6):
        for j in range(9):
            assert y[i, j] == params.gamma[j] * x[i, j] + params.beta[j]


def test_linearity_in_x():
    rng = np.random.default_rng(2)
    params = ScaleShift(gamma=rng.standard_normal(4), beta=np.zeros(4))
    a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    left = scale_shift_forward(a + 2 * b, params)
    right = scale_shift_forward(a, params) + 2 * scale_shift_forward(b, params)
    assert np.allclose(left, right, atol=1e-12)


def test_backward_closed_forms():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 6))
    params = ScaleShift(gamma=rng.standard_normal(6), beta=rng.standard_normal(6))

    ones = np.ones_like(x)
    _, _, grad_beta = scale_shift_backward(x, params, ones)
    assert np.allclose(grad_beta, 8.0)

    zero_gamma = ScaleShift(gamma=np.zeros(6), beta=params.beta)
    grad_x, _, _ = scale_shift_backward(x, zero_gamma, rng.standard_normal((8, 6)))
    assert np.array_equal(grad_x, np.zeros_like(x))


def test_backward_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 7))
    params = ScaleShift(gamma=rng.standard_normal(7), beta=rng.standard_normal(7))
    upstream = rng.standard_normal((5, 7))

    def loss(x_, gamma_, beta_):
        return float(
            (scale_shift_forward(x_, ScaleShift(gamma=gamma_, beta=beta_)) * upstream).sum()
        )

    grad_x, grad_gamma, grad_beta = scale_shift_backward(x, params, upstream)
    h = 1e-6
    for _ in range(10):
        kind = rng.integers(0, 3)
        if kind == 0:
            i, j = rng.integers(0, 5), rng.integers(0, 7)
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            numeric = (loss(xp, params.gamma, params.beta) - loss(xm, params.gamma, params.beta)) / (2 * h)
            analytic = grad_x[i, j]
        elif kind == 1:
            j = rng.integers(0, 7)
            gp, gm = params.gamma.copy(), params.gamma.copy()
            gp[j] += h
            gm[j] -= h
            numeric = (loss(x, gp, params.beta) - loss(x, gm, params.beta)) / (2 * h)
            analytic = grad_gamma[j]
        else:
            j = rng.integers(0, 7)
            bp, bm = params.beta.copy(), params.beta.copy()
            bp[j] += h
            bm[j] -= h
            numeric = (loss(x, params.gamma, bp) - loss(x, params.gamma, bm)) / (2 * h)
            analytic = grad_beta[j]
        assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8) < 1e-6


def test_backward_finite_differences_float32():
    # the layer is linear in every parameter, so the only finite-difference
    # error is float32 rounding noise; 1e-3 relative is the 32-bit contract
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 7)).astype(np.float32)
    params = ScaleShift(
        gamma=rng.standard_normal(7).astype(np.float32),
        beta=rng.standard_normal(7).astype(np.float32),
    )
    upstream = rng.standard_normal((5, 7)).astype(np.float32)
    _, grad_gamma, grad_beta = scale_shift_backward(x, params, upstream)
    h = np.float32(1e-2)
    for j in range(7):
        for vec, analytic in ((params.gamma, grad_gamma[j]), (params.beta, grad_beta[j])):
            vp, vm = vec.copy(), vec.copy()
            vp[j] += h
            vm[j] -= h
            pp = ScaleShift(vp if vec is params.gamma else params.gamma,
                            vp if vec is params.beta else params.beta)
            pm = ScaleShift(vm if vec is params.gamma else params.gamma,
                            vm if vec is params.beta else params.beta)
            lp = float((scale_shift_forward(x, pp) * upstream).sum())
            lm = float((scale_shift_forward(x, pm) * upstream).sum())
            numeric = (lp - lm) / (2 * float(h))
            diff = abs(numeric - float(analytic))
            assert diff <= 1e-5 or diff / max(abs(numeric), abs(float(analytic))) < 1e-3


def test_dimension_mismatch_errors():
    params = ScaleShift.identity(4)
    with pytest.raises(ValueError):
        scale_shift_forward(np.zeros((3, 5)), params)
    with pytest.raises(ValueError):
        scale_shift_backward(np.zeros((3, 4)), params, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        ScaleShift(gamma=np.ones(3), beta=np.zeros(4))
    with pytest.raises(ValueError):
        ScaleShift(gamma=np.array([np.inf, 1.0]), beta=np.zeros(2))
