"""Cross-checks of the structure-table path of the dense specs (finite,
other than R, C and H) against Element arithmetic, which works one
coefficient at a time through ``mul_basis``, and against the numpy oracles.
"""

import math

import numpy as np
from algdecomp import (AlgMatrix, GivensParams, apply_givens_left,
                       apply_shift_left, apply_shift_right, aqr, asvd,
                       beta_basis, boolean_group, clifford, clifford_twist, cyclic,
                       cyclic_group, direct_sum_pm, givens_matrix, jacobi,
                       quaternion_algebra, random_matrix, rmr, rmr_lift,
                       tensor, twisted_group)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import spectrum_oracle

# finite non-division specs from every catalog family, dims 2 to 16
SPECS = [
    clifford(1, 0), clifford(2, 0), clifford(1, 1), clifford(2, 1),
    clifford(0, 3), clifford(3, 1),
    cyclic(1, 2), cyclic(1, 6), cyclic(2, 2), cyclic(2, 4),
    twisted_group(cyclic_group(3), lambda g, h: 1, "R[Z/3]"),
    twisted_group(boolean_group(2), clifford_twist(0, 2), "tw(0,2)"),
    twisted_group(boolean_group(3), clifford_twist(1, 2), "tw(1,2)"),
    tensor(clifford(1, 0), clifford(0, 1)),
    tensor(quaternion_algebra(), clifford(1, 0)),
    tensor(cyclic(1, 2), clifford(0, 2)),
    direct_sum_pm(clifford(1, 0), clifford(0, 1)),
    direct_sum_pm(clifford(1, 1), clifford(2, 0)),
    direct_sum_pm(clifford(0, 2), clifford(1, 1)),
]
assert all(spec.dense for spec in SPECS)

seeds = st.integers(0, 2 ** 32 - 1)
specs = st.sampled_from(SPECS)


def _unitary(spec, rng):
    """A basis element with a random sign, or cos t + sin t e_a for a basis
    element with e_a^2 = -1 (a unitary element with two terms)."""
    t = spec.tables
    roots = np.flatnonzero((t.inv_sign < 0)
                           & (t.inv_index == np.arange(spec.dim)))
    if roots.size and rng.random() < 0.5:
        a = spec.labels[int(rng.choice(roots))]
        phi = float(rng.uniform(0, 2 * math.pi))
        return spec.scalar(math.cos(phi)) + spec.basis_element(a, math.sin(phi))
    lab = spec.labels[int(rng.integers(spec.dim))]
    return spec.basis_element(lab, float(rng.choice([-1.0, 1.0])))


def _close(X: AlgMatrix, Y: AlgMatrix, scale: float, tol=1e-12) -> bool:
    return (X - Y).frob() <= tol * max(scale, 1.0)


@settings(max_examples=40)
@given(specs, seeds, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_matmul_equals_sum_of_element_products(spec, seed, m, k, n):
    rng = np.random.default_rng(seed)
    A, B = random_matrix(spec, m, k, rng), random_matrix(spec, k, n, rng)
    want = AlgMatrix(spec, [[sum((A[i, t] * B[t, j] for t in range(k)),
                                 spec.zero()) for j in range(n)]
                            for i in range(m)])
    assert _close(A @ B, want, A.frob() * B.frob())


@settings(max_examples=40)
@given(specs, seeds)
def test_rmr_is_the_left_multiplication(spec, seed):
    rng = np.random.default_rng(seed)
    A, B = random_matrix(spec, 2, 2, rng), random_matrix(spec, 2, 1, rng)
    a, x = A[0, 0], B[0, 0]
    np.testing.assert_allclose(rmr(a * x), rmr(a) @ rmr(x), atol=1e-12)
    np.testing.assert_allclose(rmr_lift(A @ B), rmr_lift(A) @ rmr_lift(B),
                               atol=1e-12)


@settings(max_examples=40)
@given(specs, seeds, st.integers(2, 4), st.integers(1, 3))
def test_rotations_and_shifts_equal_explicit_products(spec, seed, m, n):
    rng = np.random.default_rng(seed)
    X = random_matrix(spec, m, n, rng)
    b = _unitary(spec, rng)
    j, i = sorted(int(v) for v in rng.choice(m, size=2, replace=False))
    g = GivensParams(float(rng.uniform(0, 2 * math.pi)), b, i, j)
    scale = X.frob()
    Y = apply_givens_left(X, g)
    assert _close(Y, givens_matrix(spec, m, g) @ X, scale)
    assert math.isclose(Y.frob(), scale, rel_tol=1e-12)
    shift = AlgMatrix.identity(spec, m)
    shift[i, i] = b
    Y = apply_shift_left(X, b, i)
    assert _close(Y, shift @ X, scale)
    assert math.isclose(Y.frob(), scale, rel_tol=1e-12)
    shift = AlgMatrix.identity(spec, n)
    shift[n - 1, n - 1] = b
    Y = apply_shift_right(X, b, n - 1)
    assert _close(Y, X @ shift, scale)
    assert math.isclose(Y.frob(), scale, rel_tol=1e-12)


def _check_unitary(Q: AlgMatrix, tol: float):
    spec = Q.spec
    assert (Q.herm() @ Q - AlgMatrix.identity(spec, Q.m)).frob() <= tol


@settings(max_examples=30)
@given(specs, seeds, st.integers(1, 4), st.integers(1, 3))
def test_qr_contract_and_spectrum(spec, seed, m, n):
    A = random_matrix(spec, m, n, np.random.default_rng(seed))
    scale = A.frob()
    rep = aqr(A, eps=1e-10)
    assert rep.residual <= 1e-10
    assert (rep.q @ rep.r - A).frob() <= 1e-10 * scale
    _check_unitary(rep.q, 1e-11 * m)
    np.testing.assert_allclose(spectrum_oracle(rep.r), spectrum_oracle(A),
                               atol=1e-9 * scale)


@settings(max_examples=30)
@given(specs, seeds, st.integers(1, 3), st.integers(1, 2))
def test_svd_contract_and_spectrum(spec, seed, m, n):
    A = random_matrix(spec, m, n, np.random.default_rng(seed))
    scale = A.frob()
    rep = asvd(A, eps=1e-8)
    assert rep.residual <= 1e-8
    assert (rep.u @ rep.d @ rep.v.herm() - A).frob() <= 1e-8 * scale
    _check_unitary(rep.u, 1e-10 * m)
    _check_unitary(rep.v, 1e-10 * n)
    np.testing.assert_allclose(spectrum_oracle(rep.d), spectrum_oracle(A),
                               atol=1e-7 * scale)


def test_qr_with_a_two_term_beta():
    # a custom beta whose elements have two terms rotates through summed
    # gathers; beta(x) = (Re x + x_3 g3) / |.|, falling back to beta_basis
    spec = clifford(2, 1)  # g3 squares to -1
    g3 = 0b100

    def beta(x):
        u, v = x.re(), x.coeffs.get(g3, 0.0)
        r = math.hypot(u, v)
        if r <= 1e-3 * x.norm_inf():
            return beta_basis(x)
        return (spec.scalar(u) + spec.basis_element(g3, v)) / r

    A = random_matrix(spec, 4, 3, np.random.default_rng(5))
    rep = aqr(A, beta=beta, eps=1e-10)
    assert rep.residual <= 1e-10
    assert (rep.q @ rep.r - A).frob() <= 1e-10 * A.frob()
    _check_unitary(rep.q, 1e-11 * A.m)


def test_dense_specs_bypass_the_per_coefficient_rotations(monkeypatch):
    def forbidden(*args):
        raise AssertionError("per-coefficient rotation on a dense spec")

    monkeypatch.setattr(jacobi, "_rows_rotate", forbidden)
    monkeypatch.setattr(jacobi, "_cols_rotate", forbidden)
    spec = clifford(2, 1)
    A = random_matrix(spec, 3, 2, np.random.default_rng(1))
    aqr(A, eps=1e-10)
    asvd(A, eps=1e-8)
    apply_givens_left(A, GivensParams(0.4, spec.basis_element(0b011), 2, 0))
