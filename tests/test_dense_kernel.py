"""Cross-checks of the coefficient-array path against Element arithmetic,
which works one coefficient at a time through ``mul_basis``, and against
the numpy oracles: finite specs of every catalog family (R, C and H
included) in their structure-table layout, and Laurent specs in their
exponent window.  Matrix arithmetic has no element-wise path left, so the
engines must never turn a matrix they made back into elements.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from algdecomp import (AlgMatrix, Element, GivensParams, SpecMismatchError,
                       apply_givens_left,
                       apply_shift_left, apply_shift_right, aqr, asvd,
                       beta_basis, beta_prime, biquat, boolean_group,
                       clifford, clifford_twist, cyclic, cyclic_group,
                       direct_sum_pm,
                       givens_matrix, idempotent_split, jacobi, laurent,
                       laurent_embed, quadquat, quaternion_algebra,
                       random_element, random_matrix, rep_cyclic_dft,
                       representation_for, rmr, rmr_lift, tensor,
                       twisted_group, wqr, wsvd)
from algdecomp.core import _Layout, _TableLayout, _Window, _window
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (add_oracle, eval_laurent, frob_oracle, givens_oracle,
                     herm_oracle, identity_oracle, neg_oracle, spectrum_oracle,
                     sub_oracle)

# finite specs from every catalog family, dims 1 to 16
FINITE = [
    clifford(0, 0), clifford(0, 1), clifford(0, 2),  # R, C, H
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
LAURENT = [laurent(1), laurent(2)]
WINDOWS = LAURENT + [laurent(3)]  # the window helpers on 1 to 3 variables

seeds = st.integers(0, 2 ** 32 - 1)
finite = st.sampled_from(FINITE)
every = st.sampled_from(FINITE + LAURENT)


def test_every_spec_has_its_layout():
    assert all(isinstance(spec.layout(), _TableLayout) for spec in FINITE)
    assert all(isinstance(spec.layout(), _Window) for spec in LAURENT)


@pytest.mark.parametrize("spec", FINITE + [
    clifford(4, 1), clifford(0, 4), clifford(2, 2), quadquat(), biquat(),
    cyclic(1, 32), cyclic(2, 8)], ids=lambda spec: spec.descriptor)
def test_tables_equal_the_memoised_maps(spec):
    # the tables are built from the raw maps, the memo from the same maps
    index = spec.label_index
    prods = [spec.mul_basis(a, c) for a in spec.labels for c in spec.labels]
    invs = [spec.inv_basis(a) for a in spec.labels]
    t = spec.tables
    assert t.sign.ravel().tolist() == [s for s, _ in prods]
    assert t.index.ravel().tolist() == [index(k) for _, k in prods]
    assert t.inv_sign.tolist() == [s for s, _ in invs]
    assert t.inv_index.tolist() == [index(k) for _, k in invs]


def _unitary(spec, rng, two_terms=True):
    """A basis element with a random sign; over a finite spec also
    cos t + sin t e_a for a basis element with e_a^2 = -1 (two terms)."""
    sign = float(rng.choice([-1.0, 1.0]))
    if spec.dim is None:
        return spec.basis_element(tuple(int(v) for v in
                                        rng.integers(-2, 3, spec.kappa)), sign)
    t = spec.tables
    roots = np.flatnonzero((t.inv_sign < 0)
                           & (t.inv_index == np.arange(spec.dim)))
    if two_terms and roots.size and rng.random() < 0.5:
        a = spec.labels[int(rng.choice(roots))]
        phi = float(rng.uniform(0, 2 * math.pi))
        return spec.scalar(math.cos(phi)) + spec.basis_element(a, math.sin(phi))
    return spec.basis_element(spec.labels[int(rng.integers(spec.dim))], sign)


def _close(X: AlgMatrix, Y: AlgMatrix, scale: float, tol=1e-12) -> bool:
    return (X - Y).frob() <= tol * max(scale, 1.0)


def _random(spec, m, n, seed):
    return random_matrix(spec, m, n, np.random.default_rng(seed), degree=1)


def _sparse(spec, m, n, rng, degree):
    """A random matrix with a random share of its coefficients zeroed; over
    a Laurent spec only exponents in a random sub-box of [-degree, degree]
    are drawn, so the support is often narrow and off-centre."""
    if spec.dim:
        lay, keep = spec.layout(), True
    else:
        lay = _window(spec, (degree,) * spec.kappa)
        exps = np.array(lay.labels)
        lo, hi = np.sort(rng.integers(-degree, degree + 1, (2, spec.kappa)), 0)
        keep = ((lo <= exps) & (exps <= hi)).all(axis=1)
    keep = keep & (rng.random((m, n, lay.width)) < rng.random())
    return AlgMatrix._of_array(*lay.cropped(rng.standard_normal(keep.shape) * keep))


@settings(max_examples=60)
@given(st.one_of(finite, st.sampled_from(LAURENT)), seeds, st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3))
def test_matmul_equals_sum_of_element_products(spec, seed, m, k, n):
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(0, 7))
    A, B = _sparse(spec, m, k, rng, degree), _sparse(spec, k, n, rng, degree)
    want = AlgMatrix(spec, [[sum((A[i, t] * B[t, j] for t in range(k)),
                                 spec.zero()) for j in range(n)]
                            for i in range(m)])
    C = A @ B
    assert _close(C, want, A.frob() * B.frob())
    # a slot that no pair of nonzero coefficients reaches is exactly 0
    lay = spec.layout(C, want)
    assert np.array_equal(C._array(lay) != 0, want._array(lay) != 0)
    assert spec.dim or _tight(C)


@settings(max_examples=40)
@given(finite, seeds)
def test_rmr_is_the_left_multiplication(spec, seed):
    rng = np.random.default_rng(seed)
    A, B = random_matrix(spec, 2, 2, rng), random_matrix(spec, 2, 1, rng)
    a, x = A[0, 0], B[0, 0]
    np.testing.assert_allclose(rmr(a * x), rmr(a) @ rmr(x), atol=1e-12)
    np.testing.assert_allclose(rmr_lift(A @ B), rmr_lift(A) @ rmr_lift(B),
                               atol=1e-12)


@settings(max_examples=60)
@given(every, seeds, st.integers(2, 4), st.integers(1, 3))
def test_rotations_and_shifts_equal_explicit_products(spec, seed, m, n):
    rng = np.random.default_rng(seed)
    X = random_matrix(spec, m, n, rng, degree=1)
    b = _unitary(spec, rng)
    j, i = sorted(int(v) for v in rng.choice(m, size=2, replace=False))
    g = GivensParams(float(rng.uniform(0, 2 * math.pi)), b, i, j)
    scale = X.frob()
    Y = apply_givens_left(X, g)
    assert _close(Y, givens_oracle(spec, m, g) @ X, scale)
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


@settings(max_examples=60)
@given(every, seeds, st.integers(2, 4))
def test_givens_matrix_equals_the_entry_oracle(spec, seed, m):
    # exactly: each entry of G is one product, whatever the terms of b
    rng = np.random.default_rng(seed)
    j, i = sorted(int(v) for v in rng.choice(m, size=2, replace=False))
    g = GivensParams(float(rng.uniform(0, 2 * math.pi)), _unitary(spec, rng),
                     i, j)
    assert givens_matrix(spec, m, g).entries == givens_oracle(spec, m, g).entries


@settings(max_examples=60)
@given(every, seeds, st.integers(2, 3), st.integers(1, 3))
def test_one_term_rotations_and_shifts_equal_element_products(spec, seed, m, n):
    # entry by entry through Element products and sums: exactly equal
    rng = np.random.default_rng(seed)
    X = random_matrix(spec, m, n, rng, degree=1)
    b = _unitary(spec, rng, two_terms=False)
    j, i = sorted(int(v) for v in rng.choice(m, size=2, replace=False))
    theta = float(rng.uniform(0, 2 * math.pi))
    c, s = math.cos(theta), math.sin(theta)
    G = apply_givens_left(X, GivensParams(theta, b, i, j))
    L = apply_shift_left(X, b, i)
    R = apply_shift_right(X, b, n - 1)
    for r in range(m):
        for k in range(n):
            x = X[r, k]
            assert G[r, k] == {j: x * c + (b.conj() * X[i, k]) * (-s),
                               i: (b * X[j, k]) * s + x * c}.get(r, x)
            assert L[r, k] == (b * x if r == i else x)
            assert R[r, k] == (x * b if k == n - 1 else x)


@pytest.mark.parametrize("spec", [clifford(4, 1), quadquat(), clifford(0, 2),
                                  laurent(1), laurent(2)])
def test_rotations_and_shifts_stay_on_the_array(spec, conversions):
    rng = np.random.default_rng(8)
    m, n = 3, 2
    X = random_matrix(spec, m, n, rng, degree=1)
    b = _unitary(spec, rng)
    grid = X.entries
    conversions[:] = [0, 0]
    g = GivensParams(0.3, b, 2, 0)
    Y = apply_shift_right(apply_shift_left(apply_givens_left(X, g), b, 1),
                          b, n - 1)
    givens_matrix(spec, m, g)
    assert conversions == [0, 0]
    # one entry at a time, negative indices included, as the grid reads
    for i in range(-m, m):
        for j in range(-n, n):
            assert X[i, j] == grid[i][j]
    assert conversions[0] == 0
    for i, j in ((m, 0), (0, n), (-m - 1, 0), (0, -n - 1)):
        with pytest.raises(IndexError):
            X[i, j]


def test_idempotent_split_equals_entrywise_products():
    rep = rep_cyclic_dft(1, 4)
    idem = rep.idempotents()
    A = random_matrix(rep.source, 2, 3, np.random.default_rng(3))
    for part, p in zip(idempotent_split(A, idem), idem.elements):
        want = AlgMatrix(A.spec, [[e * p for e in row] for row in A.entries])
        assert _close(part, want, A.frob(), tol=1e-15)


def _check_unitary(Q: AlgMatrix, tol: float):
    spec = Q.spec
    assert (Q.herm() @ Q - AlgMatrix.identity(spec, Q.m)).frob() <= tol


@settings(max_examples=40)
@given(finite, seeds, st.integers(1, 4), st.integers(1, 3))
def test_qr_contract_and_spectrum(spec, seed, m, n):
    A = random_matrix(spec, m, n, np.random.default_rng(seed))
    scale = A.frob()
    rep = aqr(A, eps=1e-10)
    assert rep.residual <= 1e-10
    assert (rep.q @ rep.r - A).frob() <= 1e-10 * scale
    _check_unitary(rep.q, 1e-11 * m)
    np.testing.assert_allclose(spectrum_oracle(rep.r), spectrum_oracle(A),
                               atol=1e-9 * scale)


@settings(max_examples=40)
@given(finite, seeds, st.integers(1, 3), st.integers(1, 2))
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


def _circle_spectra(A: AlgMatrix, points: int = 5) -> np.ndarray:
    """Singular values of A(z) at roots of unity (in every variable), the
    spectra that paraunitary factors keep."""
    kappa = A.spec.kappa
    out = []
    for t in range(points):
        z = tuple(cmath.exp(2j * math.pi * (t + 0.5 * v) / points)
                  for v in range(kappa))
        out.append(np.linalg.svd(eval_laurent(A, z), compute_uv=False))
    return np.array(out)


# (spec, eps, trim, tol): tol bounds reconstruction, unitarity and circle
# spectra, relative to the input; trimming makes the factors approximate.
# Two-variable supports grow much faster, so laurent(2) runs looser and on
# 2x1 and 1x2 inputs only (see the FOUND line on support growth).
LAURENT_QR = [(laurent(1), 1e-6, 1e-12, 1e-9), (laurent(2), 1e-2, 1e-6, 1e-3)]
LAURENT_SVD = [(laurent(1), 1e-4, 1e-12, 1e-8), (laurent(2), 1e-1, 1e-5, 5e-3)]


@st.composite
def laurent_cases(draw, cases):
    spec, eps, trim, tol = draw(st.sampled_from(cases))
    shapes = ([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)] if spec.kappa == 1
              else [(2, 1), (1, 2)])
    return spec, draw(st.sampled_from(shapes)), eps, trim, tol


@settings(max_examples=25)
@given(laurent_cases(LAURENT_QR), seeds)
def test_laurent_qr_contract_and_spectrum(case, seed):
    spec, shape, eps, trim, tol = case
    A = _random(spec, *shape, seed)
    scale = A.frob()
    rep = aqr(A, eps=eps, trim=trim)
    assert rep.residual <= eps
    assert (rep.q @ rep.r - A).frob() <= tol * scale
    _check_unitary(rep.q, tol)
    np.testing.assert_allclose(_circle_spectra(rep.r), _circle_spectra(A),
                               atol=tol * scale)


@settings(max_examples=20)
@given(laurent_cases(LAURENT_SVD), seeds)
def test_laurent_svd_contract_and_spectrum(case, seed):
    spec, shape, eps, trim, tol = case
    A = _random(spec, *shape, seed)
    scale = A.frob()
    rep = asvd(A, eps=eps, trim=trim)
    assert rep.residual <= eps
    assert (rep.u @ rep.d @ rep.v.herm() - A).frob() <= tol * scale
    _check_unitary(rep.u, tol)
    _check_unitary(rep.v, tol)
    np.testing.assert_allclose(_circle_spectra(rep.d), _circle_spectra(A),
                               atol=tol * scale)


@settings(max_examples=20)
@given(st.sampled_from([quadquat(), biquat(), cyclic(1, 8)]), seeds,
       st.sampled_from([(2, 2), (3, 2), (2, 3)]))
def test_engines_agree_on_spectra(spec, seed, shape):
    A = random_matrix(spec, *shape, np.random.default_rng(seed))
    scale = A.frob()
    rep = representation_for(spec)
    np.testing.assert_allclose(spectrum_oracle(aqr(A, eps=1e-10).r),
                               spectrum_oracle(wqr(A, rep).r),
                               atol=1e-9 * scale)
    # the engines meet at asvd's eps 1e-6; wsvd factors its blocks to
    # round-off whatever eps, and so meets the numpy oracle
    np.testing.assert_allclose(spectrum_oracle(asvd(A, eps=1e-6).d),
                               spectrum_oracle(wsvd(A, rep, eps=1e-6).d),
                               atol=1e-5 * scale)
    np.testing.assert_allclose(spectrum_oracle(wsvd(A, rep, eps=1e-10).d),
                               spectrum_oracle(A), atol=1e-12 * scale)


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


# -- matrix arithmetic on the coefficient array ----------------------------------

@settings(max_examples=60)
@given(every, seeds, st.integers(1, 3), st.integers(1, 3))
def test_matrix_arithmetic_equals_element_arithmetic(spec, seed, m, n):
    # B's Laurent window is twice A's, and E is built from a grid of elements
    rng = np.random.default_rng(seed)
    A = random_matrix(spec, m, n, rng, degree=1)
    B = random_matrix(spec, m, n, rng, degree=2)
    a, b = A.entries, B.entries
    E = AlgMatrix(spec, b)
    assert A.herm().entries == herm_oracle(a)
    assert A.herm().herm().entries == a
    assert (A + B).entries == add_oracle(a, b)
    assert (E + A).entries == add_oracle(b, a)
    assert (A - B).entries == sub_oracle(a, b)
    assert (-A).entries == neg_oracle(a)
    assert math.isclose(A.frob(), frob_oracle(a), rel_tol=1e-14)
    assert (A - A).frob() == 0.0


@settings(max_examples=40)
@given(every, seeds, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_products_across_windows(spec, seed, m, k, n):
    # operands of different windows, one made by a product (window 2h) and
    # one built from a grid of elements
    rng = np.random.default_rng(seed)
    A = random_matrix(spec, m, k, rng, degree=1)
    B = random_matrix(spec, k, k, rng, degree=1) @ random_matrix(spec, k, n, rng,
                                                                 degree=2)
    a, b = A.entries, B.entries
    want = AlgMatrix(spec, [[sum((a[i][t] * b[t][j] for t in range(k)),
                                 spec.zero()) for j in range(n)]
                            for i in range(m)])
    assert _close(A @ B, want, A.frob() * B.frob())
    assert _close(AlgMatrix(spec, a) @ B, want, A.frob() * B.frob())
    C = random_matrix(spec, m, n, rng, degree=2)
    assert (A @ B + C).entries == add_oracle((A @ B).entries, C.entries)


@settings(max_examples=30)
@given(every, st.integers(1, 3), st.integers(1, 3))
def test_zeros_and_identity_equal_element_grids(spec, m, n):
    Z = AlgMatrix.zeros(spec, m, n)
    assert Z.entries == [[spec.zero()] * n for _ in range(m)]
    assert AlgMatrix.identity(spec, m).entries == identity_oracle(spec, m)
    assert AlgMatrix.identity(spec, m).herm().entries == identity_oracle(spec, m)
    # a write goes into the array, and arithmetic then reads it
    Z[m - 1, 0] = spec.one()
    assert (Z + Z).entries[m - 1][0] == spec.scalar(2.0)
    assert AlgMatrix.zeros(spec, m, n).frob() == 0.0


def _rebuilt_grids(monkeypatch):
    """Shapes of every grid the layouts turn back into elements."""
    shapes = []
    rows = _Layout.rows

    def counting(self, x):
        shapes.append(x.shape[:2])
        return rows(self, x)
    monkeypatch.setattr(_Layout, "rows", counting)
    return shapes


def test_engines_never_rebuild_elements(monkeypatch):
    # the built-in betas read coefficient arrays: no run builds an element
    cl41 = random_matrix(clifford(4, 1), 3, 2, np.random.default_rng(7))
    poly = random_matrix(laurent(1), 3, 2, np.random.default_rng(1), degree=1)
    dft = rep_cyclic_dft(1, 32)
    C = laurent_embed(random_matrix(laurent(1), 3, 2,
                                    np.random.default_rng(11), degree=2), 32)
    quat = quaternion_algebra()
    H = random_matrix(quat, 4, 3, np.random.default_rng(7))
    Z = random_matrix(clifford(0, 1), 4, 3, np.random.default_rng(7))
    shapes = _rebuilt_grids(monkeypatch)
    assert asvd(cl41, beta="basis", norm="inf", eps=1e-6).qrd_calls > 2
    assert asvd(poly, beta="basis", norm="inf", eps=1e-3,
                trim=1e-6).trimmed > 0
    wqr(C, dft)
    wsvd(C, dft, eps=1e-10)
    # an H block runs Householder steps on its complex adjoint, no aqr;
    # R, C and H run aqr at beta="division" by default
    assert wqr(H, representation_for(quat)).rotations == 0
    assert wsvd(H, representation_for(quat)).rotations == 0
    for X in (H, Z):
        assert aqr(X).beta == asvd(X).beta == "division"
    assert shapes == []
    # only a beta callable sees an element, one entry at a time
    aqr(H, beta=beta_prime(beta_basis))
    assert shapes and set(shapes) == {(1, 1)}


def test_step_matrices_keep_their_labels(monkeypatch):
    # R cut from a running aqr's work array after every shift and rotation
    # keeps its labels while the work window widens later
    A = random_matrix(laurent(1), 3, 2, np.random.default_rng(1), degree=1)
    rotate_rows = jacobi._rotate_rows

    def steps(keep):
        seen = []

        def recording(*args):
            lay, x = rotate_rows(*args)
            R = x[:A.n].transpose(1, 0, 2).copy()  # columns 0..n-1 hold R
            seen.append(keep(AlgMatrix._of_array(*lay.cropped(R))))
            return lay, x
        monkeypatch.setattr(jacobi, "_rotate_rows", recording)
        aqr(A, beta="basis", norm="inf", eps=1e-3, trim=1e-6)
        return seen
    at_once = steps(lambda R: R.entries)
    assert len(at_once) > 10
    assert [R.entries for R in steps(lambda R: R)] == at_once


def _state(lay):
    # every attribute of a layout, its label index copied
    return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(lay).items()}


def test_windows_of_one_width_share_their_labels(monkeypatch):
    # equal half-widths give equal windows, and nothing changes a window
    # once it is handed out, not even the work window of a running aqr
    a, b = _window(laurent(2), (1, 2)), _Window(laurent(2), (1, 2))
    assert a is _window(laurent(2), (1, 2)) and _state(a) == _state(b)
    assert list(a.labels) == sorted(a.labels) and len(a.labels) == a.width == 15
    assert all(a.index[lab] == p for p, lab in enumerate(a.labels))
    made, init = [], _Window.__init__

    def recording(self, *args):
        init(self, *args)
        made.append((self, _state(self)))
    monkeypatch.setattr(_Window, "__init__", recording)
    _window.cache_clear()
    A = random_matrix(laurent(1), 3, 2, np.random.default_rng(1), degree=1)
    asvd(A, beta="basis", norm="inf", eps=1e-3, trim=1e-6)
    assert max(lay.h for lay, _ in made) > (4,)  # the work windows widened
    assert all(_state(lay) == state for lay, state in made)


def _labels_held(lay, x):
    """The labels of the coefficients ``x`` holds (nonzero or NaN), read one
    element at a time through ``lay.rows``: the reference for the window
    helpers, which read the array a slab at a time."""
    return [lab for row in lay.rows(x) for e in row for lab in e.coeffs]


def _held_reference(lay, x):
    held = (0,) * len(lay.h)
    for lab in _labels_held(lay, x):
        held = tuple(map(max, held, map(abs, lab)))
    return held


def _placed(to, x, lay):
    """``x``, on window ``lay``, placed label by label on window ``to``
    (labels that ``to`` lacks dropped)."""
    out = np.zeros(x.shape[:-1] + (to.width,))
    for p, lab in enumerate(lay.labels):
        if lab in to.index:
            out[..., to.index[lab]] = x[..., p]
    return out


def _check_window_helpers(lay, x, terms):
    # held, moved, cropped and room against the per-label reference, bytes
    # compared (NaN and -0.0 included)
    spec, held = lay.spec, _held_reference(lay, x)
    assert lay.held(x) == held
    for h in (held, tuple(t + 1 for t in lay.h)):  # a crop and a pad
        to = _window(spec, h)
        assert to.moved(x, lay.h).tobytes() == _placed(to, x, lay).tobytes()
    got, y = lay.cropped(x)
    assert got is _window(spec, held)
    assert y.tobytes() == _placed(got, x, lay).tobytes()
    # room moves iff a coefficient lies within step of an edge, in a
    # variable that some term shifts
    step = [max(abs(lab[t]) for lab, _ in terms) for t in range(spec.kappa)]
    got, y = lay.room(x, terms)
    if not any(s and abs(e) + s > h for lab in _labels_held(lay, x)
               for e, s, h in zip(lab, step, lay.h)):
        assert got is lay and y is x
    else:
        assert got is _window(spec, tuple(
            max(h, 2 * (r + s)) for h, r, s in zip(lay.h, held, step)))
        assert y.tobytes() == _placed(got, x, lay).tobytes()


def _tight(X):
    lay, x = X._coeffs
    return lay.held(x) == _held_reference(lay, x) == lay.h


@pytest.mark.parametrize("spec", WINDOWS)
def test_products_and_factors_hold_what_their_windows_cover(spec):
    rng = np.random.default_rng(2)
    eps = 1e-1 if spec.kappa == 3 else 3e-2  # keeps the laurent(3) runs short
    A = random_matrix(spec, 2, 1, rng, degree=1)
    B = random_matrix(spec, 1, 2, rng, degree=1)
    qr = aqr(A, beta="basis", norm="inf", eps=eps, trim=1e-3)
    # over laurent(1) 2x2, trims leave U and V narrower than their products
    C = random_matrix(spec, 2, max(3 - spec.kappa, 1), rng, degree=1)
    svd = asvd(C, beta="basis", norm="inf", eps=eps, trim=1e-3)
    assert all(map(_tight, (A @ B, B.herm() @ A.herm(), qr.q, qr.r, svd.u,
                            svd.d, svd.v)))
    z = spec.basis_element((1,) * spec.kappa)
    one = AlgMatrix(spec, [[z]]) @ AlgMatrix(spec, [[z.conj()]])
    assert one._coeffs[0].h == (0,) * spec.kappa and one[0, 0] == spec.one()


def test_sums_hold_what_their_windows_cover():
    # a sum whose outer coefficients cancel once kept the wider window, and
    # its frob() then rounded differently from the same coefficients on a
    # tight window: 6.258712821697119 against 6.25871282169712 here
    spec = laurent(1)
    A = random_matrix(spec, 3, 3, np.random.default_rng(1), degree=3)
    lay, x = A._coeffs
    outer = np.zeros_like(x)
    outer[..., [0, -1]] = x[..., [0, -1]]
    S = A - AlgMatrix._of_array(lay, outer)
    tight = AlgMatrix(spec, S.entries)
    assert _tight(S) and S._coeffs[0].h == tight._coeffs[0].h == (2,)
    assert S.frob() == tight.frob()


def test_layout_of_arrays_reads_their_windows(monkeypatch):
    rng = np.random.default_rng(3)
    for spec in LAURENT:
        X = random_matrix(spec, 2, 3, rng, degree=1)
        Y = X.herm() @ random_matrix(spec, 2, 2, rng, degree=2)
        scans = []
        held = _Window.held
        monkeypatch.setattr(_Window, "held",
                            lambda self, x: scans.append(x.shape) or held(self, x))
        assert spec.layout(X, Y).h == (3,) * spec.kappa
        grid = AlgMatrix(spec, X.copy().entries)  # scanned label by label
        assert spec.layout(grid, X).h == (1,) * spec.kappa
        assert scans == []
        monkeypatch.undo()


@pytest.mark.parametrize("spec", WINDOWS)
def test_room_moves_only_past_the_edge(spec):
    # room leaves an array alone for a unit b and for a shift inside the
    # slack of its window, and past the edge widens to max(h, 2 (held +
    # step)) per variable, every coefficient keeping its exponent
    rng = np.random.default_rng(4)
    held, wide = {1: ((2,), (8,)), 2: ((2, 1), (8, 4)),
                  3: ((2, 1, 1), (8, 3, 4))}[spec.kappa]
    lay = _window(spec, (3,) * spec.kappa)
    grid = [[spec.zero() for _ in range(3)] for _ in range(2)]
    for lab in itertools.product(*(range(-t, t + 1) for t in held)):
        grid[rng.integers(2)][rng.integers(3)] += spec.basis_element(
            lab, rng.standard_normal())
    X = AlgMatrix(spec, grid)
    x = X._array(lay)
    assert lay.held(x) == held
    inside = spec.basis_element((1,) * spec.kappa)
    for b in (spec.one(), inside, inside.conj()):
        got, y = lay.room(x, b.coeffs.items())
        assert got is lay and y is x
    # step (2,) or (2, 1): held + step passes h = 3 in the first variable
    past = Element(spec, {(2,) + (0,) * (spec.kappa - 1): 0.6,
                          (0,) * (spec.kappa - 1) + (-1,): 0.8})
    got, y = lay.room(x, past.coeffs.items())
    assert got.h == wide and got is _window(spec, wide)
    assert got.rows(y) == lay.rows(x) == X.entries
    for t in range(1, spec.kappa):  # a later variable alone: 1 + 3 passes h
        lab = tuple(-3 if u == t else 0 for u in range(spec.kappa))
        got, y = lay.room(x, ((lab, 1.0),))
        assert got.h == tuple(8 if u == t else max(3, 2 * held[u])
                              for u in range(spec.kappa))
        assert got.rows(y) == X.entries
    # against the per-label reference on an uneven window: arrays all zero
    # (-0.0 too), holding a NaN (live) on an edge, a coefficient on a corner
    # or one short of every edge, and random ones; shifts by single terms of
    # either sign in each variable, by the unit and by two mixed-sign terms
    lay = _window(spec, (3, 1, 2)[:spec.kappa])
    k, zero = spec.kappa, np.zeros((3, 2, lay.width))
    corner, short, nan = zero.copy(), zero.copy(), zero.copy()
    corner[1, 0, lay.index[(-3,) + lay.h[1:]]] = 1.5
    short[0, 1, lay.index[tuple(h - 1 for h in lay.h)]] = -2.0
    nan[2, 1, lay.unit] = 0.5
    nan[0, 0, lay.index[(0,) * (k - 1) + (-lay.h[-1],)]] = np.nan
    mixed = rng.standard_normal(zero.shape) * (rng.random(zero.shape) < 0.3)
    shifts = [(((0,) * k, 1.0),),
              (((1, -2, 1)[:k], 0.6), ((-1, 0, -2)[:k], 0.8))]
    for t in range(k):
        for e in (-1, 1, 2):
            shifts.append(((tuple(e if u == t else 0 for u in range(k)), 1.0),))
    for x in (zero, -zero, corner, short, nan, mixed):
        for terms in shifts:
            _check_window_helpers(lay, x, terms)


# -- one storage: the coefficient array ---------------------------------------------

STORAGE = [clifford(0, 0), clifford(0, 1), clifford(0, 2), clifford(4, 1),
           quadquat()] + LAURENT


@pytest.mark.parametrize("spec", STORAGE, ids=lambda spec: spec.descriptor)
def test_writes_go_to_the_array(spec, conversions):
    rng = np.random.default_rng(5)
    m, n = 3, 2
    X = random_matrix(spec, m, n, rng, degree=1)
    e, f = (random_element(spec, rng, degree=1) for _ in range(2))
    X[-1, 0] = e
    rows = X.entries
    rows[1][-1] = f
    assert X[m - 1, 0] == e and X[1, n - 1] == f and rows[1][n - 1] == f
    assert rows == [list(row) for row in X.entries]  # rows compare as lists
    other = clifford(1, 1).one()

    def write_row(ij, value):
        X.entries[ij[0]][ij[1]] = value
    for write in (X.__setitem__, write_row):
        for ij in ((m, 0), (0, n), (-m - 1, 0), (0, -n - 1)):
            with pytest.raises(IndexError):
                write(ij, e)
        with pytest.raises(SpecMismatchError):
            write((0, 0), other)
    assert X[m - 1, 0] == e and X[1, n - 1] == f
    # a copy holds its own array, both ways
    Y = X.copy()
    Y[0, 0] = e
    X.entries[0][1] = f
    assert X[0, 0] != e and Y[0, 0] == e and Y[0, 1] != f and X[0, 1] == f
    # after entries, no operation turns a grid back into an array
    conversions[:] = [0, 0]
    grid = X.entries
    (X @ Y.herm() - X.copy() @ Y.herm()).frob()
    assert conversions == [0, 1] and X.entries == grid


@pytest.mark.parametrize("spec", LAURENT)
def test_laurent_write_widens_the_window(spec):
    rng = np.random.default_rng(6)
    X = random_matrix(spec, 2, 2, rng, degree=1)
    B = random_matrix(spec, 2, 3, rng, degree=2)
    e = random_element(spec, rng, degree=3)
    rows = [list(row) for row in X.entries]  # plain lists: no write-through
    rows[1][0] = e
    X[1, 0] = e
    grid = AlgMatrix(spec, rows)
    assert X._coeffs[0].h == grid._coeffs[0].h == (3,) * spec.kappa
    assert X[1, 0] == e
    assert np.array_equal(X._coeffs[1], grid._coeffs[1])
    P, Q = X @ B, grid @ B
    assert P._coeffs[0] is Q._coeffs[0]
    assert np.array_equal(P._coeffs[1], Q._coeffs[1])
