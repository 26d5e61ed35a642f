"""Block-representation engine: reps, lifting, QR/SVD, idempotents, DFT."""

import math
import warnings

import numpy as np
import pytest
from algdecomp import (AlgebraError, AlgMatrix, ConvergenceError, Element,
                       IdempotentSet, Representation, SpecMismatchError, aqr,
                       asvd, clifford, complex_algebra, cyclic, direct_sum_pm,
                       idempotent_join, idempotent_split, laurent,
                       laurent_embed, laurent_unembed, lift, quadquat,
                       quaternion_algebra, random_matrix, real_algebra,
                       rep_biquat, rep_cl41, rep_cyclic_dft, rep_quadquat,
                       rep_trivial, representation_for, rmr_lift, unlift, wqr,
                       wsvd)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (complex_ndarray, digest, eval_laurent, quat_matmul,
                     spectrum_oracle)

RNG = lambda s: np.random.default_rng(s)


# -- shipped representations ----------------------------------------------------

def test_quadquat_representation_verified():
    rep = rep_quadquat()
    assert rep.blocks == (("R", 4),)
    assert rep.verification.mult_worst <= 1e-12
    assert rep.verification.star_worst <= 1e-12
    spec = rep.source
    assert np.array_equal(rep.image(spec.one())[0], np.eye(4))


def test_quadquat_left_right_actions_commute():
    rep = rep_quadquat()
    spec = rep.source
    left = rep.image(spec.basis_element((1, 0)))[0]
    right = rep.image(spec.basis_element((0, 1)))[0]
    assert np.array_equal(left @ right, right @ left)


def test_cl41_representation_verified():
    rep = rep_cl41()
    assert rep.blocks == (("C", 4),)
    assert rep.verification.mult_worst <= 1e-12
    cl41 = rep.source
    gp = rep.image(cl41.basis_element(0b01000))[0]
    gm = rep.image(cl41.basis_element(0b10000))[0]
    assert np.allclose(gp @ gp, np.eye(4), atol=1e-14)
    assert np.allclose(gm @ gm, -np.eye(4), atol=1e-14)


def test_biquat_representation_verified():
    rep = rep_biquat()
    assert rep.blocks == (("C", 2),)
    assert rep.verification.mult_worst <= 1e-12


def test_trivial_representations():
    for spec, tag in ((real_algebra(), "R"), (clifford(0, 1), "C"),
                      (clifford(0, 2), "H")):
        rep = rep_trivial(spec)
        assert rep.blocks == ((tag, 1),)
        assert rep.verification.mult_worst == 0.0


def test_corrupted_images_rejected():
    good = rep_quadquat()
    spec = good.source
    images = {lab: good.image(spec.basis_element(lab)) for lab in spec.labels}
    bad_label = spec.labels[3]
    images[bad_label] = [-images[bad_label][0]]
    with pytest.raises(AlgebraError, match="multiplicative"):
        Representation(spec, good.blocks, images, name="corrupted")


def _cl20_images(S):
    # cl(2,0) as real 2x2 matrices, conjugated by S
    Si = np.linalg.inv(S)
    g1 = S @ np.diag([1.0, -1.0]) @ Si
    g2 = S @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ Si
    return {0b00: [np.eye(2)], 0b01: [g1], 0b10: [g2], 0b11: [g1 @ g2]}


def test_multiplicative_map_that_is_not_a_star_map_rejected():
    # conjugation keeps products, but it keeps the involution (the
    # transpose) only for an orthogonal S
    spec = clifford(2, 0)
    rep = Representation(spec, (("R", 2),), _cl20_images(np.eye(2)))
    assert rep.verification.star_worst == 0.0
    images = _cl20_images(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(AlgebraError, match="does not intertwine the "
                       "involution at basis element g1:"):
        Representation(spec, (("R", 2),), images, name="similar")


def test_dependent_images_rejected():
    good = rep_quadquat()
    spec = good.source
    images = {lab: good.image(spec.basis_element(lab)) for lab in spec.labels}
    images[spec.labels[2]] = images[spec.labels[1]]
    with pytest.raises(AlgebraError, match="basis images are not independent"):
        Representation(spec, good.blocks, images, name="dependent")


def test_dft_block_structure():
    rep = rep_cyclic_dft(1, 4)
    assert rep.blocks == (("R", 1), ("C", 1), ("R", 1))
    assert rep.frequencies == ((0,), (1,), (2,))
    spec = rep.source
    for M in rep.image(spec.one()):
        assert np.allclose(M, np.eye(1))
    z = spec.basis_element((1,))
    for (tag, _), f, M in zip(rep.blocks, rep.frequencies, rep.image(z)):
        want = np.exp(-2j * np.pi * f[0] / 4)
        assert abs(complex(M[0, 0]) - want) < 1e-15


def test_dft_requires_even_modulus():
    with pytest.raises(Exception):
        rep_cyclic_dft(1, 5)


def test_dft_smallest_modulus():
    # delta = 2 has only the two self-conjugate frequencies
    rep = rep_cyclic_dft(1, 2)
    assert rep.blocks == (("R", 1), ("R", 1))
    assert rep.verification.mult_worst == 0.0


def test_dft_two_variables():
    rep = rep_cyclic_dft(2, 4)
    tags = [tag for tag, _ in rep.blocks]
    assert tags.count("R") == 4           # components in {0, 2}
    assert tags.count("C") == (16 - 4) // 2
    assert rep.verification.mult_worst <= 1e-12
    A = random_matrix(rep.source, 2, 2, RNG(30))
    out = wqr(A, rep, eps=0.0)
    assert (out.q @ out.r - A).frob() <= 1e-12 * A.frob()


def _quat_diag(t):
    """diag(q, -q) for the quaternion unit q = i, j or k."""
    M = np.zeros((2, 2, 4))
    M[0, 0, t], M[1, 1, t] = 1.0, -1.0
    return M


def _rep_cl04():
    """cl(0,4) as quaternion 2x2 matrices: the one H block larger than 1x1."""
    spec = clifford(0, 4)
    J = np.zeros((2, 2, 4))
    J[0, 1, 0], J[1, 0, 0] = 1.0, -1.0
    gens = [_quat_diag(1), _quat_diag(2), _quat_diag(3), J]
    images = {}
    for mask in spec.labels:
        M = np.zeros((2, 2, 4))
        M[0, 0, 0] = M[1, 1, 0] = 1.0
        for t in range(4):
            if mask >> t & 1:
                M = quat_matmul(M, gens[t])
        images[mask] = [M]
    return spec, images


def test_quaternion_block_representation():
    spec, images = _rep_cl04()
    rep = Representation(spec, (("H", 2),), images, name="cl04->H2x2")
    assert rep.verification.mult_worst == 0.0
    assert rep.verification.star_worst == 0.0
    assert rep.verification.pairs == 256
    for lab, mats in images.items():
        assert np.array_equal(rep.image(spec.basis_element(lab))[0], mats[0])
    bad = dict(images)
    bad[0b0110] = [-images[0b0110][0]]
    with pytest.raises(AlgebraError, match="multiplicative"):
        Representation(spec, (("H", 2),), bad, name="corrupted")


def test_quaternion_block_decompositions():
    spec, images = _rep_cl04()
    rep = Representation(spec, (("H", 2),), images)
    X = random_matrix(spec, 3, 2, RNG(40))
    assert (unlift(lift(X, rep), rep, 3, 2) - X).frob() <= 1e-14 * X.frob()
    A = random_matrix(spec, 3, 2, RNG(41))
    scale = A.frob()
    q = wqr(A, rep, eps=0.0)
    assert q.block_rotations[0] > 0
    assert (q.q @ q.r - A).frob() <= 1e-12 * scale
    s = wsvd(A, rep, eps=1e-10)
    assert (s.u @ s.d @ s.v.herm() - A).frob() <= 1e-9 * scale
    assert np.allclose(spectrum_oracle(s.d), spectrum_oracle(A), atol=1e-9)


def test_representation_for_is_built_once():
    assert representation_for(cyclic(1, 4)) is representation_for(cyclic(1, 4))


def test_representation_for_dispatch():
    assert representation_for(clifford(4, 1)).name.startswith("cl41")
    assert representation_for(quadquat()).blocks == (("R", 4),)
    with pytest.raises(Exception):
        representation_for(clifford(3, 0))


# -- lift / unlift -----------------------------------------------------------------

def test_lift_identity_gives_identity_blocks():
    rep = rep_cl41()
    I = AlgMatrix.identity(rep.source, 2)
    B = lift(I, rep)[0]
    assert (B - AlgMatrix.identity(B.spec, 8)).frob() == 0.0


def test_lift_is_multiplicative():
    rep = rep_quadquat()
    rng = RNG(0)
    X = random_matrix(rep.source, 2, 2, rng)
    Y = random_matrix(rep.source, 2, 2, rng)
    lx, ly, lxy = lift(X, rep)[0], lift(Y, rep)[0], lift(X @ Y, rep)[0]
    assert (lx @ ly - lxy).frob() <= 1e-11 * max(X.frob() * Y.frob(), 1.0)


def test_lift_intertwines_herm():
    rep = rep_cl41()
    X = random_matrix(rep.source, 2, 3, RNG(1))
    assert (lift(X.herm(), rep)[0] - lift(X, rep)[0].herm()).frob() <= 1e-12


def test_lift_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        lift(AlgMatrix.identity(clifford(2, 0), 2), rep_cl41())


def test_unlift_inverts_lift():
    rep = rep_biquat()
    X = random_matrix(rep.source, 3, 2, RNG(2))
    assert (unlift(lift(X, rep), rep, 3, 2) - X).frob() <= 1e-13 * X.frob()


def test_unlift_quaternion_blocks():
    rep = rep_trivial(clifford(0, 2))
    X = random_matrix(rep.source, 2, 3, RNG(3))
    assert (unlift(lift(X, rep), rep, 2, 3) - X).frob() == 0.0


# -- wqr / wsvd ---------------------------------------------------------------------

def test_wqr_identity():
    rep = rep_quadquat()
    I = AlgMatrix.identity(rep.source, 3)
    out = wqr(I, rep)
    assert out.rotations == 0
    assert (out.q - I).frob() == 0.0
    assert (out.r - I).frob() == 0.0


def test_wqr_cl41_exact_triangularisation():
    rep = rep_cl41()
    A = random_matrix(rep.source, 3, 2, RNG(7))
    out = wqr(A, rep, eps=0.0)
    # the lifted 12x8 complex block runs LAPACK: no rotation, and an R
    # exactly upper triangular with a real, non-negative diagonal
    assert out.rotations == 0
    R = complex_ndarray(lift(out.r, rep)[0])
    assert np.all(np.tril(R, -1) == 0.0)
    assert np.all(np.diagonal(R).imag == 0.0)
    assert np.all(np.diagonal(R).real >= 0.0)
    assert out.residual == 0.0
    scale = A.frob()
    assert (out.q @ out.r - A).frob() <= 1e-10 * scale
    assert (out.q.herm() @ out.q
            - AlgMatrix.identity(rep.source, 3)).frob() <= 1e-10


def test_h_block_convergence_error_names_it(monkeypatch):
    # a ConvergenceError from an H block's QR (wqr's, or the one that ends
    # wsvd's) is raised again naming the block, with the inner report
    report = object()

    def failing(*args, **kwargs):
        raise ConvergenceError("forced failure", report)

    monkeypatch.setattr("algdecomp.wedderburn.aqr", failing)
    named = r"^block \d \('H', \d\): forced failure$"
    for rep in (rep_trivial(quaternion_algebra()), _cl04_rep()):
        A = random_matrix(rep.source, 3, 2, RNG(8))
        for run in (wqr, wsvd):
            with pytest.raises(ConvergenceError, match=named) as exc:
                run(A, rep)
            assert exc.value.report is report


def test_wsvd_reconstruction_and_order():
    rep = rep_cl41()
    A = random_matrix(rep.source, 3, 2, RNG(7))
    out = wsvd(A, rep, eps=1e-10)
    scale = A.frob()
    assert (out.u @ out.d @ out.v.herm() - A).frob() <= 1e-10 * scale
    assert out.residual <= 1e-10
    # block singular values decreasing down the lifted diagonal
    B = complex_ndarray(lift(out.d, rep)[0])
    diag = np.abs(np.diagonal(B))
    assert all(diag[t] >= diag[t + 1] - 1e-9 for t in range(len(diag) - 1))


def test_svd_diagonal_confined_to_subalgebra():
    # block-diagonal entries must lift to real diagonal complex blocks,
    # which pins the unlifted diagonal into a 4-dimensional subalgebra
    from algdecomp.wedderburn import diagonal_support_labels
    rep = rep_cl41()
    spec = rep.source
    A = random_matrix(spec, 3, 2, RNG(7))
    out = wsvd(A, rep, eps=1e-10)
    labels = diagonal_support_labels(out.d)
    assert [spec.label_str(l) for l in labels] == ["1", "g1", "g2g5", "g1g2g5"]


def test_engines_agree_on_spectrum():
    rep = rep_cl41()
    A = random_matrix(rep.source, 2, 2, RNG(9))
    jd = asvd(A, eps=1e-10)
    wd = wsvd(A, rep, eps=1e-10)
    sj = np.linalg.svd(complex_ndarray(lift(jd.d, rep)[0]), compute_uv=False)
    sw = np.linalg.svd(complex_ndarray(lift(wd.d, rep)[0]), compute_uv=False)
    assert np.allclose(np.sort(sj), np.sort(sw), atol=1e-6)


# -- wsvd: LAPACK on R and C blocks, the complex adjoint on H blocks ---------------

def _block_spectra(X, rep):
    """numpy's singular values of the real forms of X's lifted blocks."""
    return np.sort(np.concatenate([np.linalg.svd(rmr_lift(B), compute_uv=False)
                                   for B in lift(X, rep)]))


def _checked_wsvd(A, rep, eps):
    out = wsvd(A, rep, eps=eps)
    scale = max(A.frob(), 1.0)
    assert out.residual <= eps
    assert (out.u @ out.d @ out.v.herm() - A).frob() <= 1e-13 * scale
    assert out.u.unitarity_error() <= 1e-13 * A.m
    assert out.v.unitarity_error() <= 1e-13 * A.n
    np.testing.assert_allclose(_block_spectra(out.d, rep),
                               _block_spectra(A, rep), atol=1e-13 * scale)
    return out


@pytest.mark.parametrize("spec,shape,seed,eps", [
    (clifford(4, 1), (6, 4), 5, 1e-10),
    (clifford(4, 1), (4, 4), 0, 1e-10),
    (quadquat(), (3, 2), 803, 1e-8),
])
def test_wsvd_converges_on_close_singular_values(spec, shape, seed, eps):
    # the per-block alternating-QR SVD raised ConvergenceError on these
    # Gaussian inputs (500 QR calls): neighbouring singular values too close
    A = random_matrix(spec, *shape, RNG(seed))
    _checked_wsvd(A, representation_for(spec), eps)


def test_wsvd_converges_on_laurent_frequency_blocks():
    # block 0 (R, 3x2) once missed its QR-call budget
    A = random_matrix(laurent(1), 3, 2, RNG(27), degree=1)
    out = _checked_wsvd(laurent_embed(A, 32), rep_cyclic_dft(1, 32), 1e-10)
    assert out.qrd_calls == 0  # R and C blocks run LAPACK


def test_wsvd_is_scale_free():
    # a power-of-2 scaling scales the singular values (to round-off: LAPACK
    # promises no bit equality across builds) and, since an H block's QR
    # runs on its block scaled to the power of two of its largest
    # coefficient, changes no rotation (the per-block alternating QR once
    # ran out of QR calls at 2^20: its off-diagonal test was absolute)
    for rep in (rep_cl41(), rep_trivial(quaternion_algebra())):
        A = random_matrix(rep.source, 3, 2, RNG(7))
        lay = A.spec.layout()
        outs = {scale: _checked_wsvd(
                    AlgMatrix._of_array(lay, A._array(lay) * scale), rep, 1e-10)
                for scale in (2.0 ** -20, 1.0, 2.0 ** 20)}
        d = outs[1.0].d._array(lay)
        for scale, out in outs.items():
            np.testing.assert_allclose(out.d._array(lay) / scale, d,
                                       rtol=1e-15, atol=1e-15 * np.abs(d).max())
            assert out.block_rotations == outs[1.0].block_rotations
    assert outs[1.0].block_rotations[0] > 0  # quat: its one H block rotates


def test_wsvd_gaussian_cl41_seeds():
    # 8 of these 60 seeds once raised ConvergenceError
    rep = rep_cl41()
    for seed in range(60):
        _checked_wsvd(random_matrix(rep.source, 3, 2, RNG(seed)), rep, 1e-10)


_FIELDS = {"R": real_algebra(), "C": complex_algebra(), "H": quaternion_algebra()}


@settings(max_examples=60)
@given(st.sampled_from("RCH"), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 4), st.integers(1, 4), st.integers(0, 4))
def test_block_svd_matches_numpy(tag, seed, m, n, rank):
    # tall, wide, rank-deficient (a product through rank columns) and zero
    # blocks over R, C and H, through the identity representation
    field, rng = _FIELDS[tag], RNG(seed)
    rank = min(rank, m, n)
    B = (random_matrix(field, m, rank, rng) @ random_matrix(field, rank, n, rng)
         if rank else AlgMatrix.zeros(field, m, n))
    rep = rep_trivial(field)
    out = _checked_wsvd(B, rep, 1e-12)
    lay = field.layout()
    d = out.d._array(lay)[range(min(m, n)), range(min(m, n))]
    tol = 1e-13 * max(B.frob(), 1.0)
    assert np.all(np.abs(d[:, 1:]) <= tol)       # real diagonal,
    assert np.all(np.diff(d[:, 0]) <= tol)       # descending,
    assert np.all(d[:, 0] >= 0.0)                # non-negative
    np.testing.assert_allclose(np.repeat(d[:, 0], field.dim),
                               np.linalg.svd(rmr_lift(B), compute_uv=False),
                               atol=tol)


@settings(max_examples=60)
@given(st.sampled_from("RCH"), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 5), st.integers(1, 5), st.integers(0, 5),
       st.sampled_from([0.0, 1e-10, 1.0]))
@example("H", 0, 5, 3, 1, 1.0)
def test_lapack_blocks_exact_structure(tag, seed, m, n, rank, eps):
    # R and C blocks run LAPACK, and so does an H block's SVD (on the
    # complex adjoint); tall, wide, rank-deficient and zero blocks through
    # the identity representation, which lifts and unlifts exactly.  No
    # block reads wqr's eps: an H block's QR runs at eps 0, one sweep of at
    # most one rotation per below-diagonal entry (at eps 1 a tolerance
    # derived from eps once left entries below the diagonal)
    field, rng = _FIELDS[tag], RNG(seed)
    rank = min(rank, m, n)
    B = (random_matrix(field, m, rank, rng) @ random_matrix(field, rank, n, rng)
         if rank else AlgMatrix.zeros(field, m, n))
    rep, lay, k = rep_trivial(field), field.layout(), min(m, n)
    scale = B.frob()
    below = np.tri(m, n, -1, dtype=bool)

    qr, exact = wqr(B, rep, eps=eps), wqr(B, rep, eps=0.0)
    r = qr.r._array(lay)
    assert qr.q._array(lay).tobytes() == exact.q._array(lay).tobytes()
    assert r.tobytes() == exact.r._array(lay).tobytes()
    assert np.all(r[below] == 0.0)               # exactly upper triangular,
    assert np.all(r[range(k), range(k), 0] >= 0.0)    # a non-negative
    assert np.all(r[range(k), range(k), 1:] == 0.0)   # real diagonal
    if tag == "H":  # an H block's QR runs the rotation engine
        assert qr.sweeps == 1 and qr.rotations <= below.sum()
    else:
        assert (qr.rotations, qr.sweeps) == (0, 0)
    assert qr.q.unitarity_error() <= 1e-14 * m
    assert (qr.q @ qr.r - B).frob() <= 1e-14 * scale

    svd = wsvd(B, rep)
    d = svd.d._array(lay)
    assert np.all(d[~np.eye(m, n, dtype=bool)] == 0.0)   # diagonal,
    assert np.all(d[range(k), range(k), 1:] == 0.0)      # real,
    assert np.all(d[range(k), range(k), 0] >= 0.0)       # non-negative,
    assert np.all(np.diff(d[range(k), range(k), 0]) <= 0.0)  # descending
    assert svd.u.unitarity_error() <= 1e-14 * m
    assert svd.v.unitarity_error() <= 1e-14 * n
    assert (svd.u @ svd.d @ svd.v.herm() - B).frob() <= 1e-14 * scale
    np.testing.assert_allclose(np.repeat(d[range(k), range(k), 0], field.dim),
                               np.linalg.svd(rmr_lift(B), compute_uv=False),
                               atol=1e-13 * scale)
    if tag != "H":
        assert (svd.rotations, svd.sweeps, svd.qrd_calls) == (0, 0, 0)


@settings(max_examples=60)
@given(st.sampled_from(["equal", "pairs", "near", "deficient"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 8),
       st.integers(0, 7))
@example("deficient", 0, 3, 2, 0)
def test_quaternion_svd_clusters(kind, seed, m, n, rank):
    # B = U diag(sigma) V^H over H with clustered singular values: all
    # equal, equal in pairs, 1 + 1e-9 noise, or all but the first rank
    # zero; V's columns must stay independent wherever the adjoint's
    # singular vectors mix (B = 0: numpy's V is the identity, whose column
    # n pairs with column 0)
    quat, rng, k = _FIELDS["H"], RNG(seed), min(m, n)
    rep, lay = rep_trivial(quat), quat.layout()
    sigma = {"equal": lambda: np.ones(k),
             "pairs": lambda: np.repeat(rng.uniform(0.5, 2.0, k), 2)[:k],
             "near": lambda: 1.0 + 1e-9 * rng.standard_normal(k),
             "deficient": lambda: rng.uniform(0.5, 2.0, k)
             * (np.arange(k) < min(rank, k - 1))}[kind]()
    S = np.zeros((m, n, 4))
    S[range(k), range(k), 0] = sigma
    U, V = (wqr(random_matrix(quat, p, p, rng), rep).q for p in (m, n))
    B = U @ AlgMatrix._of_array(lay, S) @ V.herm()
    out = wsvd(B, rep)
    scale, d = B.frob(), out.d._array(lay)[range(k), range(k), 0]
    assert (out.u @ out.d @ out.v.herm() - B).frob() <= 1e-13 * scale
    assert out.u.unitarity_error() <= 1e-13 * m
    assert out.v.unitarity_error() <= 1e-13 * n
    assert np.all(np.diff(d) <= 0.0)  # descending, ties to round-off too
    np.testing.assert_allclose(np.repeat(d, 4),
                               np.linalg.svd(rmr_lift(B), compute_uv=False),
                               atol=1e-13 * scale)


def _first_non_finite_block(A, rep) -> int:
    return next(l for l, B in enumerate(lift(A, rep))
                if not np.isfinite(B._array(B.spec.layout())).all())


def _raises_naming_block(A, rep, block):
    # wqr and wsvd raise before any numpy warning, naming the block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (wqr, wsvd):
            with pytest.raises(ConvergenceError, match="non-finite") as exc:
                run(A, rep)
            assert exc.value.args[0].startswith(
                f"block {block} {rep.blocks[block]}: ")
            assert not exc.value.report.residual <= 1e-10


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("spec,shape", [
    (cyclic(1, 4), (3, 1)), (quadquat(), (2, 3)), (quaternion_algebra(), (2, 2)),
], ids=lambda v: getattr(v, "descriptor", None))
def test_non_finite_block_raises_naming_it(spec, shape, bad):
    # every block's entries are checked before any block runs, LAPACK (R
    # and C; cyclic(1, 4) has one-column DFT blocks) or the rotation engine
    # (H), and the first block whose lifted entries are non-finite is named
    # (cl(4,1): see test_non_finite_entry_raises_before_any_warning)
    A = random_matrix(spec, *shape, RNG(7))
    coeffs = dict(A[shape[0] - 1, 0].coeffs)
    coeffs[spec.unit] = bad
    A[shape[0] - 1, 0] = Element._make(spec, coeffs)  # skips the finite check
    rep = representation_for(spec)
    _raises_naming_block(A, rep, _first_non_finite_block(A, rep))


def test_overflowing_lift_names_its_first_non_finite_block():
    # finite coefficients 1e308 at z^0 and -1e308 at z1 give a block of
    # frequency f the entry 1e308 (1 - w^f1), w = exp(-2 pi i / 8): 0 in
    # block 0 (f = (0, 0)), and past the float range only at f1 = 4, where
    # w^f1 = -1; the block named is the first of those, not block 0
    spec = cyclic(2, 8)
    A = random_matrix(spec, 3, 2, RNG(7))
    coeffs = dict(A[1, 1].coeffs)
    coeffs[spec.unit], coeffs[(1, 0)] = 1e308, -1e308
    A[1, 1] = Element(spec, coeffs)
    rep = representation_for(spec)
    first = _first_non_finite_block(A, rep)
    assert first > 0 and rep.frequencies[first][0] == 4
    _raises_naming_block(A, rep, first)


def test_non_finite_blocks_of_both_groups_name_the_first(monkeypatch):
    # 1e308 at z^0 and -1e308 at z1 z2^2 overflow the blocks of frequency
    # f with f1 + 2 f2 = 4 (mod 8): C blocks 2, 14, 18 and R blocks 29, 33.
    # The R group comes first in rep.groups, but block 2 is named, before
    # any group is factored
    spec = cyclic(2, 8)
    A = random_matrix(spec, 3, 2, RNG(7))
    coeffs = dict(A[1, 1].coeffs)
    coeffs[spec.unit], coeffs[(1, 2)] = 1e308, -1e308
    A[1, 1] = Element(spec, coeffs)
    rep = representation_for(spec)
    assert [l for l, B in enumerate(lift(A, rep))
            if not np.isfinite(B._array(B.spec.layout())).all()] == \
        [2, 14, 18, 29, 33]
    assert (next(iter(rep.groups)), rep.blocks[2]) == (("R", 1), ("C", 1))
    calls = []
    for name in ("qr", "svd"):
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, name=name, **kw: calls.append(name))
    _raises_naming_block(A, rep, 2)
    assert calls == []


def test_lapack_failure_names_the_group(monkeypatch):
    # a LAPACK failure raises naming every block of the failing stacked
    # call: cyclic(2,8)'s R group runs first and succeeds, its C group
    # fails; an H block's SVD calls LAPACK on its complex adjoint.  Each R
    # or C group makes one call, and no block is run again on its own.
    real = {name: getattr(np.linalg, name) for name in ("qr", "svd")}
    calls = []

    def failing_on_complex(name):
        def run(Z, *args, **kwargs):
            calls.append(name)
            if np.iscomplexobj(Z):
                raise np.linalg.LinAlgError("forced failure")
            return real[name](Z, *args, **kwargs)
        return run

    dft, quat = rep_cyclic_dft(2, 8), rep_trivial(quaternion_algebra())
    A = random_matrix(dft.source, 3, 2, RNG(5))
    H = random_matrix(quat.source, 3, 2, RNG(5))
    c_blocks = [l for l, block in enumerate(dft.blocks) if block == ("C", 1)]
    for name in real:
        monkeypatch.setattr(np.linalg, name, failing_on_complex(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run, A, rep, named in (
                (wqr, A, dft, f"blocks {c_blocks} ('C', 1)"),
                (wsvd, A, dft, f"blocks {c_blocks} ('C', 1)"),
                (wsvd, H, quat, "blocks [0] ('H', 1)")):
            with pytest.raises(ConvergenceError) as exc:
                run(A, rep)
            assert exc.value.args[0] == f"{named}: LAPACK: forced failure"
            assert math.isnan(exc.value.report.residual)
    assert calls == ["qr", "qr", "svd", "svd", "svd"]


@pytest.mark.parametrize("spec,shape", [
    (clifford(4, 1), (3, 2)), (clifford(4, 1), (2, 3)), (cyclic(1, 4), (3, 1)),
])
def test_wsvd_non_finite_entry_raises(spec, shape):
    # a NaN Gram entry must not read as converged, nor a NaN residual be
    # returned; a block of one column has no pair to rotate
    A = random_matrix(spec, *shape, RNG(7))
    coeffs = dict(A[0, 0].coeffs)
    coeffs[spec.unit] = math.nan
    A.entries[0][0] = Element._make(spec, coeffs)  # skips the finite check
    with pytest.raises(ConvergenceError, match=r"block \d .*non-finite") as exc:
        wsvd(A, representation_for(spec), eps=1e-10)
    assert not exc.value.report.residual <= 1e-10


def test_quaternion_blocks_decompose_at_any_finite_scale():
    # an H block's QR runs on the block scaled by the power of two of its
    # largest coefficient: wqr and wsvd succeed, with no numpy warning,
    # where squares of the unscaled coefficients overflow (the pivot norm
    # raised "non-finite pivot" from about 1.3e154)
    B = random_matrix(quaternion_algebra(), 3, 2, RNG(3))
    lay, rep = B.spec.layout(), rep_trivial(B.spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e155, 1e160, 1e300):
            big = AlgMatrix._of_array(lay, B._array(lay) * scale)
            qr, svd = wqr(big, rep), wsvd(big, rep)
            assert (qr.q @ qr.r - big).frob() <= 1e-14 * big.frob()
            assert ((svd.u @ svd.d @ svd.v.herm() - big).frob()
                    <= 1e-14 * big.frob())


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("spec", [clifford(4, 1), laurent(1)],
                         ids=lambda spec: spec.descriptor)
def test_non_finite_entry_raises_before_any_warning(spec, bad):
    # lift's product once warned (inf times a zero of fwd) before the block
    # engines' checks, so under -W error the warning was raised instead
    A = random_matrix(spec, 3, 2, RNG(7), degree=1)
    coeffs = dict(A[1, 0].coeffs)
    coeffs[spec.unit] = bad
    A[1, 0] = Element._make(spec, coeffs)  # skips the finite check
    rep = rep_cl41()
    if spec.dim is None:
        A, rep = laurent_embed(A, 8), rep_cyclic_dft(1, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (wqr, wsvd):
            with pytest.raises(ConvergenceError, match="non-finite") as exc:
                run(A, rep)
            assert not exc.value.report.residual <= 1e-10


def test_block_svd_leaves_round_off_columns_alone():
    # columns (x, x, 2x), of rank 1: two of B V's columns are round-off,
    # over a C block (cl(4,1)) and an H block (quat), whose V must still
    # span the adjoint's null space (one-sided Jacobi once kept rotating
    # such columns against each other)
    for spec in (clifford(4, 1), quaternion_algebra()):
        lay = spec.layout()
        x = random_matrix(spec, 3, 1, RNG(1))._array(lay)
        A = AlgMatrix._of_array(lay, np.concatenate([x, x, 2.0 * x], axis=1))
        out = _checked_wsvd(A, representation_for(spec), 1e-10)
        np.testing.assert_allclose(spectrum_oracle(out.d), spectrum_oracle(A),
                                   atol=1e-14 * A.frob())


def _numpy_block_factors(tag, x):
    """numpy's factors of one lifted block with field coefficients x, as
    field coefficients: the complete QR with R's diagonal made real and
    non-negative, and the SVD (D = diag(s), V = Vh^H).  An H block goes
    through its complex adjoint with rows and columns interleaved, where
    chi(R) stays upper triangular, so only its unique factors come back:
    R and D."""
    if tag == "H":
        B1, B2 = x[..., 0] + 1j * x[..., 1], x[..., 2] + 1j * x[..., 3]
        Z = np.zeros((2 * x.shape[0], 2 * x.shape[1]), dtype=complex)
        Z[0::2, 0::2], Z[0::2, 1::2] = B1, B2
        Z[1::2, 0::2], Z[1::2, 1::2] = -B2.conj(), B1.conj()
    else:
        Z = x[..., 0] + 1j * x[..., 1] if tag == "C" else x[..., 0]
    Q, R = np.linalg.qr(Z, mode="complete")
    k = min(Z.shape)
    phase = np.exp(1j * np.angle(np.diagonal(R)))
    phase = phase.real if tag == "R" else phase
    Q[:, :k] *= phase
    R[:k] *= phase.conj()[:, None]
    U, sv, Vh = np.linalg.svd(Z)
    D = np.zeros(Z.shape)
    D[range(len(sv)), range(len(sv))] = sv
    if tag == "H":
        R1, R2 = R[0::2, 0::2], R[0::2, 1::2]
        d = np.zeros(R1.shape + (4,))
        d[..., 0] = D[0::2, 0::2]
        return {"r": np.stack([R1.real, R1.imag, R2.real, R2.imag], -1),
                "d": d}
    coeffs = ((lambda F: np.stack([F.real, F.imag], -1)) if tag == "C"
              else (lambda F: F.real[..., None]))
    return {name: coeffs(F) for name, F in
            (("q", Q), ("r", R), ("u", U), ("d", D), ("v", Vh.conj().T))}


def _cl04_rep():
    spec, images = _rep_cl04()
    return Representation(spec, (("H", 2),), images, name="cl04->H2x2")


@pytest.mark.parametrize("make_rep", [
    lambda: representation_for(cyclic(2, 8)),
    lambda: representation_for(cyclic(1, 32)), rep_cl41, _cl04_rep,
], ids=["cyclic(2,8)", "cyclic(1,32)", "cl(4,1)", "cl(0,4)"])
@pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
def test_factors_match_a_per_block_numpy_reference(make_rep, shape):
    # wqr and wsvd factor each (field, size) group of blocks in one stacked
    # call; the reference lifts, factors block by block with numpy and
    # unlifts (cyclic(2,8) interleaves R and C blocks)
    rep = make_rep()
    A = random_matrix(rep.source, *shape, RNG(50))
    blocks = lift(A, rep)
    ref = [_numpy_block_factors(tag, B._array(B.spec.layout()))
           for (tag, _), B in zip(rep.blocks, blocks)]
    m, n = shape
    qr, svd = wqr(A, rep), wsvd(A, rep)
    for name, got, rows, cols in (("q", qr.q, m, m), ("r", qr.r, m, n),
                                  ("u", svd.u, m, m), ("d", svd.d, m, n),
                                  ("v", svd.v, n, n)):
        if name not in ref[0]:
            continue
        want = unlift([AlgMatrix._of_array(B.spec.layout(), r[name])
                       for B, r in zip(blocks, ref)], rep, rows, cols)
        assert (got - want).frob() <= 1e-14 * want.frob(), name


_PIN_REPS = {
    "cyclic(1,32)": lambda: representation_for(cyclic(1, 32)),
    "cyclic(2,8)": lambda: representation_for(cyclic(2, 8)),
    "cl(4,1)": rep_cl41, "quadquat": rep_quadquat, "biquat": rep_biquat,
    "quat": lambda: rep_trivial(quaternion_algebra()), "cl(0,4)": _cl04_rep,
}


# counts: wqr's rotations and sweeps, wsvd's rotations, QR calls and sweeps;
# digests: wqr's Q and R, wsvd's U, D and V, and unlift(lift(A)).  Seed 1;
# R and C blocks give LAPACK's bytes, which hold within one numpy build
@pytest.mark.parametrize("name,shape,counts,digests", [
    ("cyclic(1,32)", (3, 2), (0, 0, 0, 0, 0), (
        "62647d32165d3dec", "9c31fc2fb67d344f", "ae03d4d9b16ad33f",
        "1f25a83b8efca9ec", "eea8245d8870a773", "afb3ffccd8930979")),
    ("cyclic(1,32)", (2, 3), (0, 0, 0, 0, 0), (
        "76764b0105875b02", "bd7fcca4602e9595", "edc5495eb55455d9",
        "ab841dd48d107d21", "c6fe0bed7f4952d1", "0bf3289b5bc16a9a")),
    ("cyclic(2,8)", (3, 2), (0, 0, 0, 0, 0), (
        "428f0182ac2a999e", "76e073900b24c82b", "707654d666d01d6b",
        "31834924ed470f74", "f44fdf44cb1ffe43", "db81752ca5b05cc6")),
    ("cyclic(2,8)", (2, 3), (0, 0, 0, 0, 0), (
        "a35010cab4b42475", "110052eed0697dd1", "d58f2b565d2ccde6",
        "a9dd06bc6465b665", "b4f6f4794d12120f", "a89eb92e5b5ce9cb")),
    ("cl(4,1)", (3, 2), (0, 0, 0, 0, 0), (
        "02f6ef2629911262", "5d3150b929d7a756", "534035f95d6841b3",
        "653a994083f563a0", "dcfe2dd9ad338731", "50125f028a3e626b")),
    ("cl(4,1)", (2, 3), (0, 0, 0, 0, 0), (
        "bff147a1a99e0cd0", "860e2f96f80311fe", "bdcf0b43db572dd2",
        "9a70f55c66409f70", "8a88dea123c5a5aa", "7e81a74361f6f6fa")),
    ("quadquat", (3, 2), (0, 0, 0, 0, 0), (
        "fc9071c1e67c2025", "c1ab2ce458c4470f", "6203af0aa924f05c",
        "c662d44d8615fae4", "929276fc95d79950", "55f25a3f107f1ce8")),
    ("quadquat", (2, 3), (0, 0, 0, 0, 0), (
        "b70c465d31c3a772", "0928b840f829d413", "5e55f2f7e9cac097",
        "962e760c3d2192aa", "65b16c343d2fb954", "912ef40b815a37d6")),
    ("biquat", (3, 2), (0, 0, 0, 0, 0), (
        "c87052821b087e9e", "b6455dcac4817ab7", "1ad90fe3e92ab55e",
        "dfa4290a2b580291", "4c4b6a3654671ec6", "a024506c6a80b061")),
    ("biquat", (2, 3), (0, 0, 0, 0, 0), (
        "1e7c4c8dff12d7ea", "7384baf3c5da688a", "5a2847ab335b4218",
        "b9840c9df839f647", "6fe6bcd2d2d152f8", "6e022830a956bf34")),
    ("quat", (3, 2), (3, 1, 3, 1, 1), (
        "575337e81b0afec5", "f51f0eb7c6d781a9", "1e942c19406dd732",
        "7c3be4c21297fd8e", "189cf5a347698877", "bb230baf586f49cf")),
    ("quat", (2, 3), (1, 1, 3, 1, 1), (
        "35a9563452b7f567", "eb4bc2904cb28103", "a3079f9074ba9024",
        "ee26317fc56e6b16", "9e70954a8dc9d5a2", "6051aeccea2226fa")),
    ("cl(0,4)", (3, 2), (14, 1, 14, 1, 1), (
        "65a9d20fe969fd55", "15b867b18e418828", "6f4cc599afdb7c46",
        "aa5d2cdaca38882b", "1aeed44595862e9e", "8a049c8a6d9809c8")),
    ("cl(0,4)", (2, 3), (6, 1, 14, 1, 1), (
        "45eef9ff84f0aa7e", "2e86a98e26011a33", "e119c866d8141057",
        "b2cf205471eebcec", "3c5e2e777b9d71b9", "8dce243ea055d349")),
])
def test_factors_counts_and_round_trip_pinned(name, shape, counts, digests):
    rep, rng = _PIN_REPS[name](), RNG(1)
    if name == "cyclic(1,32)":  # the Laurent frequency route
        A = laurent_embed(random_matrix(laurent(1), *shape, rng, degree=1), 32)
    else:
        A = random_matrix(rep.source, *shape, rng)
    q, s = wqr(A, rep), wsvd(A, rep)
    assert (q.rotations, q.sweeps, s.rotations, s.qrd_calls, s.sweeps) == counts
    for out in (q, s):  # no rep here has an H block beside another block
        assert out.block_rotations == tuple(
            out.rotations if tag == "H" else 0 for tag, _ in rep.blocks)
    round_trip = unlift(lift(A, rep), rep, *shape)
    assert tuple(map(digest, (q.q, q.r, s.u, s.d, s.v, round_trip))) == digests


def test_blocks_decompose_independently():
    rep = rep_cyclic_dft(1, 8)
    A = random_matrix(rep.source, 2, 2, RNG(10))
    blocks = lift(A, rep)
    once = [aqr(B, beta="division", norm="two", eps=0.0) for B in blocks]
    again = [aqr(B, beta="division", norm="two", eps=0.0)
             for B in reversed(blocks)][::-1]
    for a, b in zip(once, again):
        for i in range(a.r.m):
            for j in range(a.r.n):
                assert a.r[i, j].coeffs == b.r[i, j].coeffs


# -- idempotents -----------------------------------------------------------------------

def test_split_complex_idempotents():
    ds = direct_sum_pm(real_algebra(), real_algebra())
    plus, minus = ds.labels
    idem = IdempotentSet(ds, (
        Element(ds, {plus: 0.5, minus: 0.5}),
        Element(ds, {plus: 0.5, minus: -0.5})))
    assert idem.residual() == 0.0
    A = random_matrix(ds, 2, 2, RNG(11))
    parts = idempotent_split(A, idem)
    assert (idempotent_join(parts, idem) - A).frob() <= 1e-15 * A.frob()


def test_split_makes_no_element_products(monkeypatch):
    # the laws are checked on one layout product, not k^2 Element products
    rep = representation_for(cyclic(2, 8))
    idem = rep.idempotents()
    A = random_matrix(rep.source, 3, 2, RNG(3))
    calls, mul = [], Element.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(Element, "__mul__", counting)
    parts = idempotent_split(A, idem)
    assert len(parts) == len(idem.elements) == 34 and not calls
    assert (idempotent_join(parts, idem) - A).frob() <= 1e-13 * A.frob()


def _laws_oracle(idem):
    # the idempotent, self-adjoint, orthogonal and partition laws, entry-wise
    worst, one = 0.0, idem.spec.one()
    for k, e in enumerate(idem.elements):
        worst = max(worst, (e * e - e).norm_inf(), (e.conj() - e).norm_inf(),
                    *((e * f).norm_inf() for l, f in enumerate(idem.elements)
                      if l != k))
    total = sum(idem.elements[1:], idem.elements[0])
    return max(worst, (total - one).norm_inf())


@pytest.mark.parametrize("make", [
    lambda s: (s.scalar(0.5) + s.basis_element((1,), 0.5),
               s.scalar(0.5) + s.basis_element((1,), -0.5)),
    lambda s: (s.one(), s.one()),                            # not orthogonal
    lambda s: (s.scalar(2.0),),                              # not idempotent
    lambda s: (s.scalar(0.5) + s.basis_element((1,), 0.5),),  # no partition
    lambda s: (s.basis_element((1,), 0.5),
               s.one() - s.basis_element((1,), 0.5)),        # not self-adjoint
], ids=["valid", "orthogonal", "idempotent", "partition", "adjoint"])
def test_idempotent_residual_equals_the_entrywise_laws(make):
    spec = cyclic(1, 4)
    idem = IdempotentSet(spec, make(spec))
    assert math.isclose(idem.residual(), _laws_oracle(idem), abs_tol=1e-15)


def test_dft_idempotents():
    rep = rep_cyclic_dft(1, 4)
    idem = rep.idempotents()
    assert len(idem.elements) == 3
    assert idem.residual() <= 1e-13
    total = idem.elements[0]
    for e in idem.elements[1:]:
        total = total + e
    assert (total - rep.source.one()).norm_inf() <= 1e-13
    for k, e in enumerate(idem.elements):
        for l, f in enumerate(idem.elements):
            if k != l:
                assert (e * f).norm_inf() <= 1e-13


def test_invalid_idempotents_rejected():
    spec = cyclic(1, 4)
    bad = IdempotentSet(spec, (spec.one(), spec.one()))
    with pytest.raises(AlgebraError):
        idempotent_split(AlgMatrix.identity(spec, 2), bad)


def test_split_decompositions_add_up():
    # QR each projected part, then join: still a QR of the whole matrix
    rep = rep_cyclic_dft(1, 4)
    idem = rep.idempotents()
    A = random_matrix(rep.source, 2, 2, RNG(12))
    parts = idempotent_split(A, idem)
    qs, rs = [], []
    for part, e in zip(parts, idem.elements):
        sub = aqr(part, beta="basis", norm="inf", eps=1e-11)
        qs.append(AlgMatrix(A.spec, [[x * e for x in row]
                                     for row in sub.q.entries]))
        rs.append(AlgMatrix(A.spec, [[x * e for x in row]
                                     for row in sub.r.entries]))
    Q = idempotent_join(qs, idem)
    R = idempotent_join(rs, idem)
    assert (Q @ R - A).frob() <= 1e-9 * A.frob()
    assert (Q.herm() @ Q - AlgMatrix.identity(A.spec, 2)).frob() <= 1e-9


# -- Laurent transport ---------------------------------------------------------------

def test_embed_round_trip():
    L = laurent(1)
    A = random_matrix(L, 2, 2, RNG(13), degree=1)
    C = laurent_embed(A, 8)
    assert (laurent_unembed(C) - A).frob() == 0.0


def test_embed_rejects_small_modulus():
    L = laurent(1)
    A = AlgMatrix(L, [[L.basis_element((3,))]])
    with pytest.raises(AlgebraError, match="delta=4 too small .* need even "
                                           "delta >= 8"):
        laurent_embed(A, 4)


@pytest.mark.parametrize("delta", [7, 9])
def test_embed_rejects_odd_modulus(delta):
    # an odd delta was once reported as too small, 9 included
    L = laurent(1)
    A = AlgMatrix(L, [[L.basis_element((3,))]])
    with pytest.raises(AlgebraError, match=f"delta={delta} is odd") as exc:
        laurent_embed(A, delta)
    assert "small" not in str(exc.value)


def test_dft_route_matches_frequency_oracle():
    L = laurent(1)
    A = random_matrix(L, 2, 2, RNG(14), degree=1)
    delta = 8
    rep = rep_cyclic_dft(1, delta)
    out = wsvd(laurent_embed(A, delta), rep, eps=1e-12)
    blocks = lift(out.d, rep)
    for (tag, _), f, B in zip(rep.blocks, rep.frequencies, blocks):
        M = eval_laurent(A, np.exp(-2j * np.pi * f[0] / delta))
        oracle = np.sort(np.linalg.svd(M, compute_uv=False))[::-1]
        got = np.array([abs(complex(B[t, t].coeffs.get(0, 0.0),
                                    B[t, t].coeffs.get(1, 0.0)))
                        for t in range(2)])
        assert np.allclose(got, oracle, atol=1e-9), f


def test_embed_requires_laurent():
    with pytest.raises(SpecMismatchError):
        laurent_embed(AlgMatrix.identity(clifford(1, 0), 2), 8)
    with pytest.raises(SpecMismatchError):
        laurent_unembed(AlgMatrix.identity(clifford(1, 0), 2))
