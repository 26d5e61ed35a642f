"""Block-representation engine: reps, lifting, QR/SVD, idempotents, DFT."""

import numpy as np
import pytest
from algdecomp import (AlgebraError, AlgMatrix, Element, IdempotentSet,
                       Representation, SpecMismatchError, aqr, asvd, clifford,
                       cyclic, direct_sum_pm, idempotent_join, idempotent_split,
                       laurent, laurent_embed, laurent_unembed, lift, quadquat,
                       random_matrix, real_algebra, rep_biquat, rep_cl41,
                       rep_cyclic_dft, rep_quadquat, rep_trivial,
                       representation_for, unlift, wqr, wsvd)
from oracles import (complex_ndarray, eval_laurent, quat_matmul,
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
    images = {lab: [M.copy() for M in mats]
              for lab, mats in good._basis_images.items()}
    bad_label = good.source.labels[3]
    images[bad_label] = [-images[bad_label][0]]
    with pytest.raises(AlgebraError, match="multiplicative"):
        Representation(good.source, good.blocks, images, name="corrupted")


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
    # the lifted block is 12x8: one rotation per below-diagonal entry
    assert 60 <= out.rotations <= 100
    assert out.residual == 0.0
    scale = A.frob()
    assert (out.q @ out.r - A).frob() <= 1e-10 * scale
    assert (out.q.herm() @ out.q
            - AlgMatrix.identity(rep.source, 3)).frob() <= 1e-10


def test_wqr_convergence_error_names_block():
    rep = rep_cl41()
    A = random_matrix(rep.source, 3, 2, RNG(8))
    # max_sweeps=0 is rejected upstream; use an impossible budget instead
    with pytest.raises(AlgebraError):
        wqr(A, rep, eps=0.0, max_sweeps=0)


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
    with pytest.raises(AlgebraError, match="need even delta >= 8"):
        laurent_embed(A, 4)
    with pytest.raises(AlgebraError):
        laurent_embed(A, 9)  # odd


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
