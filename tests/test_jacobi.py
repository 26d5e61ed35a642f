"""Rotation engine: beta functions, Givens mechanics, QR/SVD contracts."""

import math
import warnings

import numpy as np
import pytest
from algdecomp import (AlgebraError, AlgMatrix, ConvergenceError, Element,
                       GivensParams, apply_givens_left, apply_shift_left, aqr,
                       asvd, beta_basis, beta_division, beta_prime, biquat,
                       clifford, complex_algebra, cyclic, decency_check,
                       givens_matrix, jacobi, laurent, laurent_embed,
                       quadquat, quaternion_algebra, random_element,
                       random_matrix, rep_cl41, rep_cyclic_dft,
                       rep_trivial, representation_for, wqr, wsvd)
from algdecomp import catalog
from algdecomp.cli import check_contract
from algdecomp.core import _exponent
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import digest, spectrum_oracle


def elem(spec, pairs):
    return Element(spec, pairs)


# -- beta functions -----------------------------------------------------------

def test_beta_basis_picks_largest():
    spec = clifford(2, 0)
    a = Element(spec, {0b01: 2.0, 0b10: -3.0})
    assert beta_basis(a) == spec.basis_element(0b10)


def test_beta_basis_zero_gives_one():
    spec = clifford(2, 0)
    assert beta_basis(spec.zero()) == spec.one()


def test_beta_basis_laurent_monomial():
    L = laurent(1)
    a = Element(L, {(-2,): 1.0, (3,): 5.0})
    assert beta_basis(a) == L.basis_element((3,))


def test_beta_basis_tie_break_canonical():
    spec = clifford(2, 0)
    a = Element(spec, {0b10: 1.0, 0b01: 1.0})
    assert beta_basis(a) == spec.basis_element(0b01)  # g1 before g2


@pytest.mark.parametrize("spec", [clifford(4, 1), laurent(1)],
                         ids=lambda spec: spec.descriptor)
def test_beta_basis_orders_only_tied_labels(spec, monkeypatch):
    # ties among the largest coefficients break toward the earliest label in
    # sort_key's order, which is the layout's position order: the engine's
    # step reads positions, so sort_key is never called, tie or not
    calls, key = [], type(spec).sort_key
    monkeypatch.setattr(type(spec), "sort_key",
                        lambda self, lab: calls.append(lab) or key(self, lab))
    a = random_element(spec, np.random.default_rng(0), degree=1)
    assert beta_basis(a) == spec.basis_element(
        max(a.coeffs, key=lambda lab: abs(a.coeffs[lab])))
    assert calls == []
    first, second, third = sorted(a.coeffs, key=lambda lab: key(spec, lab))[:3]
    tie = Element(spec, {third: 1.0, second: -2.0, first: 2.0})
    assert beta_basis(tie) == spec.basis_element(first)
    assert calls == []


def test_beta_division_complex():
    C = clifford(0, 1)
    a = Element(C, {0: 3.0, 1: 4.0})
    assert (beta_division(a) - a / 5.0).norm2() < 1e-15


def test_beta_division_aligns_norm():
    H = clifford(0, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_element(H, rng)
        val = (beta_division(a).conj() * a).re()
        assert math.isclose(val, a.norm2(), rel_tol=1e-12)


def test_beta_division_stores_no_zero():
    # b's second term, 5e-324 / 2, rounds to 0.0, which was once stored
    H = quaternion_algebra()
    b = beta_division(Element(H, {0: 2.0, 1: 5e-324}))
    assert b == Element(H, {0: 1.0})


def test_beta_division_zero_and_domain():
    H = clifford(0, 2)
    assert beta_division(H.zero()) == H.one()
    with pytest.raises(AlgebraError):
        beta_division(clifford(2, 0).one())


@pytest.mark.parametrize("spec", [complex_algebra(), quaternion_algebra()],
                         ids=lambda spec: spec.descriptor)
@pytest.mark.parametrize("x", [1e200, 1e-170, 2.0 ** -1060],
                         ids=["huge", "tiny", "subnormal"])
def test_beta_division_out_of_the_float_range(spec, x):
    # a / ||a||_2 once gave b = 0 when the squares overflowed (aqr then
    # returned a Q with unitarity error 1 and no error) and raised
    # ZeroDivisionError when they underflowed
    g1 = spec.labels[1]
    b = beta_division(Element(spec, {g1: x, spec.unit: x / 4}))
    want = Element(spec, {g1: 4.0, spec.unit: 1.0}) / math.sqrt(17.0)
    assert (b - want).norm_inf() <= 2e-16
    A = AlgMatrix(spec, [[spec.basis_element(g1, x)], [spec.one()]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qr = aqr(A, norm="inf", eps=0.0)
    assert qr.q.unitarity_error() <= 1e-15
    assert (qr.q @ qr.r - A).frob() <= 1e-15 * A.frob()


def test_beta_prime_passthrough_when_decent():
    H = clifford(0, 2)
    rng = np.random.default_rng(1)
    wrapped = beta_prime(beta_basis)
    for _ in range(20):
        a = random_element(H, rng)
        assert wrapped(a) == beta_basis(a)


def test_beta_prime_falls_back_to_one():
    spec = clifford(1, 0)
    a = Element(spec, {0: 5.0, 1: 1.0})

    def inner(_):
        return spec.basis_element(1)

    # |Re(conj(g1) a)| = 1 < |Re(a)| = 5, so the wrapper must return 1
    assert beta_prime(inner)(a) == spec.one()
    assert beta_prime(inner)(spec.zero()) == spec.one()


# -- Givens mechanics ----------------------------------------------------------

def test_zero_angle_is_identity():
    spec = clifford(2, 1)
    rng = np.random.default_rng(2)
    X = random_matrix(spec, 3, 2, rng)
    g = GivensParams(0.0, spec.basis_element(0b11), 2, 0)
    assert (apply_givens_left(X, g) - X).frob() == 0.0


def test_givens_matrix_hermitian_inverse():
    spec = clifford(0, 2)
    b = spec.basis_element(0b01)
    G = givens_matrix(spec, 3, GivensParams(0.7, b, 2, 1))
    Gm = givens_matrix(spec, 3, GivensParams(-0.7, b, 2, 1))
    assert (G.herm() - Gm).frob() < 1e-15
    assert (G.herm() @ G - AlgMatrix.identity(spec, 3)).frob() < 1e-15


def test_real_two_vector_rotation():
    R = clifford(0, 0)
    v = AlgMatrix(R, [[R.scalar(1.0)], [R.scalar(1.0)]])
    theta = -math.atan2(1.0, 1.0)
    w = apply_givens_left(v, GivensParams(theta, R.one(), 1, 0))
    assert math.isclose(w[0, 0].re(), math.sqrt(2), rel_tol=1e-15)
    assert abs(w[1, 0].re()) < 1e-15


def test_rotation_real_part_identity():
    # after the pivot-aligning angle, Re(w_j)^2 = Re(v_j)^2 + Re(conj(b) v_i)^2
    spec = clifford(3, 0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = random_matrix(spec, 4, 1, rng)
        b = spec.basis_element(spec.labels[rng.integers(spec.dim)])
        i = int(rng.integers(1, 4))
        j = int(rng.integers(0, i))
        y = (b.conj() * v[i, 0]).re()
        x = v[j, 0].re()
        w = apply_givens_left(v, GivensParams(-math.atan2(y, x), b, i, j))
        assert math.isclose(w[j, 0].re() ** 2, x * x + y * y,
                            rel_tol=1e-12, abs_tol=1e-12)


def test_rotation_touches_only_two_rows_and_preserves_frob():
    spec = quadquat()
    rng = np.random.default_rng(4)
    X = random_matrix(spec, 4, 3, rng)
    b = spec.basis_element(spec.labels[5])
    Y = apply_givens_left(X, GivensParams(0.37, b, 2, 0))
    for r in (1, 3):
        for c in range(3):
            assert Y[r, c] == X[r, c]
    assert math.isclose(Y.frob(), X.frob(), rel_tol=1e-13)


def test_shift_left_scales_one_row():
    spec = clifford(0, 1)
    rng = np.random.default_rng(5)
    X = random_matrix(spec, 3, 2, rng)
    b = spec.basis_element(1)
    Y = apply_shift_left(X, b, 1)
    assert Y[1, 0] == b * X[1, 0]
    assert Y[0, 0] == X[0, 0]


def test_shift_right_scales_one_column():
    from algdecomp import apply_shift_right
    spec = clifford(0, 2)
    rng = np.random.default_rng(22)
    X = random_matrix(spec, 2, 3, rng)
    b = spec.basis_element(0b10)
    Y = apply_shift_right(X, b, 2)
    assert Y[0, 2] == X[0, 2] * b  # right multiplication, order matters
    assert Y[0, 1] == X[0, 1]


def test_non_unitary_shift_rejected():
    spec = clifford(1, 0)
    X = AlgMatrix.identity(spec, 2)
    with pytest.raises(AlgebraError):
        apply_shift_left(X, Element(spec, {0: 1.0, 1: 1.0}), 0)


def test_indecent_beta_flagged_in_report():
    spec = clifford(1, 0)
    A = AlgMatrix(spec, [[Element(spec, {0: 5.0, 1: 1.0})],
                         [Element(spec, {0: 1.0, 1: 0.5})]])

    def shrinking(a):  # drops |Re| on the pivot: fails condition (2)
        return a.spec.basis_element(1)

    try:
        rep = aqr(A, beta=shrinking, eps=1e-8, max_sweeps=3)
    except ConvergenceError as exc:
        rep = exc.report
    assert rep.decency_warnings > 0


# -- QR ---------------------------------------------------------------------------

def test_qr_identity_needs_no_rotations():
    spec = clifford(2, 1)
    rep = aqr(AlgMatrix.identity(spec, 3), eps=1e-12)
    assert rep.rotations == 0
    assert rep.sweeps == 1
    assert (rep.r - AlgMatrix.identity(spec, 3)).frob() == 0.0
    assert (rep.q - AlgMatrix.identity(spec, 3)).frob() == 0.0


def test_qr_real_flip_hand_trace():
    R = clifford(0, 0)
    A = AlgMatrix(R, [[R.scalar(0), R.scalar(1)], [R.scalar(1), R.scalar(0)]])
    rep = aqr(A, eps=0.0)
    assert rep.rotations == 1
    assert rep.sweeps == 1
    assert (rep.r - AlgMatrix.identity(R, 2)).frob() < 1e-15
    assert ((rep.q @ rep.r) - A).frob() < 1e-15


@pytest.mark.parametrize("spec", [clifford(0, 1), clifford(0, 2)])
def test_qr_division_exact_termination(spec):
    rng = np.random.default_rng(6)
    A = random_matrix(spec, 6, 4, rng)
    rep = aqr(A, eps=0.0)
    # one rotation per below-diagonal position, one sweep
    assert rep.rotations == sum(6 - k for k in range(1, 5))
    assert rep.sweeps == 1
    assert rep.residual == 0.0
    for j in range(4):
        for i in range(j + 1, 6):
            assert rep.r[i, j].norm2() == 0.0
    scale = A.frob()
    for k in range(4):
        dkk = rep.r[k, k]
        assert dkk.re() >= 0.0
        assert (dkk - spec.scalar(dkk.re())).norm2() <= 1e-13 * scale
    assert (rep.q @ rep.r - A).frob() <= 1e-12 * scale


def test_qr_rotation_count_skips_zero_entries():
    # exact termination rotates once per below-diagonal entry that is
    # nonzero when its column is processed; a zero in the first column is
    # never repopulated, so it saves its rotation
    H = clifford(0, 2)
    rng = np.random.default_rng(20)
    A = random_matrix(H, 6, 4, rng)
    A[3, 0] = H.zero()
    rep = aqr(A, eps=0.0)
    assert rep.rotations == 14 - 1
    assert rep.sweeps == 1
    assert rep.residual == 0.0


def test_svd_spectrum_matches_rmr_oracle():
    spec = clifford(2, 1)
    rng = np.random.default_rng(21)
    A = random_matrix(spec, 3, 2, rng)
    rep = asvd(A, eps=1e-11)
    assert np.allclose(spectrum_oracle(A), spectrum_oracle(rep.d), atol=1e-7)


def test_qr_eps_validation():
    spec = clifford(2, 0)
    A = AlgMatrix.identity(spec, 2)
    with pytest.raises(AlgebraError):
        aqr(A, eps=0.0)  # basis beta cannot promise exact termination
    with pytest.raises(AlgebraError):
        aqr(A, eps=-1.0)
    with pytest.raises(AlgebraError):
        aqr(A, max_sweeps=0)


@pytest.mark.parametrize("eps,trim", [
    (math.nan, 0.0), (-1e-3, 0.0), (math.inf, 0.0), (1e-10, 1.0),
    (1e-10, 2.0), (1e-10, math.nan), (1e-10, -1.0)])
def test_bad_eps_and_trim_are_rejected(eps, trim):
    # trim=2 once returned Q = R = 0 with residual 0, trim=nan or -1 turned
    # trimming off, eps=nan ran to the sweep or rotation budget, and
    # eps=inf ran no sweep: aqr reported residual inf and asvd returned D = A
    A = random_matrix(clifford(2, 1), 3, 2, np.random.default_rng(0))
    L = random_matrix(laurent(1), 3, 2, np.random.default_rng(0), degree=1)
    for X in (A, L):
        with pytest.raises(AlgebraError, match="eps|trim"):
            aqr(X, eps=eps, trim=trim)
        with pytest.raises(AlgebraError, match="eps|trim"):
            asvd(X, eps=eps, trim=trim)
    if trim == 0.0:
        rep = representation_for(biquat())
        B = random_matrix(biquat(), 3, 2, np.random.default_rng(0))
        with pytest.raises(AlgebraError, match="eps"):
            wqr(B, rep, eps=eps)
        with pytest.raises(AlgebraError, match="eps"):
            wsvd(B, rep, eps=eps)


@pytest.mark.parametrize("spec,shape", [
    (clifford(2, 0), (3, 3)), (clifford(1, 2), (4, 3)),
    (quadquat(), (3, 3)), (biquat(), (3, 4)), (cyclic(1, 8), (3, 3)),
])
def test_qr_reconstruction_contract(spec, shape):
    rng = np.random.default_rng(7)
    A = random_matrix(spec, *shape, rng)
    rep = aqr(A, eps=1e-10)
    scale = A.frob()
    assert (rep.q @ rep.r - A).frob() <= 1e-10 * scale
    assert (rep.q.herm() @ rep.q
            - AlgMatrix.identity(spec, A.m)).frob() <= 1e-11 * A.m
    assert rep.residual <= 1e-10
    for k in range(min(A.m, A.n)):
        assert rep.r[k, k].re() >= 0.0


def test_qr_invariants_via_steps(monkeypatch):
    # R after every shift and rotation, read where aqr's work array is
    # rotated: its columns 0..n-1 hold R scaled by 2^-e, 2^e the power of
    # two just above A's largest coefficient
    spec = clifford(2, 1)
    rng = np.random.default_rng(8)
    A = random_matrix(spec, 4, 3, rng)
    e = _exponent(A._array(spec.layout()))
    norms = []
    tops = []
    rotate_rows = jacobi._rotate_rows

    def watch(*args):
        lay, x = rotate_rows(*args)
        norms.append(float(np.linalg.norm(x[:A.n])))
        tops.append(x[0, 0, lay.unit] ** 2)
        return lay, x

    monkeypatch.setattr(jacobi, "_rotate_rows", watch)
    aqr(A, eps=1e-9)
    base = math.ldexp(A.frob(), -e)
    assert len(norms) > 10
    assert all(abs(f - base) <= 1e-12 * base for f in norms)
    assert all(b >= a - 1e-13 * max(base ** 2, 1.0)
               for a, b in zip(tops, tops[1:]))


def test_qr_convergence_error_carries_partials():
    C = clifford(0, 1)
    A = AlgMatrix(C, [[C.scalar(1)], [C.basis_element(1)]])

    def indecent(a):
        return a.spec.one()

    with pytest.raises(ConvergenceError) as exc:
        aqr(A, beta=indecent, eps=1e-10, max_sweeps=5)
    rep = exc.value.report
    assert rep.q is not None and rep.r is not None
    assert rep.stalled_pivots > 0
    assert rep.residual > 1e-10


def test_qr_trim_runs_and_reports():
    L = laurent(1)
    rng = np.random.default_rng(9)
    A = random_matrix(L, 3, 2, rng, degree=1)
    rep = aqr(A, eps=1e-6, trim=1e-10)
    assert (rep.q @ rep.r - A).frob() <= 1e-5 * A.frob()
    assert rep.trimmed >= 0


# -- pinned counts and factors -----------------------------------------------------
#
# Digests of the factor files (matio's canonical JSON, floats in repr) as
# rotating Element by Element produced them.  The array kernel does the same
# floating-point operations for beta_basis under the sup norm, on finite
# and Laurent specs alike, so these hold bit for bit.

@pytest.mark.parametrize("trim,trimmed,digests", [
    (0.0, 0, ("bca450fde69c6231", "5112cdebfb5f92e1")),
    (1e-6, 322, ("d6387f03b2256332", "96099d2fea20a3e2")),
])
def test_qr_counts_and_factors_pinned(trim, trimmed, digests):
    A = random_matrix(clifford(4, 1), 3, 2, np.random.default_rng(7))
    rep = aqr(A, beta="basis", norm="inf", eps=1e-10, trim=trim)
    assert (rep.rotations, rep.sweeps, rep.trimmed) == (1110, 2, trimmed)
    assert (digest(rep.q), digest(rep.r)) == digests


def test_svd_counts_pinned():
    A = random_matrix(quadquat(), 3, 2, np.random.default_rng(7))
    rep = asvd(A, beta="basis", norm="inf", eps=1e-10)
    assert (rep.rotations, rep.qrd_calls, rep.sweeps) == (2529, 114, 115)
    assert digest(rep.d) == "25529c0dec316a06"


@pytest.mark.parametrize("kappa,m,n,seed,eps,trim,counts,digests", [
    (1, 3, 2, 3, 1e-8, 1e-9, (548, 2, 53731),
     ("dc427c9f2db2c2e3", "5949e9c88d2d4c7a")),
    (2, 2, 2, 1, 1e-2, 1e-4, (112, 1, 53100),
     ("82317164c4d82985", "89e82766ee72b6ab")),
    (3, 2, 1, 1, 1e-1, 1e-4, (114, 1, 418469),
     ("6ded5e33db779708", "81e36d7f74dcf81c")),
])
def test_laurent_qr_counts_and_factors_pinned(kappa, m, n, seed, eps, trim,
                                              counts, digests):
    A = random_matrix(laurent(kappa), m, n, np.random.default_rng(seed),
                      degree=1)
    rep = aqr(A, beta="basis", norm="inf", eps=eps, trim=trim)
    assert (rep.rotations, rep.sweeps, rep.trimmed) == counts
    assert type(rep.trimmed) is int  # not a numpy integer
    assert (digest(rep.q), digest(rep.r)) == digests


def test_laurent_svd_counts_pinned():
    A = random_matrix(laurent(1), 3, 2, np.random.default_rng(1), degree=1)
    rep = asvd(A, beta="basis", norm="inf", eps=1e-3, trim=1e-6)
    assert (rep.rotations, rep.qrd_calls, rep.sweeps, rep.trimmed) == \
        (289, 18, 18, 13618)
    assert type(rep.trimmed) is int
    assert tuple(map(digest, (rep.u, rep.d, rep.v))) == (
        "b434037f14b5e342", "c5a4d059fce74299", "7f54c51686c92254")


# an exact beta zeroes each annihilated entry before the trim sees it
@pytest.mark.parametrize("spec,seed,qr,svd,digests", [
    (quaternion_algebra(), 0, (6, 1, 16), (109, 44, 420),
     ("f38e455f16f2272f", "e85e8b70fc8771b6", "7cd5261b19acedac",
      "864a0dcacabd9d0c", "c198df610f045ff6")),
    (quaternion_algebra(), 1, (6, 1, 17), (93, 38, 335),
     ("3d50b34e08ba0b3c", "538defee2b5dc030", "8785420cc2b4d486",
      "998def8043af53ac", "62c9d8c9a82a0834")),
    (quaternion_algebra(), 2, (6, 1, 15), (135, 72, 487),
     ("565de4fb711c0bcd", "dc7c1b470dba1113", "08c483be17456502",
      "1a65c786b93c993a", "3a4cf3325e2fd023")),
    (quaternion_algebra(), 3, (6, 1, 16), (101, 52, 348),
     ("344cb2b25db06608", "393cd5c9d2ecdb74", "b52a10be1ec58a58",
      "bef17ae93d15d07b", "825c22142dd21755")),
    (quaternion_algebra(), 4, (6, 1, 15), (138, 86, 488),
     ("4680b42a721ab071", "083bc66afea3e42d", "ebc94bcc3b6ef2bf",
      "744aa04a8161df01", "dca723ee7df543a0")),
    (complex_algebra(), 0, (6, 1, 4), (108, 58, 100),
     ("43791d619c4ad73d", "814a4dfd8a4f6a28", "eff9c8d9a9aeb5ce",
      "545e45035ff0ce68", "d30d92871ce6af71")),
    (complex_algebra(), 1, (6, 1, 2), (111, 74, 104),
     ("95d41986affdf73b", "2d25ef72c6657045", "501d9705434db753",
      "892a0f8cb4737e25", "f7fa5fec9c04229d")),
    (complex_algebra(), 2, (6, 1, 5), (112, 50, 112),
     ("c3cdf9ee145bd5b4", "a7b3d6b53c9903d8", "544d6bc23c6a5d0e",
      "4e65d3526ad7f6bd", "bf490a521b7bd431")),
    (complex_algebra(), 3, (6, 1, 6), (88, 56, 78),
     ("7e813ae6d90e5559", "7eef6d9ac6ccf549", "a5eaa4ff9b2a1c4c",
      "89d3292453b73d74", "4ed4e2060cf171ab")),
    (complex_algebra(), 4, (6, 1, 2), (143, 82, 132),
     ("222a7c3b4b481483", "b7e4186c3b5f3138", "b1a607a70fc9330f",
      "3940530ba21555fc", "1c86fe41d9faeb76")),
])
def test_division_trim_counts_and_factors_pinned(spec, seed, qr, svd, digests):
    A = random_matrix(spec, 4, 3, np.random.default_rng(seed))
    q = aqr(A, beta="division", trim=1e-6)
    s = asvd(A, beta="division", trim=1e-6)
    assert (q.rotations, q.sweeps, q.trimmed) == qr
    assert (s.rotations, s.qrd_calls, s.trimmed) == svd
    assert s.sweeps == s.qrd_calls  # one exact sweep per QR call
    assert tuple(map(digest, (q.q, q.r, s.u, s.d, s.v))) == digests


# the division beta at trim 0 under both norms: quat and complex 4x3, seed 1
@pytest.mark.parametrize("spec,norm,qr,svd,digests", [
    (quaternion_algebra(), "two", (6, 1), (93, 38, 38),
     ("3d50b34e08ba0b3c", "538defee2b5dc030", "8785420cc2b4d486",
      "998def8043af53ac", "81eb44e1ded94859")),
    (quaternion_algebra(), "inf", (6, 1), (93, 38, 38),
     ("3d50b34e08ba0b3c", "538defee2b5dc030", "8785420cc2b4d486",
      "998def8043af53ac", "81eb44e1ded94859")),
    (complex_algebra(), "two", (6, 1), (111, 74, 74),
     ("95d41986affdf73b", "2d25ef72c6657045", "501d9705434db753",
      "892a0f8cb4737e25", "d30f9f7b2a4907ac")),
    (complex_algebra(), "inf", (6, 1), (111, 74, 74),
     ("134f27bac8e1273a", "c4335873ef4deaeb", "1d4ad4d360d4bb08",
      "d5bb7ad76d9248ae", "20631743aa50095b")),
], ids=["quat-two", "quat-inf", "complex-two", "complex-inf"])
def test_division_counts_and_factors_pinned(spec, norm, qr, svd, digests):
    A = random_matrix(spec, 4, 3, np.random.default_rng(1))
    q, s = aqr(A, norm=norm), asvd(A, norm=norm)
    assert (q.beta, s.beta) == ("division", "division")
    assert (q.rotations, q.sweeps) == qr
    assert (s.rotations, s.qrd_calls, s.sweeps) == svd
    assert tuple(map(digest, (q.q, q.r, s.u, s.d, s.v))) == digests


# beta_division passed as a callable is not the exact mode: no entry is
# zeroed after its rotation, and R keeps its diagonal's round-off
@pytest.mark.parametrize("spec,digests", [
    (quaternion_algebra(), ("565de4fb711c0bcd", "f6cafd6446934864")),
    (complex_algebra(), ("c3cdf9ee145bd5b4", "95624e464dffafe0")),
], ids=["quat", "complex"])
def test_division_callable_counts_and_factors_pinned(spec, digests):
    A = random_matrix(spec, 4, 3, np.random.default_rng(2))
    rep = aqr(A, beta=beta_division)
    assert (rep.beta, rep.rotations, rep.sweeps) == ("beta_division", 6, 1)
    assert (digest(rep.q), digest(rep.r)) == digests
    with pytest.raises(AlgebraError):
        aqr(A, beta=beta_division, eps=0.0)


def test_quaternion_block_counts_and_factors_pinned():
    # the representation engine's H-block QR and SVD, one 16x12 block: 12
    # quaternion Householder steps (and LAPACK's SVD of the adjoint), no
    # rotation
    H = quaternion_algebra()
    A = random_matrix(H, 16, 12, np.random.default_rng(1))
    q, s = wqr(A, rep_trivial(H)), wsvd(A, rep_trivial(H))
    assert (q.rotations, q.sweeps, q.block_rotations) == (0, 0, ())
    assert (s.rotations, s.qrd_calls, s.sweeps, s.block_rotations) == \
        (0, 0, 0, ())
    assert tuple(map(digest, (q.q, q.r, s.u, s.d, s.v))) == (
        "d4e08b85a92f7441", "3e28bea108aade27", "9ce049d5140b733b",
        "6397cdf5429d6c00", "684c76650c8b8996")


# integer coefficients in -2..2 tie often; a 1x1 aqr is one shift by the
# engine's pick b, so its Q is b or -b
@settings(max_examples=60)
@given(st.sampled_from([clifford(4, 1), quadquat(), laurent(2)]), st.data())
def test_beta_basis_equals_the_engine_pick(spec, data):
    lay = spec.layout(random_matrix(spec, 1, 1, np.random.default_rng(0),
                                    degree=1))
    x = data.draw(st.lists(st.integers(-2, 2), min_size=lay.width,
                           max_size=lay.width))
    A = AlgMatrix._of_array(lay, np.array(x, dtype=float).reshape(1, 1, -1))
    b, q = beta_basis(A[0, 0]), aqr(A, beta="basis", norm="inf").q[0, 0]
    assert q == b or q == -b


# the 2-norm sums a window's coefficients: a window change could regroup them
@pytest.mark.parametrize("seed,counts,digests", [
    (0, (366, 2, 30886), ("cf05a59d42f784a3", "62b928ef31ed8593")),
    (1, (392, 2, 29950), ("5737e5e87fe88f81", "cbd8d7316b745d2a")),
])
def test_laurent_two_norm_qr_pinned(seed, counts, digests):
    A = random_matrix(laurent(1), 3, 2, np.random.default_rng(seed), degree=1)
    rep = aqr(A, beta="basis", norm="two", eps=1e-6, trim=1e-9)
    assert (rep.rotations, rep.sweeps, rep.trimmed) == counts
    assert (digest(rep.q), digest(rep.r)) == digests


def test_laurent2_svd_counts_pinned():
    A = random_matrix(laurent(2), 2, 2, np.random.default_rng(1), degree=1)
    rep = asvd(A, beta="basis", norm="inf", eps=3e-2, trim=1e-3)
    assert (rep.rotations, rep.qrd_calls, rep.sweeps, rep.trimmed) == \
        (389, 12, 12, 183974)
    assert tuple(map(digest, (rep.u, rep.d, rep.v))) == (
        "1d57492160cf2e81", "8a10f5d831a7e291", "e3cbcbf9cfa397f6")


# beta_basis under the sup norm on two more finite specs: biquat, whose
# tables carry signs -1, and cyclic(1,8), where conj(g^k) = g^-k
@pytest.mark.parametrize("spec,qr,svd,digests", [
    (biquat(), (262, 1), (1021, 98, 99),
     ("139c1774960ef51a", "9e4d9f65f5527f02", "5db404241d5121ad",
      "f275dc7aa2d3f524", "1f26831f5124c203")),
    (cyclic(1, 8), (398, 1), (636, 30, 30),
     ("f87a299ff0ef08bd", "18aa073771bf852f", "574c6de091fc7b5b",
      "70b8d277bfb5ff80", "356d82911ea057e3")),
], ids=["biquat", "cyclic(1,8)"])
def test_basis_counts_and_factors_pinned(spec, qr, svd, digests):
    A = random_matrix(spec, 3, 2, np.random.default_rng(7))
    q = aqr(A, beta="basis", norm="inf", eps=1e-10)
    s = asvd(A, beta="basis", norm="inf", eps=1e-8)
    assert (q.rotations, q.sweeps) == qr
    assert (s.rotations, s.qrd_calls, s.sweeps) == svd
    assert tuple(map(digest, (q.q, q.r, s.u, s.d, s.v))) == digests


def _recorded_aqr_calls(monkeypatch):
    """Patch ``jacobi.aqr`` (what ``asvd`` calls) to record each call's
    input and eps."""
    calls, aqr_ = [], jacobi.aqr

    def recording(A, **kw):
        calls.append((A, kw["eps"]))
        return aqr_(A, **kw)
    monkeypatch.setattr(jacobi, "aqr", recording)
    return calls


@pytest.mark.parametrize("spec,eps,trim", [
    (clifford(4, 1), 1e-10, 0.0), (quadquat(), 1e-10, 0.0),
    (laurent(1), 1e-3, 1e-6)])
def test_svd_inner_eps_follows_the_off_diagonal_mass(spec, eps, trim,
                                                      monkeypatch):
    calls = _recorded_aqr_calls(monkeypatch)
    A = random_matrix(spec, 3, 2, np.random.default_rng(1), degree=1)
    rep = asvd(A, beta="basis", norm="inf", eps=eps, trim=trim)
    assert rep.qrd_calls == len(calls) and rep.residual <= eps
    assert calls[0][1] == calls[1][1] == eps  # the first pair runs to eps
    for t, (work, inner) in enumerate(calls[2:], 2):
        assert math.isfinite(inner) and inner >= eps
        if t % 2 == 0:  # the first call of a pair runs on D itself
            g = jacobi._residual(work._array(spec.layout(work)), "inf", off=True)
            assert inner == max(eps, jacobi._INNER_EPS * g)
    assert calls[2][1] > eps  # the next calls stop short of eps


def _prescribed(spec, rng) -> AlgMatrix:
    """P [diag(3, 1); 0] W^H, 3x2, with P and W products of random plane
    rotations over unitary basis elements."""
    def unitary(m):
        U = AlgMatrix.identity(spec, m)
        for _ in range(4 * m * m):
            j, i = sorted(int(x) for x in rng.choice(m, size=2, replace=False))
            b = spec.basis_element(spec.labels[int(rng.integers(spec.dim))])
            theta = float(rng.uniform(0, 2 * math.pi))
            U = apply_givens_left(U, GivensParams(theta, b, i, j))
        return U
    P, W = unitary(3), unitary(2)
    S = AlgMatrix.zeros(spec, 3, 2)
    S.entries[0][0], S.entries[1][1] = spec.scalar(3.0), spec.scalar(1.0)
    return P @ S @ W.herm()


@pytest.mark.parametrize("spec,seed", [(quadquat(), 5), (biquat(), 0),
                                       (biquat(), 14)])
def test_svd_schedule_costs_no_more_than_passes_to_eps(spec, seed,
                                                       monkeypatch):
    # on these inputs loose first passes steer D to a diagonal whose later
    # passes are slow (1381 against 1009, 649 against 499, 838 against 444
    # rotations); with the first pair run to eps the schedule is cheaper
    A = _prescribed(spec, np.random.default_rng(seed))
    rep = asvd(A, beta="basis", norm="inf", eps=1e-6)
    monkeypatch.setattr(jacobi, "_INNER_EPS", 0.0)  # every pass to eps
    full = asvd(A, beta="basis", norm="inf", eps=1e-6)
    assert rep.residual <= 1e-6 and full.residual <= 1e-6
    assert rep.rotations < full.rotations


@pytest.mark.parametrize("spec", [clifford(0, 1), clifford(0, 2)])
def test_svd_inner_eps_stays_eps_for_an_exact_beta(spec, monkeypatch):
    calls = _recorded_aqr_calls(monkeypatch)
    A = random_matrix(spec, 4, 3, np.random.default_rng(2))
    rep = asvd(A, beta="division", eps=1e-10)
    assert len(calls) == rep.qrd_calls > 2
    assert all(inner == 1e-10 for _, inner in calls)


@pytest.mark.parametrize("spec,eps,trim", [(laurent(1), 1e-3, 1e-9),
                                           (clifford(4, 1), 1e-6, 0.0)])
def test_svd_accumulates_u_and_v_without_products(spec, eps, trim,
                                                 monkeypatch):
    # each QR call rotates U (or V) inside its work array (aqr's q0), so
    # asvd calls jacobi.aqr once per QR call and multiplies no matrices
    calls, products = _recorded_aqr_calls(monkeypatch), []
    matmul = AlgMatrix.__matmul__

    def counting(X, Y):
        products.append((X.shape, Y.shape))
        return matmul(X, Y)
    monkeypatch.setattr(AlgMatrix, "__matmul__", counting)
    A = random_matrix(spec, 3, 2, np.random.default_rng(1), degree=1)
    rep = asvd(A, beta="basis", norm="inf", eps=eps, trim=trim)
    assert products == [] and len(calls) == rep.qrd_calls > 2
    monkeypatch.undo()
    assert not check_contract(rep, A).violated


@pytest.mark.parametrize("spec", [clifford(4, 1), laurent(1)])
def test_qr_q0_premultiplies_q(spec):
    # aqr(A, q0=U) returns q = U Q and R bit for bit as aqr(A)
    rng = np.random.default_rng(5)
    A = random_matrix(spec, 3, 2, rng, degree=1)
    U = random_matrix(spec, 3, 3, rng, degree=2)
    plain = aqr(A, beta="basis", norm="inf", eps=1e-8)
    rep = aqr(A, beta="basis", norm="inf", eps=1e-8, q0=U)
    assert (rep.rotations, rep.sweeps) == (plain.rotations, plain.sweeps)
    assert digest(rep.r) == digest(plain.r)
    assert (rep.q - U @ plain.q).frob() <= 1e-12 * U.frob()


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_svd_with_trim_keeps_the_reconstruction(seed):
    # the trim drops coefficients at or below 1e-6 times their entry's
    # largest; trimming the whole U @ Q again after every QR call once
    # left a relative reconstruction error of 2.3e-5 to 3.0e-5 here
    A = random_matrix(quadquat(), 4, 3, np.random.default_rng(seed))
    rep = asvd(A, eps=1e-6, trim=1e-6)
    c = check_contract(rep, A)
    assert c.relative <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_trim_equals_per_row_trims(seed, monkeypatch):
    # the trim inside aqr's step zeroes what per-row _trim_array calls on
    # the written-back rows zero, with the same count: after a shift R's row
    # k alone, after a rotation rows k and i of R and Q^H, whose entry (i, k)
    # an exact beta zeroes first; watched on every step of aqr runs on
    # inputs and q0 (which nothing reads) whose coefficients lie far apart,
    # the step's own trims counted through _trim_array
    rng = np.random.default_rng(seed)
    rotate_rows, trim_array = jacobi._rotate_rows, jacobi._trim_array
    dropped = []

    def counting(x, tau):
        dropped.append(trim_array(x, tau))
        return dropped[-1]

    def spread(X):
        # coefficients 1e-12 to 1 apart, a fifth of them zero
        lay, x = X._coeffs
        x = x * 10.0 ** rng.integers(-12, 1, x.shape)
        x[rng.random(x.shape) < 0.2] = 0.0
        return AlgMatrix._of_array(lay, x)

    for spec, beta, exact in ((laurent(1), "basis", False),
                              (quaternion_algebra(), "division", True)):
        A, q0 = (spread(random_matrix(spec, 4, n, rng, degree=2))
                 for n in (3, 4))
        counts = []

        def step(lay, x, k, i, c, s, terms, cut=None):
            _, want = rotate_rows(lay, x.copy(), k, i, c, s, terms)
            if i == k:
                count = trim_array(want[:A.n, k], 1e-6)
            else:
                if exact:
                    want[k, i] = 0.0
                count = sum(trim_array(want[:, r], 1e-6) for r in (k, i))
            dropped.clear()
            lay, x = rotate_rows(lay, x, k, i, c, s, terms, cut)
            assert sum(dropped) == count
            assert np.array_equal(x, want)
            counts.append(count)
            return lay, x
        monkeypatch.setattr(jacobi, "_rotate_rows", step)
        monkeypatch.setattr(jacobi, "_trim_array", counting)
        rep = aqr(A, beta=beta, norm="inf", eps=1e-3, trim=1e-6, q0=q0)
        assert rep.trimmed == sum(counts) > 0


def test_block_engine_counts_pinned():
    # the representation engine calls no rotation engine: R and C blocks run
    # LAPACK, H blocks quaternion Householder steps on the complex adjoint
    # (and LAPACK's SVD of it), so every count is 0 and no per-block
    # rotation count is set
    dft = rep_cyclic_dft(1, 32)
    A = laurent_embed(random_matrix(laurent(1), 3, 3,
                                    np.random.default_rng(11), degree=2), 32)
    quat = quaternion_algebra()
    H = random_matrix(quat, 4, 3, np.random.default_rng(1))
    for A, rep in ((A, dft),
                   (random_matrix(clifford(4, 1), 3, 2,
                                  np.random.default_rng(7)), rep_cl41()),
                   (H, representation_for(quat))):
        for out in (wqr(A, rep), wsvd(A, rep, eps=1e-10)):
            assert (out.rotations, out.sweeps, out.qrd_calls,
                    out.block_rotations) == (0, 0, 0, ())


def test_basis_rotation_chain_pinned():
    # random unitaries built as in the benchmark: 36 rotations by basis
    # elements, starting from the identity
    spec = clifford(4, 1)
    rng = np.random.default_rng(3)
    U = AlgMatrix.identity(spec, 3)
    for _ in range(36):
        j, i = sorted(int(x) for x in rng.choice(3, size=2, replace=False))
        b = spec.basis_element(spec.labels[int(rng.integers(spec.dim))])
        U = apply_givens_left(
            U, GivensParams(float(rng.uniform(0, 2 * math.pi)), b, i, j))
    assert digest(U) == "d680b27496f61802"


@pytest.mark.parametrize("spec", [clifford(4, 1), quadquat(), cyclic(1, 8),
                                  clifford(0, 2), laurent(1)])
def test_basis_rotation_equals_element_arithmetic(spec):
    # G(theta, b, i, j) X by basis element b, entry by entry through Element
    # products and sums: exactly equal, not just close
    rng = np.random.default_rng(23)
    X = random_matrix(spec, 3, 2, rng, degree=1)
    for lab in (spec.labels[-1] if spec.dim else (2,), spec.unit):
        b = spec.basis_element(lab)
        theta = float(rng.uniform(0, 2 * math.pi))
        c, s = math.cos(theta), math.sin(theta)
        Y = apply_givens_left(X, GivensParams(theta, b, 2, 0))
        for col in range(2):
            xj, xi = X[0, col], X[2, col]
            assert Y[0, col] == xj * c + (b.conj() * xi) * (-s)
            assert Y[2, col] == (b * xj) * s + xi * c
            assert Y[1, col] == X[1, col]


# -- non-finite input and the rotation budget ----------------------------------------

@pytest.mark.parametrize("spec", [clifford(4, 1), laurent(1)])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_qr_non_finite_entry_raises(spec, bad):
    A = random_matrix(spec, 3, 2, np.random.default_rng(7), degree=1)
    coeffs = dict(A[1, 0].coeffs)
    coeffs[spec.unit] = bad
    A.entries[1][0] = Element._make(spec, coeffs)  # skips the finite check
    with pytest.raises(ConvergenceError, match="non-finite") as exc:
        aqr(A, max_sweeps=2)
    rep = exc.value.report
    assert rep.q is not None and rep.r is not None
    assert not rep.residual <= 1e-10  # inf or NaN, never a small number
    with pytest.raises(ConvergenceError, match="non-finite") as exc:
        asvd(A, eps=1e-6)
    assert exc.value.report.kind == "svd"
    assert not exc.value.report.residual <= 1e-6


@pytest.mark.parametrize("spec", [clifford(4, 1), laurent(1),
                                  quaternion_algebra()],
                         ids=lambda spec: spec.descriptor)
@pytest.mark.parametrize("pos", [(0, 1), (1, 1), (2, 1)])
def test_qr_non_finite_entry_raises_before_any_warning(spec, pos):
    # an infinity past the pivot column once met a shift's zero factor or
    # a rotation's opposite infinity: numpy warned before the pivot check
    A = random_matrix(spec, 3, 2, np.random.default_rng(7), degree=1)
    coeffs = dict(A[pos].coeffs)
    coeffs[spec.unit] = math.inf
    A[pos] = Element._make(spec, coeffs)  # skips the finite check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="non-finite entry") as exc:
            aqr(A)
    assert exc.value.report.q is not None and exc.value.report.sweeps == 0


def test_residual_helpers_propagate_nan():
    spec = laurent(1)
    D = AlgMatrix.identity(spec, 3)
    D.entries[2][0] = Element._make(spec, {(0,): 5.0, (1,): math.nan})
    D.entries[1][0] = Element._make(spec, {(0,): 7.0})
    x = D._array(spec.layout(D))
    for norm in ("inf", "two"):
        assert math.isnan(jacobi._residual(x, norm))
        assert math.isnan(jacobi._residual(x, norm, off=True))


@pytest.mark.parametrize("spec", [clifford(4, 1), laurent(1)])
def test_qr_rotation_budget_raises_with_partials(spec, monkeypatch):
    monkeypatch.setattr(jacobi, "_rotation_budget", lambda *args: 3)
    A = random_matrix(spec, 3, 2, np.random.default_rng(7), degree=1)
    with pytest.raises(ConvergenceError, match="rotation budget") as exc:
        aqr(A, eps=1e-10)
    rep = exc.value.report
    assert rep.rotations == 3
    assert (rep.q @ rep.r - A).frob() <= 1e-12 * A.frob()


def test_qr_runs_a_sweep_whatever_eps():
    # the loop's first test once read eps + 1 <= eps for eps >= 2^53, and
    # returned R untouched with eps for its residual
    spec = complex_algebra()
    lay = spec.layout()
    B = random_matrix(spec, 3, 2, np.random.default_rng(0))
    B = AlgMatrix._of_array(lay, B._array(lay) * 1e20)
    rep = aqr(B, eps=1e16)
    assert rep.sweeps == 1
    assert rep.residual == jacobi._residual(rep.r._array(lay), "two") <= 1e16
    assert (rep.q @ rep.r - B).frob() <= 1e-12 * B.frob()


@pytest.mark.parametrize("spec", [clifford(4, 1), quadquat()],
                         ids=lambda spec: spec.descriptor)
def test_qr_budget_at_the_ends_of_the_float_range(spec):
    # colnorm / eps overflowed at eps 1e-308, and the column norm's squares
    # at coefficients near 2^530: an OverflowError, a traceback in the CLI
    lay = spec.layout()
    A = random_matrix(spec, 3, 2, np.random.default_rng(1))
    huge = AlgMatrix._of_array(lay, A._array(lay) * 2.0 ** 530)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = aqr(huge, eps=1e-10)
    assert rep.residual == jacobi._residual(rep.r._array(lay), "inf") <= 1e-10
    r = AlgMatrix._of_array(lay, rep.r._array(lay) * 2.0 ** -530)
    assert (rep.q @ r - A).frob() <= 1e-13 * A.frob()
    assert jacobi._rotation_budget(1, 2, 10.0, 32, 1e-308) > 0
    assert jacobi._rotation_budget(1, 2, math.inf, 32, 1e-10) > 0


def test_rotation_budget_covers_observed_counts():
    # one column visit of the criterion-5 input takes up to 713 rotations;
    # even one sweep's budget leaves room
    assert jacobi._rotation_budget(1, 2, 10.0, 32, 1e-10) >= 4 * 713
    assert jacobi._rotation_budget(200, 3, 1.0, 1, 0.0) == 600


def _times_pow2(X: AlgMatrix, k: int) -> AlgMatrix:
    lay = X.spec.layout(X)
    return AlgMatrix._of_array(lay, np.ldexp(X._array(lay), k))


def _bytes(X: AlgMatrix):
    lay, x = X._coeffs
    return lay.h, x.tobytes()


_COUNTS = ("rotations", "sweeps", "qrd_calls", "trimmed", "stalled_pivots",
           "decency_warnings")


@pytest.mark.parametrize("spec,norm,trim,eps", [
    (clifford(4, 1), "inf", 0.0, 1e-8), (clifford(4, 1), "two", 0.0, 1e-8),
    (quaternion_algebra(), "auto", 0.0, 1e-8),
    (complex_algebra(), "auto", 0.0, 1e-8),
    (laurent(1), "inf", 1e-6, 1e-4), (laurent(1), "two", 1e-6, 1e-4),
], ids=lambda v: getattr(v, "descriptor", str(v)))
def test_rotation_engine_takes_the_same_steps_at_every_scale(spec, norm, trim,
                                                              eps):
    # the 2-norms once squared raw coefficients: at 2^530 the pivot norm
    # overflowed ("non-finite pivot"), at 2^-530 the squares underflowed and
    # the runs stopped early reporting residual 0.0.  With A and eps times
    # 2^k every step is the same: Q, U and V byte for byte, R, D and the
    # residual times 2^k
    A = random_matrix(spec, 3, 2, np.random.default_rng(5), degree=1)
    runs = {}
    for k in (0, -530, 530):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs[k] = [f(_times_pow2(A, k), norm=norm, eps=math.ldexp(eps, k),
                         trim=trim) for f in (aqr, asvd)]
    for k in (-530, 530):
        for one, scaled in zip(runs[0], runs[k]):
            assert [getattr(scaled, c) for c in _COUNTS] == \
                [getattr(one, c) for c in _COUNTS]
            assert scaled.residual == math.ldexp(one.residual, k)
            same, times = ("q", "r") if one.kind == "qr" else ("uv", "d")
            for f in same:
                assert _bytes(getattr(scaled, f)) == _bytes(getattr(one, f))
            assert _bytes(getattr(scaled, times)) == \
                _bytes(_times_pow2(getattr(one, times), k))


def test_qr_past_the_float_range_raises_without_a_warning():
    # R's diagonal holds column norms, which pass the float range before
    # A's coefficients do: scaled back, R would hold inf
    A = _times_pow2(random_matrix(quaternion_algebra(), 3, 2,
                                  np.random.default_rng(3)), 1022)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="float range") as exc:
            aqr(A)
    assert exc.value.report.r is None and exc.value.report.q is not None


# -- SVD ---------------------------------------------------------------------------

def test_svd_diagonal_input_is_noop():
    spec = clifford(2, 0)
    A = AlgMatrix.zeros(spec, 3, 2)
    A[0, 0] = spec.scalar(2.0)
    A[1, 1] = spec.basis_element(0b11, 1.5)
    rep = asvd(A, eps=1e-10)
    assert rep.qrd_calls == 0
    assert (rep.u - AlgMatrix.identity(spec, 3)).frob() == 0.0
    assert (rep.v - AlgMatrix.identity(spec, 2)).frob() == 0.0
    assert (rep.d - A).frob() == 0.0


def test_svd_real_flip():
    R = clifford(0, 0)
    A = AlgMatrix(R, [[R.scalar(0), R.scalar(1)], [R.scalar(1), R.scalar(0)]])
    rep = asvd(A, eps=1e-12)
    assert rep.residual <= 1e-12
    for k in range(2):
        assert math.isclose(rep.d[k, k].re(), 1.0, abs_tol=1e-10)


def test_svd_quaternion_matches_rmr_spectrum():
    H = clifford(0, 2)
    rng = np.random.default_rng(10)
    A = random_matrix(H, 2, 2, rng)
    rep = asvd(A, eps=1e-12)
    diag = sorted((rep.d[k, k].re() for k in range(2)), reverse=True)
    oracle = spectrum_oracle(A)  # 8 values: each singular value 4 times
    want = sorted(np.repeat(diag, 4), reverse=True)
    assert np.allclose(oracle, want, atol=1e-8)
    recon = rep.u @ rep.d @ rep.v.herm()
    assert (recon - A).frob() <= 1e-9 * A.frob()


def test_svd_reconstruction_contract():
    spec = biquat()
    rng = np.random.default_rng(11)
    A = random_matrix(spec, 3, 2, rng)
    rep = asvd(A, eps=1e-10)
    assert (rep.u @ rep.d @ rep.v.herm() - A).frob() <= 1e-9 * A.frob()
    assert rep.residual <= 1e-10
    m = max(A.m, A.n)
    assert (rep.u.herm() @ rep.u
            - AlgMatrix.identity(spec, A.m)).frob() <= 1e-11 * m
    assert (rep.v.herm() @ rep.v
            - AlgMatrix.identity(spec, A.n)).frob() <= 1e-11 * m


def test_svd_eps_validation():
    spec = clifford(0, 1)
    A = AlgMatrix.identity(spec, 2)
    with pytest.raises(AlgebraError):
        asvd(A, eps=0.0)
    with pytest.raises(AlgebraError):
        asvd(A, max_iters=0)


def test_svd_iteration_budget():
    spec = clifford(2, 0)
    rng = np.random.default_rng(12)
    A = random_matrix(spec, 3, 3, rng)
    with pytest.raises(ConvergenceError) as exc:
        asvd(A, eps=1e-12, max_iters=1)
    assert exc.value.report.qrd_calls >= 1


# -- decency ---------------------------------------------------------------------------

def test_beta_basis_decent_sup_norm():
    res = decency_check("basis", clifford(4, 1), samples=500, norm="inf",
                        rng=np.random.default_rng(13))
    assert res.passed
    assert res.rho >= 1.0


def test_beta_basis_two_norm_floor():
    res = decency_check("basis", clifford(4, 1), samples=500, norm="two",
                        rng=np.random.default_rng(14))
    assert res.passed
    assert res.rho >= 32 ** -0.5


def test_constant_beta_fails_with_witness():
    C = clifford(0, 1)

    def one(a):
        return a.spec.one()

    res = decency_check(one, C, samples=50, rng=np.random.default_rng(15))
    assert not res.passed
    assert res.witness == C.basis_element(1)  # the imaginary unit


def test_decency_failures_name_the_first_failing_probe(monkeypatch):
    spec = clifford(1, 0)
    g1 = spec.basis_element(spec.labels[1])
    for beta in (lambda a: a.spec.scalar(2.0),  # not unitary
                 lambda a: g1):                  # Re(conj(g1) 1) = 0 < 1
        res = decency_check(beta, spec, samples=10)
        assert (res.passed, res.witness) == (False, spec.one())
    # a zero probe is skipped: the witness is the first non-zero one
    L = laurent(1)
    probes = iter([L.zero(), L.basis_element((1,)), L.one()])
    monkeypatch.setattr(catalog, "random_element", lambda *_: next(probes))
    res = decency_check(lambda a: a.spec.scalar(2.0), L, samples=3)
    assert (res.passed, res.witness, res.samples) == \
        (False, L.basis_element((1,)), 3)


def test_decency_check_runs_the_engine_step(monkeypatch):
    # the step aqr runs for beta="basis", swapped for one that always picks
    # b = 1 (not decent: Re(conj(1) g1) = 0), is what decency_check tests
    calls = []

    def unit_step(lay, x, p):
        calls.append(p)
        return ((lay.labels[lay.unit], 1.0),), float(x[lay.unit])

    monkeypatch.setattr(jacobi, "_basis_step", unit_step)
    spec = clifford(4, 1)
    res = decency_check("basis", spec, samples=10)
    assert (res.passed, res.witness) == (False, spec.basis_element(1))
    assert calls == [None, None]


def test_division_beta_decent_two_norm():
    res = decency_check("division", clifford(0, 2), samples=300, norm="two",
                        rng=np.random.default_rng(16))
    assert res.passed
    assert res.rho >= 1.0 - 1e-12
