"""Block-representation engine: QR/SVD through a verified *-isomorphism.

A finite-dimensional semi-simple algebra is isomorphic to a direct sum of
full matrix algebras over R, C and H.  Given such an isomorphism as an
invertible linear map on coefficients (a :class:`Representation`), a matrix
over the source algebra lifts to one block matrix per summand, each block
is decomposed independently over its division algebra, and the factors map
back.  Blocks of one field and size are the same problem repeated: each
such group of R or C blocks runs one stacked LAPACK call, Householder QR
(its R's diagonal made real and non-negative) or the Golub-Kahan SVD.
numpy has no quaternion factorisation, so H blocks run one by one: the QR
by the rotation engine at eps 0 and any scale, where one sweep annihilates
each entry exactly (:func:`_quaternion_qr`), and the SVD takes V
from numpy's SVD of the block's complex adjoint and U from that exact QR of
B V (:func:`_quaternion_svd`).  No block reads ``eps``: every R comes out
exactly triangular and every D exactly diagonal.

Shipped representations:

* ``rep_quadquat``: H (x) H  ->  R^(4x4), from the action q -> a q b on H;
* ``rep_biquat``:   H (x) C  ->  C^(2x2), the standard complexification;
* ``rep_cl41``:     cl(4,1)  ->  C^(4x4), from explicit generator images;
* ``rep_cyclic_dft``: the group algebra of (Z/delta)^kappa -> one scalar
  block per frequency orbit of the discrete Fourier transform (R at
  self-conjugate frequencies, C elsewhere);
* ``rep_trivial``: the identity representation of R, C or H.

A block of size n over a field of dimension f (1, 2 or 4) is n*n*f real
parameters, entry by entry, in the field's coefficient layout.  A matrix
travels as one stack per group, (count, m n, n n, f), from the lift (one
product by the coefficient map, one gather per group, a slice where its
blocks are adjacent) to the unlift (one scatter per group, one product
by the inverse map); ``lift`` and ``unlift`` are per-block views of that
transport.  LAPACK reads R and C stacks as real and complex arrays;
images are real (n, n), complex (n, n) or (n, n, 4) quaternion arrays.

Every representation is verified at construction: multiplicativity and
involution-compatibility on all basis pairs, one layout product per
block, and invertibility of the coefficient map.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (AlgebraError, AlgebraSpec, AlgMatrix, Element,
                   SpecMismatchError, UnsupportedOperationError, _window)
from .catalog import (CyclicGroupAlgebra, LaurentAlgebra, biquat, clifford,
                      complex_algebra, cyclic, laurent, quadquat,
                      quaternion_algebra, real_algebra)
from .jacobi import (ConvergenceError, DecompReport, _check_tolerances,
                     _residual, aqr)

_FIELD_DIM = {"R": 1, "C": 2, "H": 4}
_VERIFY_TOL = 1e-12  # worst entry error of a verified product or involution


def _field_spec(tag: str) -> AlgebraSpec:
    return {"R": real_algebra, "C": complex_algebra,
            "H": quaternion_algebra}[tag]()


def _field_array(tag: str, x: np.ndarray) -> np.ndarray:
    """Coefficients (..., f) in a field's layout as a real, complex or
    (..., 4) quaternion array."""
    if tag == "R":
        return x[..., 0]
    if tag == "C":
        return x[..., 0] + 1j * x[..., 1]
    return x


def _field_coeffs(tag: str, X: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_field_array`."""
    if tag == "C":
        return np.stack([X.real, X.imag], axis=-1)
    X = np.asarray(X, dtype=float)
    return X[..., None] if tag == "R" else X


@dataclass
class RepVerification:
    mult_worst: float
    star_worst: float
    roundtrip_worst: float
    pairs: int

    def __str__(self):
        return (f"multiplicativity worst={self.mult_worst:.3e} over "
                f"{self.pairs} basis pairs; involution worst="
                f"{self.star_worst:.3e}; map roundtrip worst="
                f"{self.roundtrip_worst:.3e}")


class Representation:
    """A verified *-isomorphism onto a direct sum of R/C/H matrix blocks.

    ``fwd`` maps a coefficient vector (canonical basis order) to the
    concatenated real parameters of all blocks; ``inv`` is its inverse.
    Basis images are given, and ``image`` returns blocks, as real (n, n)
    arrays, complex (n, n) arrays or (n, n, 4) quaternion arrays with
    components in (1, i, j, k) order.  ``groups`` maps each block field
    and size ``(tag, n)`` to the indices of its blocks, in order.
    """

    def __init__(self, source: AlgebraSpec, blocks, basis_images: dict,
                 name: str = ""):
        if source.dim is None:
            raise UnsupportedOperationError(
                "representations need a finite-dimensional source")
        self.source = source
        self.blocks = tuple((tag, int(n)) for tag, n in blocks)
        self.groups: dict = {}  # (tag, n) -> indices of its blocks
        for l, block in enumerate(self.blocks):
            self.groups.setdefault(block, []).append(l)
        self.name = name or f"rep({source.descriptor})"
        d = source.dim
        sizes = [n * n * _FIELD_DIM[tag] for tag, n in self.blocks]
        if sum(sizes) != d:
            raise AlgebraError(
                f"{self.name}: block sizes do not add up to dimension {d}")
        self._offsets = np.cumsum([0] + sizes)
        self._positions = {}  # (tag, n) -> its blocks' parameter positions
        for (tag, n), group in self.groups.items():
            pos = (self._offsets[group, None]
                   + np.arange(n * n * _FIELD_DIM[tag])).ravel()
            # adjacent blocks as a slice: a view to read, not a gather
            self._positions[tag, n] = (
                slice(pos[0], pos[-1] + 1) if pos[-1] - pos[0] == len(pos) - 1
                else pos)

        images = list(basis_images.values())
        cols = [source.label_index(lab) for lab in basis_images]
        F = np.zeros((d, d))
        for t, ((tag, _), lo, hi) in enumerate(self._slices()):
            X = np.array([mats[t] for mats in images])
            # the real parameters of each label's image, one column each
            F[lo:hi, cols] = _field_coeffs(tag, X).reshape(len(X), hi - lo).T
        self.fwd = F
        try:
            self.inv = np.linalg.inv(F)
        except np.linalg.LinAlgError:
            raise AlgebraError(f"{self.name}: basis images are not independent")
        self.verification = self._verify()

    def _slices(self):
        return zip(self.blocks, self._offsets, self._offsets[1:])

    # -- verification ------------------------------------------------------
    def _verify(self) -> RepVerification:
        src = self.source
        labels = src.labels
        d = src.dim
        tables = src.tables
        sign = tables.sign.reshape(d, d, 1, 1, 1)
        inv_sign = tables.inv_sign.reshape(d, 1, 1, 1)
        mult = np.zeros((d, d))
        star = np.zeros(d)
        for (tag, n), lo, hi in self._slices():
            lay = _field_spec(tag).layout()
            E = self.fwd[lo:hi].T.reshape(d, n, n, -1)  # E[t] = image of e_t
            # the images stacked vertically times the images side by side:
            # block (s, t) of the product is E[s] E[t]
            _, P = lay.matmul(E.reshape(d * n, n, -1),
                              E.transpose(1, 0, 2, 3).reshape(n, d * n, -1))
            P = P.reshape(d, n, d, n, -1).transpose(0, 2, 1, 3, 4)
            err = np.abs(P - sign * E[tables.index])
            mult = np.maximum(mult, err.max(axis=(2, 3, 4)))
            err = np.abs(lay.conj(E).transpose(0, 2, 1, 3)
                         - inv_sign * E[tables.inv_index])
            star = np.maximum(star, err.max(axis=(1, 2, 3)))
        bad = np.flatnonzero(~(mult <= _VERIFY_TOL))
        if bad.size:
            i, j = divmod(int(bad[0]), d)
            raise AlgebraError(
                f"{self.name}: image is not multiplicative at basis pair "
                f"({src.label_str(labels[i])}, {src.label_str(labels[j])}): "
                f"error {mult[i, j]:.3e}")
        bad = np.flatnonzero(~(star <= _VERIFY_TOL))
        if bad.size:
            i = int(bad[0])
            raise AlgebraError(
                f"{self.name}: image does not intertwine the involution at "
                f"basis element {src.label_str(labels[i])}: "
                f"error {star[i]:.3e}")
        roundtrip = float(np.abs(self.fwd @ self.inv - np.eye(d)).max())
        if not roundtrip <= 1e-13:
            raise AlgebraError(f"{self.name}: coefficient map is badly "
                               f"conditioned (roundtrip {roundtrip:.3e})")
        return RepVerification(float(mult.max()), float(star.max()),
                               roundtrip, d * d)

    # -- coefficient transport ------------------------------------------------
    def _stacks(self, A: AlgMatrix) -> dict:
        """A's blocks (see :func:`lift`), one stack (count, m n_l, n n_l, f)
        per group ``(tag, n_l)``."""
        if A.spec != self.source:
            raise SpecMismatchError(
                "matrix algebra does not match the representation")
        with np.errstate(invalid="ignore", over="ignore"):  # inf times 0
            params = A._array(self.source.layout()) @ self.fwd.T
        return {(tag, nl): params[..., pos]
                .reshape(A.m, A.n, -1, nl, nl, _FIELD_DIM[tag])
                .transpose(2, 0, 3, 1, 4, 5)
                .reshape(-1, A.m * nl, A.n * nl, _FIELD_DIM[tag])
                for (tag, nl), pos in self._positions.items()}

    def _unstacked(self, stacks: dict, m: int, n: int) -> AlgMatrix:
        """The m x n source matrix whose group stacks are ``stacks``."""
        params = np.empty((m, n, self.source.dim))
        for (tag, nl), pos in self._positions.items():
            x = stacks[tag, nl].reshape(-1, m, nl, n, nl, _FIELD_DIM[tag])
            params[..., pos] = x.transpose(1, 3, 0, 2, 4, 5).reshape(m, n, -1)
        return AlgMatrix._of_array(self.source.layout(), params @ self.inv.T)

    def image(self, a: Element) -> list[np.ndarray]:
        """Block matrices of one algebra element."""
        return [_field_array(tag, B._array(B.spec.layout())) for (tag, _), B
                in zip(self.blocks, lift(AlgMatrix(a.spec, [[a]]), self))]

    def idempotents(self) -> "IdempotentSet":
        """The central idempotents 1_k projecting onto each block."""
        units = np.zeros((len(self.blocks), self.source.dim))
        for t, ((_, n), lo, hi) in enumerate(self._slices()):
            # block t's identity: the unit coefficient on its diagonal
            diag = units[t, lo:hi].reshape(n, n, -1)
            diag[np.arange(n), np.arange(n), 0] = 1.0
        coeffs = (units @ self.inv.T)[None]
        return IdempotentSet(self.source,
                             tuple(self.source.layout().rows(coeffs)[0]))

    def __repr__(self):
        parts = " + ".join(f"{tag}^{n}x{n}" for tag, n in self.blocks)
        return f"<Representation {self.name}: {self.source.descriptor} ~ {parts}>"


# -- shipped representations -------------------------------------------------

def _images_from_generators(source: AlgebraSpec, blocks, gen_images: dict,
                            factorize) -> dict:
    """Extend generator images to the whole basis by ascending products.

    Products are plain array products, so every block must be real or
    complex.
    """
    images = {}
    for lab in source.labels:
        cur = [np.eye(n) for _, n in blocks]
        for f in factorize(lab):
            cur = [c @ np.asarray(m) for c, m in zip(cur, gen_images[f])]
        images[lab] = cur
    return images


def _clifford_factors(mask: int):
    return [1 << t for t in range(mask.bit_length()) if mask >> t & 1]


def _tensor_factors(lab):
    # generators of a label (a, b) of a tensor of two Clifford algebras
    a, b = lab
    return ([(f, 0) for f in _clifford_factors(a)]
            + [(0, f) for f in _clifford_factors(b)])


def rep_cl41() -> Representation:
    """cl(4,1) as complex 4x4 matrices."""
    src = clifford(4, 1)
    i = 1j
    gens = {
        0b00001: np.diag([1, -1, 1, -1]).astype(complex),
        0b00010: np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
        0b00100: np.array([[0, 0, 0, 1], [0, 0, -1, 0],
                           [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex),
        0b01000: np.array([[0, 0, 0, -i], [0, 0, i, 0],
                           [0, -i, 0, 0], [i, 0, 0, 0]]),
        0b10000: np.array([[0, -1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex),
    }
    blocks = (("C", 4),)
    images = _images_from_generators(
        src, blocks, {k: [v] for k, v in gens.items()}, _clifford_factors)
    return Representation(src, blocks, images, name="cl41->C4x4")


def rep_quadquat() -> Representation:
    """H (x) H as real 4x4 matrices (left/right quaternion actions)."""
    src = quadquat()
    li = np.array([[0, -1, 0, 0], [1, 0, 0, 0],
                   [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    lj = np.array([[0, 0, -1, 0], [0, 0, 0, 1],
                   [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    ri = np.array([[0, -1, 0, 0], [1, 0, 0, 0],
                   [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
    rj = np.array([[0, 0, -1, 0], [0, 0, 0, -1],
                   [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    gens = {(1, 0): [li], (2, 0): [lj], (0, 1): [ri], (0, 2): [rj]}
    blocks = (("R", 4),)
    images = _images_from_generators(src, blocks, gens, _tensor_factors)
    return Representation(src, blocks, images, name="quadquat->R4x4")


def rep_biquat() -> Representation:
    """H (x) C as complex 2x2 matrices (complexified quaternions)."""
    src = biquat()
    gens = {
        (1, 0): [np.array([[1j, 0], [0, -1j]])],
        (2, 0): [np.array([[0, 1], [-1, 0]], dtype=complex)],
        (0, 1): [1j * np.eye(2)],
    }
    blocks = (("C", 2),)
    images = _images_from_generators(src, blocks, gens, _tensor_factors)
    return Representation(src, blocks, images, name="biquat->C2x2")


def _dft_roots(delta: int) -> np.ndarray:
    """exp(-2 pi i p / delta) for p in range(delta), exact at the quadrants."""
    roots = np.exp(-2j * np.pi * np.arange(delta) / delta)
    roots[0] = 1.0
    roots[delta // 2] = -1.0
    if delta % 4 == 0:
        roots[delta // 4] = -1j
        roots[3 * delta // 4] = 1j
    return roots


def rep_cyclic_dft(kappa: int, delta: int) -> Representation:
    """The group algebra of (Z/delta)^kappa block-diagonalised by the DFT.

    One scalar block per frequency orbit under negation: self-conjugate
    frequencies (components 0 or delta/2) give real blocks, every other
    conjugate pair gives one complex block at its lexicographically
    smaller representative.
    """
    if delta % 2:
        raise UnsupportedOperationError("the DFT route requires even delta")
    src = cyclic(kappa, delta)
    roots = _dft_roots(delta)
    freqs = []
    blocks = []
    for f in itertools.product(range(delta), repeat=kappa):
        nf = tuple((-x) % delta for x in f)
        if nf < f:
            continue
        blocks.append(("R", 1) if nf == f else ("C", 1))
        freqs.append(f)
    # the image of z^rho in the block of frequency f is roots[f . rho]
    phase = roots[np.array(src.labels) @ np.array(freqs).T % delta]
    real = [tag == "R" for tag, _ in blocks]
    images = {rho: [p.real if r else p for r, p in zip(real, row)]
              for rho, row in zip(src.labels, phase[:, :, None, None])}
    rep = Representation(src, tuple(blocks), images,
                         name=f"cyclic({kappa},{delta})->DFT")
    rep.frequencies = tuple(freqs)
    return rep


def rep_trivial(spec: AlgebraSpec) -> Representation:
    """The identity representation of R, C or H as a single 1x1 block."""
    if not spec.is_division:
        raise AlgebraError("rep_trivial needs the real/complex/quaternion algebra")
    tag = {1: "R", 2: "C", 4: "H"}[spec.dim]
    images = {lab: [_field_array(tag, e.reshape(1, 1, -1))]
              for lab, e in zip(spec.labels, np.eye(spec.dim))}
    return Representation(spec, ((tag, 1),), images,
                          name=f"{spec.descriptor}->trivial")


@functools.lru_cache(maxsize=None)
def representation_for(spec: AlgebraSpec) -> Representation:
    """The cataloged representation for a spec, if one is shipped.

    Built and verified once per spec; later calls return the same object.
    """
    if spec == clifford(4, 1):
        return rep_cl41()
    if spec == quadquat():
        return rep_quadquat()
    if spec == biquat():
        return rep_biquat()
    if isinstance(spec, CyclicGroupAlgebra):
        return rep_cyclic_dft(spec.kappa, spec.delta)
    if getattr(spec, "is_division", False):
        return rep_trivial(spec)
    raise UnsupportedOperationError(
        f"no cataloged representation for {spec.descriptor}")


# -- lifting matrices to blocks ------------------------------------------------

def lift(A: AlgMatrix, rep: Representation) -> list[AlgMatrix]:
    """One (n_l m) x (n_l n) matrix over R/C/H per block of the representation.

    Entry (i, j) of A becomes the (i, j) block of size n_l x n_l; a
    non-finite coefficient gives non-finite block entries, with no numpy
    warning.  Each matrix is a view of its block in its group's stack.
    """
    stacks, out = rep._stacks(A), [None] * len(rep.blocks)
    for (tag, nl), group in rep.groups.items():
        for l, x in zip(group, stacks[tag, nl]):
            out[l] = AlgMatrix._of_array(_field_spec(tag).layout(), x)
    return out


def unlift(blocks_mats, rep: Representation, m: int, n: int) -> AlgMatrix:
    """Map per-block matrices back to one matrix over the source algebra."""
    return rep._unstacked(
        {(tag, nl): np.array([blocks_mats[l]._array(_field_spec(tag).layout())
                              for l in group])
         for (tag, nl), group in rep.groups.items()}, m, n)


# -- the two decompositions ------------------------------------------------------

def _qr_factors(Z: np.ndarray) -> list:
    """Householder QR of a stack of matrices, each R's diagonal real and
    non-negative: column k of Q times the phase of R's d_k, row k of R times
    its conjugate, |d_k| on the diagonal.  numpy divides d_k by |d_k|
    through 1 / |d_k|, which overflows for a subnormal |d_k|: such a d_k
    keeps phase 1, an error below 2^-1021 in Q R."""
    Q, R = np.linalg.qr(Z, mode="complete")
    d = R.diagonal(0, -2, -1)
    k = np.arange(d.shape[-1])
    mag = np.abs(d)
    phase = np.divide(d, mag, out=np.ones_like(d), where=mag >= 2.0 ** -1022)
    Q[..., :len(k)] *= phase[..., None, :]
    R[..., :len(k), :] *= phase.conj()[..., None]
    R[..., k, k] = mag
    return [Q, R]


def _svd_factors(Z: np.ndarray) -> list:
    """Golub-Kahan SVD of a stack of matrices: D = diag(s), s descending,
    and V = Vh^H."""
    U, s, Vh = np.linalg.svd(Z, full_matrices=True)
    D = np.zeros(Z.shape)
    k = np.arange(s.shape[-1])
    D[..., k, k] = s
    return [U, D, Vh.conj().swapaxes(-1, -2)]


def _quaternion_qr(x: np.ndarray):
    """Exact QR of an H block with coefficients x (m, n, 4): ``aqr`` with
    ``beta="division"`` at eps 0, where each rotation annihilates its entry
    exactly and one sweep ends, and R's diagonal comes out real.  Returns
    [Q, R] and the counts (rotations, sweeps, QR calls = 0).
    """
    lay = quaternion_algebra().layout()
    out = aqr(AlgMatrix._of_array(lay, x), beta="division", norm="two",
              eps=0.0)
    return [out.q._array(lay), out.r._array(lay)], (out.rotations, out.sweeps, 0)


def _quaternion_svd(x: np.ndarray):
    """SVD of an H block B = B1 + B2 j, coefficients x (m, n, 4), through
    its complex adjoint chi(B) = [[B1, B2], [-conj B2, conj B1]], a
    *-homomorphism: B = U D V^H with D exactly diagonal, real, non-negative
    and descending.

    The right singular vectors of chi(B) pair up: with v = [x; y], so is
    p(v) = [-conj y; conj x], for the same singular value, and (v, p(v))
    are the columns of chi of the quaternion column x - conj(y) j.  V's n
    columns come from numpy's SVD of chi(B) one at a time: each is the one
    with the largest residual after projecting out those taken and their
    partners, normalised, so V is unitary whatever the clusters and null
    spaces of B.  Ordered by singular value, B V has orthogonal columns; one
    exact QR of it (:func:`_quaternion_qr`) gives U and, as R's diagonal,
    D, sorted with U's and V's columns.  A wide B goes through B^H.
    Returns [U, D, V] and the counts (rotations, sweeps, QR calls = 1).
    """
    lay = quaternion_algebra().layout()
    m, n = x.shape[:2]
    if m < n:
        (u, d, v), counts = _quaternion_svd(lay.conj(x).transpose(1, 0, 2))
        return [v, lay.conj(d).transpose(1, 0, 2), u], counts
    B1, B2 = x[..., 0] + 1j * x[..., 1], x[..., 2] + 1j * x[..., 3]
    vh = np.linalg.svd(np.block([[B1, B2], [-B2.conj(), B1.conj()]]))[2]
    cand = vh.conj().T  # columns in descending order of singular value
    chi = np.zeros((2 * n, 2 * n), dtype=complex)  # chi(V), columns v, p(v)
    taken = []
    for t in range(n):
        res = cand - chi @ (chi.conj().T @ cand)
        norms = np.linalg.norm(res, axis=0)
        k = int(norms.argmax())
        chi[:, 2 * t] = v = res[:, k] / norms[k]
        chi[:, 2 * t + 1] = np.concatenate([-v[n:].conj(), v[:n].conj()])
        taken.append(k)
    V1, V2 = chi[:n, 0::2], chi[:n, 1::2]
    v = np.stack([V1.real, V1.imag, V2.real, V2.imag], -1)[:, np.argsort(taken)]
    (q, r), (rotations, sweeps, _) = _quaternion_qr(lay.matmul(x, v)[1])
    d = r[range(n), range(n), 0]
    order = np.argsort(-d, kind="stable")
    D = np.zeros((m, n, 4))
    D[range(n), range(n), 0] = d[order]
    return ([q[:, np.r_[order, n:m]], D, v[:, order]],
            (rotations, sweeps, 1))


def _decompose(kind: str, A: AlgMatrix, rep: Representation,
               eps: float) -> DecompReport:
    """:func:`wqr` (``kind="qr"``) or :func:`wsvd` of A.  A's blocks go as
    one stack per field and size (``rep.groups``) from the lift to the
    unlift: every entry is checked first, then an R or C group runs one
    stacked LAPACK call and H blocks run one by one (refusing a non-finite
    R or D), and each factor maps back in one product."""
    t0 = time.perf_counter()
    common = dict(kind=kind, method="wedderburn", eps=eps, norm="inf",
                  beta="division")
    failed = DecompReport(rotations=0, sweeps=0, qrd_calls=0,
                          residual=math.nan, wall_time=0.0, **common)
    stacks, finite = rep._stacks(A), np.empty(len(rep.blocks), dtype=bool)
    for key, x in stacks.items():
        finite[rep.groups[key]] = np.isfinite(x).all(axis=(1, 2, 3))
    if not finite.all():
        l = int(finite.argmin())
        raise ConvergenceError(
            f"block {l} {rep.blocks[l]}: non-finite block entry", failed)
    counts = [(0, 0, 0)] * len(rep.blocks)  # rotations, sweeps, QR calls
    factors = {}  # (tag, n) -> the stack of each factor
    for key, x in stacks.items():
        tag, group = key[0], rep.groups[key]
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                if tag == "H":  # aqr refuses an R past the float range
                    run = _quaternion_qr if kind == "qr" else _quaternion_svd
                    F = [None] * len(group)
                    for t, l in enumerate(group):
                        F[t], counts[l] = run(x[t])
                    F = [np.array(f) for f in zip(*F)]
                else:
                    F = [_field_coeffs(tag, f) for f in
                         (_qr_factors if kind == "qr" else _svd_factors)(
                             _field_array(tag, x))]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"blocks {group} {key}: LAPACK: {exc}",
                                   failed) from exc
        except ConvergenceError as exc:  # the QR of H block l
            raise ConvergenceError(f"block {l} {key}: {exc}",
                                   exc.report) from exc
        # Q, U and V are finite when R or D is (LAPACK; _qr_factors' phase)
        finite = np.isfinite(F[1]).all(axis=(1, 2, 3))
        if not finite.all():
            l = group[int(finite.argmin())]
            raise ConvergenceError(f"block {l} {key}: non-finite factor", failed)
        factors[key] = F
    shapes = [(A.m, A.m), (A.m, A.n), (A.n, A.n)][:3 if kind == "svd" else 2]
    mats = [rep._unstacked({key: F[j] for key, F in factors.items()}, *shape)
            for j, shape in enumerate(shapes)]
    rot, sweeps, calls = zip(*counts)
    return DecompReport(
        rotations=sum(rot), sweeps=(max if kind == "qr" else sum)(sweeps),
        qrd_calls=sum(calls), block_rotations=rot,
        # R (QR) or D (SVD): below-diagonal or off-diagonal entries
        residual=_residual(mats[1]._array(rep.source.layout()), "inf",
                           off=kind == "svd"),
        wall_time=time.perf_counter() - t0, **common,
        **dict(zip("qr" if kind == "qr" else "udv", mats)))


def wqr(A: AlgMatrix, rep: Representation, eps: float = 0.0) -> DecompReport:
    """QR through the representation: exact per-block triangularisation.

    Each R or C group of blocks (``rep.groups``) runs one stacked LAPACK QR
    (Householder); H blocks run the rotation engine's exact QR, one sweep at
    eps 0 (:func:`_quaternion_qr`).  Every block's R is exactly upper
    triangular with a real, non-negative diagonal, so ``residual`` is 0 and
    ``eps`` (>= 0) only states the contract.  ``rotations``, ``sweeps`` (the
    most of any block) and ``block_rotations`` count rotation-engine work,
    so an R or C block adds 0 to each.
    """
    _check_tolerances(eps)
    return _decompose("qr", A, rep, eps)


def wsvd(A: AlgMatrix, rep: Representation,
         eps: float = 1e-10) -> DecompReport:
    """SVD through the representation; block singular values sorted descending.

    Each R or C group of blocks (``rep.groups``) runs one stacked LAPACK
    SVD (Golub-Kahan); H blocks go through their complex adjoint and one
    exact QR (:func:`_quaternion_svd`).  Every D is diagonal, so
    ``residual`` is 0 and ``eps`` (> 0) only states the contract.
    ``rotations`` counts the rotations of the H blocks' QRs
    (``block_rotations`` per block), ``sweeps`` their sweeps, and
    ``qrd_calls`` the QRs, one per H block; an R or C block adds 0 to each.
    """
    _check_tolerances(eps, svd=True)
    return _decompose("svd", A, rep, eps)


def diagonal_support_labels(M: AlgMatrix, rel_tol: float = 1e-8) -> list:
    """Labels carrying significant weight on the diagonal of a factor.

    Diagnostic: factors coming off the representation route are constrained
    (block-diagonal entries must lift to triangular/real-diagonal blocks),
    so their diagonal entries live in a low-dimensional subspace of the
    algebra.  Returns the sorted labels whose coefficient exceeds rel_tol
    times the largest diagonal coefficient.
    """
    lay = M.spec.layout(M)
    L = min(M.m, M.n)
    mags = np.abs(M._array(lay)[range(L), range(L)])
    held = (mags > rel_tol * mags.max(initial=0.0)).any(axis=0)
    return [lay.labels[p] for p in np.flatnonzero(held)]  # canonical order


# -- idempotent splitting -----------------------------------------------------------

@dataclass
class IdempotentSet:
    """Central idempotents 1_k with sum 1; right multiplication projects."""
    spec: AlgebraSpec
    elements: tuple

    def residual(self) -> float:
        """Worst violation of the idempotent/orthogonality/partition laws:
        one layout product of the idempotents as a column and as a row
        gives every e_k e_l, which must be e_k for k = l and 0 otherwise."""
        row = AlgMatrix(self.spec, [self.elements])
        lay, e = row._coeffs
        P = AlgMatrix._of_array(lay, e.transpose(1, 0, 2).copy()) @ row
        lay = self.spec.layout(P, row)
        e, one = row._array(lay)[0], np.eye(1, lay.width, lay.unit)[0]
        laws = (P._array(lay) - np.eye(len(e))[:, :, None] * e,
                lay.conj(e) - e, e.sum(axis=0) - one)
        return float(np.max([np.abs(x).max(initial=0.0) for x in laws]))

    def validate(self, tol: float = 1e-12):
        res = self.residual()
        if not res <= tol:  # a NaN fails
            raise AlgebraError(
                f"invalid idempotent set (worst residual {res:.3e})")


def idempotent_split(A: AlgMatrix, idem: IdempotentSet) -> list[AlgMatrix]:
    """Project a matrix onto each summand: parts_k = A * 1_k entry-wise,
    computed as A P_k with P_k the diagonal matrix holding 1_k."""
    if A.spec != idem.spec:
        raise SpecMismatchError("matrix and idempotents use different algebras")
    idem.validate()
    units = AlgMatrix(A.spec, [idem.elements])
    lay = A.spec.layout(units)
    eye = np.eye(A.n)[:, :, None]
    return [A @ AlgMatrix._of_array(lay, eye * p) for p in units._array(lay)[0]]


def idempotent_join(parts, idem: IdempotentSet) -> AlgMatrix:
    """Sum the projected parts back together."""
    if len(parts) != len(idem.elements):
        raise AlgebraError("one part per idempotent expected")
    return sum(parts[1:], parts[0])


# -- Laurent <-> cyclic transport ------------------------------------------------------

def _relabelled(x: np.ndarray, lay, to, label) -> AlgMatrix:
    # coefficients x moved from layout lay to layout to, lab's to label(lab)
    y = np.zeros(x.shape[:2] + (to.width,))
    y[..., [to.index[label(lab)] for lab in lay.labels]] = x
    return AlgMatrix._of_array(*to.cropped(y))


def laurent_embed(A: AlgMatrix, delta: int) -> AlgMatrix:
    """View a Laurent matrix inside the cyclic group algebra (Z/delta)^kappa.

    Requires even delta strictly larger than twice the largest absolute
    exponent present, so that products of the embedded data cannot wrap.
    """
    spec = A.spec
    if not isinstance(spec, LaurentAlgebra):
        raise SpecMismatchError("laurent_embed needs a Laurent matrix")
    lay = spec.layout(A)
    lay, x = lay.cropped(A._array(lay))  # the window of what A holds
    maxexp = max(lay.h)
    if delta % 2:
        raise AlgebraError(f"delta={delta} is odd; the DFT route needs an "
                           f"even delta")
    if delta <= 2 * maxexp:
        raise AlgebraError(
            f"delta={delta} too small for exponents up to {maxexp}; "
            f"need even delta >= {2 * maxexp + 2}")
    return _relabelled(x, lay, cyclic(spec.kappa, delta).layout(),
                       lambda lab: tuple(e % delta for e in lab))


def laurent_unembed(A: AlgMatrix) -> AlgMatrix:
    """Map a cyclic-algebra matrix back to Laurent exponents in (-d/2, d/2]."""
    spec = A.spec
    if not isinstance(spec, CyclicGroupAlgebra):
        raise SpecMismatchError("laurent_unembed needs a cyclic-algebra matrix")
    half, lay = spec.delta // 2, spec.layout()
    return _relabelled(A._array(lay), lay, _window(laurent(spec.kappa),
                                                   (half,) * spec.kappa),
                       lambda lab: tuple(x - spec.delta if x > half else x
                                         for x in lab))
