"""Block-representation engine: QR/SVD through a verified *-isomorphism.

A finite-dimensional semi-simple algebra is isomorphic to a direct sum of
full matrix algebras over R, C and H.  Given such an isomorphism as an
invertible linear map on coefficients (a :class:`Representation`), a matrix
over the source algebra lifts to one block matrix per summand, each block
is decomposed independently with the rotation engine over its division
algebra (where QR terminates exactly), and the factors map back.

Shipped representations:

* ``rep_quadquat``: H (x) H  ->  R^(4x4), from the action q -> a q b on H;
* ``rep_biquat``:   H (x) C  ->  C^(2x2), the standard complexification;
* ``rep_cl41``:     cl(4,1)  ->  C^(4x4), from explicit generator images;
* ``rep_cyclic_dft``: the group algebra of (Z/delta)^kappa -> one scalar
  block per frequency orbit of the discrete Fourier transform (R at
  self-conjugate frequencies, C elsewhere);
* ``rep_trivial``: the identity representation of R, C or H.

All block fields share one layout.  A block of size n over a field of
dimension f (1, 2 or 4) is n*n*f real parameters, entry by entry, held
internally as its real embedding: the (n f) x (n f) real matrix with every
entry replaced by its ``core.rmr`` over the field.  Block products are then
real products and the conjugate transpose is the transpose.  Only the
public formats differ by field: images are real (n, n), complex (n, n) or
(n, n, 4) quaternion arrays (components 1, i, j, k), and ``lift`` yields
matrices over R, C or H.

Every representation is verified at construction: multiplicativity and
involution-compatibility on all basis pairs, one batched product per
block, and invertibility of the coefficient map.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .core import (AlgebraError, AlgebraSpec, AlgMatrix, Element,
                   SpecMismatchError, UnsupportedOperationError, rmr)
from .catalog import (CyclicGroupAlgebra, LaurentAlgebra, biquat, clifford,
                      complex_algebra, cyclic, laurent, quadquat,
                      quaternion_algebra, real_algebra)
from .jacobi import (ConvergenceError, DecompReport, _below_diag_max,
                     _off_diag_max, aqr, asvd)

_FIELD_DIM = {"R": 1, "C": 2, "H": 4}


def _field_spec(tag: str) -> AlgebraSpec:
    if tag == "R":
        return real_algebra()
    if tag == "C":
        return complex_algebra()
    if tag == "H":
        return quaternion_algebra()
    raise AlgebraError(f"unknown field tag {tag!r}")


@functools.lru_cache(maxsize=None)
def _field_structure(tag: str) -> np.ndarray:
    """T[a] = rmr(e_a) over the block field, an (f, f, f) array."""
    field = _field_spec(tag)
    return np.stack([rmr(field.basis_element(lab)) for lab in field.labels])


def _embed(tag: str, params: np.ndarray, n: int) -> np.ndarray:
    """Real embeddings, (..., n*f, n*f), of blocks given by their
    parameters, (..., n*n*f): entry x becomes sum_a x_a rmr(e_a)."""
    f = _FIELD_DIM[tag]
    lead = params.shape[:-1]
    x = params.reshape(lead + (n, n, f))
    out = np.einsum("...ija,ars->...irjs", x, _field_structure(tag))
    return out.reshape(lead + (n * f, n * f))


def _flatten_block(tag: str, X: np.ndarray) -> np.ndarray:
    if tag == "C":
        return np.stack([X.real, X.imag], axis=-1).ravel()
    return np.asarray(X, dtype=float).ravel()


def _unflatten_block(tag: str, vec: np.ndarray, n: int) -> np.ndarray:
    if tag == "R":
        return vec.reshape(n, n)
    if tag == "C":
        v = vec.reshape(n, n, 2)
        return v[..., 0] + 1j * v[..., 1]
    return vec.reshape(n, n, 4)


def _coeff_array(spec: AlgebraSpec, rows) -> np.ndarray:
    """Coefficients of a grid of elements as an (m, n, dim) array."""
    index = spec.label_index
    out = np.zeros((len(rows), len(rows[0]), spec.dim))
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            for lab, c in e.coeffs.items():
                out[i, j, index(lab)] = c
    return out


def _element_rows(spec: AlgebraSpec, coeffs: np.ndarray) -> list:
    """Inverse of :func:`_coeff_array`: a grid of elements, zeros dropped."""
    labels = spec.labels
    return [[Element._make(spec, {labels[t]: c for t, c in
                                  enumerate(v.tolist()) if c != 0.0})
             for v in row] for row in coeffs]


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
    components in (1, i, j, k) order.
    """

    def __init__(self, source: AlgebraSpec, blocks, basis_images: dict,
                 name: str = "", tol: float = 1e-12):
        if source.dim is None:
            raise UnsupportedOperationError(
                "representations need a finite-dimensional source")
        self.source = source
        self.blocks = tuple((tag, int(n)) for tag, n in blocks)
        self.name = name or f"rep({source.descriptor})"
        d = source.dim
        sizes = [n * n * _FIELD_DIM[tag] for tag, n in self.blocks]
        if sum(sizes) != d:
            raise AlgebraError(
                f"{self.name}: block sizes do not add up to dimension {d}")
        self._offsets = np.cumsum([0] + sizes)

        F = np.zeros((d, d))
        for lab, mats in basis_images.items():
            F[:, source.label_index(lab)] = np.concatenate(
                [_flatten_block(tag, M)
                 for (tag, _), M in zip(self.blocks, mats)])
        self.fwd = F
        try:
            self.inv = np.linalg.inv(F)
        except np.linalg.LinAlgError:
            raise AlgebraError(f"{self.name}: basis images are not independent")
        self._basis_images = {lab: [np.asarray(M) for M in mats]
                              for lab, mats in basis_images.items()}
        self.verification = self._verify(tol)

    def _slices(self):
        return zip(self.blocks, self._offsets, self._offsets[1:])

    # -- verification ------------------------------------------------------
    def _verify(self, tol: float) -> RepVerification:
        src = self.source
        labels = src.labels
        d = src.dim
        index = src.label_index
        mul = [src.mul_basis(i, j) for i in labels for j in labels]
        sign = np.array([s for s, _ in mul], dtype=float).reshape(d, d, 1, 1)
        prod = np.array([index(k) for _, k in mul]).reshape(d, d)
        inv = [src.inv_basis(i) for i in labels]
        inv_sign = np.array([s for s, _ in inv], dtype=float).reshape(d, 1, 1)
        inv_idx = np.array([index(k) for _, k in inv])
        mult = np.zeros((d, d))
        star = np.zeros(d)
        for (tag, n), lo, hi in self._slices():
            E = _embed(tag, self.fwd[lo:hi].T, n)     # E[t] = image of e_t
            err = np.abs(E[:, None] @ E[None, :] - sign * E[prod])
            mult = np.maximum(mult, err.max(axis=(2, 3)))
            err = np.abs(E.transpose(0, 2, 1) - inv_sign * E[inv_idx])
            star = np.maximum(star, err.max(axis=(1, 2)))
        bad = np.flatnonzero(~(mult <= tol))
        if bad.size:
            i, j = divmod(int(bad[0]), d)
            raise AlgebraError(
                f"{self.name}: image is not multiplicative at basis pair "
                f"({src.label_str(labels[i])}, {src.label_str(labels[j])}): "
                f"error {mult[i, j]:.3e}")
        bad = np.flatnonzero(~(star <= tol))
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
    def image(self, a: Element) -> list[np.ndarray]:
        """Block matrices of one algebra element."""
        if a.spec != self.source:
            raise SpecMismatchError("element does not belong to the source algebra")
        params = self.fwd @ _coeff_array(self.source, [[a]])[0, 0]
        return [_unflatten_block(tag, params[lo:hi], n)
                for (tag, n), lo, hi in self._slices()]

    def idempotents(self) -> "IdempotentSet":
        """The central idempotents 1_k projecting onto each block."""
        units = np.zeros((len(self.blocks), self.source.dim))
        for t, ((_, n), lo, hi) in enumerate(self._slices()):
            # block t's identity: the unit coefficient on its diagonal
            diag = units[t, lo:hi].reshape(n, n, -1)
            diag[np.arange(n), np.arange(n), 0] = 1.0
        coeffs = (units @ self.inv.T)[None]
        return IdempotentSet(self.source,
                             tuple(_element_rows(self.source, coeffs)[0]))

    def field_dims(self) -> tuple[int, ...]:
        return tuple(_FIELD_DIM[tag] for tag, _ in self.blocks)

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

    def factorize(lab):
        a, b = lab
        return [(f, 0) for f in _clifford_factors(a)] \
            + [(0, f) for f in _clifford_factors(b)]

    images = _images_from_generators(src, blocks, gens, factorize)
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

    def factorize(lab):
        a, b = lab
        return [(f, 0) for f in _clifford_factors(a)] \
            + [(0, f) for f in _clifford_factors(b)]

    images = _images_from_generators(src, blocks, gens, factorize)
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
    images = {}
    for rho in src.labels:
        mats = []
        for (tag, _), f in zip(blocks, freqs):
            phase = roots[sum(ft * rt for ft, rt in zip(f, rho)) % delta]
            mats.append(np.array([[phase.real]]) if tag == "R"
                        else np.array([[phase]]))
        images[rho] = mats
    rep = Representation(src, tuple(blocks), images,
                         name=f"cyclic({kappa},{delta})->DFT")
    rep.frequencies = tuple(freqs)
    return rep


def rep_trivial(spec: AlgebraSpec) -> Representation:
    """The identity representation of R, C or H as a single 1x1 block."""
    if not spec.is_division:
        raise AlgebraError("rep_trivial needs the real/complex/quaternion algebra")
    tag = {1: "R", 2: "C", 4: "H"}[spec.dim]
    images = {}
    for lab in spec.labels:
        vec = np.zeros(spec.dim)
        vec[spec.label_index(lab)] = 1.0
        if tag == "R":
            images[lab] = [np.array([[1.0]])]
        elif tag == "C":
            images[lab] = [np.array([[vec[0] + 1j * vec[1]]])]
        else:
            images[lab] = [vec.reshape(1, 1, 4)]
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

    Entry (i, j) of A becomes the (i, j) block of size n_l x n_l.
    """
    if A.spec != rep.source:
        raise SpecMismatchError("matrix algebra does not match the representation")
    params = _coeff_array(rep.source, A.entries) @ rep.fwd.T
    out = []
    for (tag, nl), lo, hi in rep._slices():
        field = _field_spec(tag)
        x = params[..., lo:hi].reshape(A.m, A.n, nl, nl, field.dim)
        x = x.transpose(0, 2, 1, 3, 4).reshape(A.m * nl, A.n * nl, field.dim)
        out.append(AlgMatrix(field, _element_rows(field, x)))
    return out


def unlift(blocks_mats, rep: Representation, m: int, n: int) -> AlgMatrix:
    """Map per-block matrices back to one matrix over the source algebra."""
    parts = []
    for ((tag, nl), _, _), B in zip(rep._slices(), blocks_mats):
        x = _coeff_array(_field_spec(tag), B.entries)
        parts.append(x.reshape(m, nl, n, nl, -1).transpose(0, 2, 1, 3, 4)
                     .reshape(m, n, -1))
    coeffs = np.concatenate(parts, axis=-1) @ rep.inv.T
    return AlgMatrix(rep.source, _element_rows(rep.source, coeffs))


# -- the two decompositions ------------------------------------------------------

def _block_eps(eps: float, d: int) -> float:
    # Mapping block entries back to coefficients can dilute residuals by up
    # to d/2, so blocks run at a proportionally tighter tolerance.
    return 0.0 if eps == 0.0 else eps * 2.0 / d


def wqr(A: AlgMatrix, rep: Representation, eps: float = 0.0,
        max_sweeps: int = 200) -> DecompReport:
    """QR through the representation: exact per-block triangularisation."""
    t0 = time.perf_counter()
    blocks = lift(A, rep)
    beps = _block_eps(eps, rep.source.dim)
    qs, rs, rot, sweeps = [], [], [], 0
    for l, B in enumerate(blocks):
        try:
            sub = aqr(B, beta="division", norm="two", eps=beps,
                      max_sweeps=max_sweeps)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"block {l} {rep.blocks[l]}: {exc}", exc.report) from exc
        qs.append(sub.q)
        rs.append(sub.r)
        rot.append(sub.rotations)
        sweeps = max(sweeps, sub.sweeps)
    Q = unlift(qs, rep, A.m, A.m)
    R = unlift(rs, rep, A.m, A.n)
    return DecompReport(
        kind="qr", method="wedderburn", rotations=sum(rot), sweeps=sweeps,
        qrd_calls=0, residual=_below_diag_max(R, Element.norm_inf),
        wall_time=time.perf_counter() - t0, eps=eps, norm="inf",
        beta="division", q=Q, r=R, block_rotations=tuple(rot))


def _sorted_block_svd(spec, u, d, v):
    L = min(d.m, d.n)
    vals = [d.entries[t][t].re() for t in range(L)]
    order = sorted(range(L), key=lambda t: -vals[t])
    if order == list(range(L)):
        return u, d, v
    pu = order + list(range(L, d.m))
    pv = order + list(range(L, d.n))
    d2 = AlgMatrix(spec, [[d.entries[pu[a]][pv[b]] for b in range(d.n)]
                          for a in range(d.m)])
    u2 = AlgMatrix(spec, [[u.entries[r][pu[c]] for c in range(u.n)]
                          for r in range(u.m)])
    v2 = AlgMatrix(spec, [[v.entries[r][pv[c]] for c in range(v.n)]
                          for r in range(v.m)])
    return u2, d2, v2


def wsvd(A: AlgMatrix, rep: Representation, eps: float = 1e-10,
         max_iters: int = 500, max_sweeps: int = 200) -> DecompReport:
    """SVD through the representation; block singular values sorted descending."""
    if eps <= 0:
        raise AlgebraError("SVD needs eps > 0")
    t0 = time.perf_counter()
    blocks = lift(A, rep)
    beps = _block_eps(eps, rep.source.dim)
    us, ds, vs, rot = [], [], [], []
    qrd_calls = sweeps = 0
    for l, B in enumerate(blocks):
        field = B.spec
        try:
            sub = asvd(B, beta="division", norm="two", eps=beps,
                       max_iters=max_iters, max_sweeps=max_sweeps)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"block {l} {rep.blocks[l]}: {exc}", exc.report) from exc
        u, d, v = _sorted_block_svd(field, sub.u, sub.d, sub.v)
        us.append(u)
        ds.append(d)
        vs.append(v)
        rot.append(sub.rotations)
        qrd_calls += sub.qrd_calls
        sweeps += sub.sweeps
    U = unlift(us, rep, A.m, A.m)
    D = unlift(ds, rep, A.m, A.n)
    V = unlift(vs, rep, A.n, A.n)
    return DecompReport(
        kind="svd", method="wedderburn", rotations=sum(rot), sweeps=sweeps,
        qrd_calls=qrd_calls, residual=_off_diag_max(D, Element.norm_inf),
        wall_time=time.perf_counter() - t0, eps=eps, norm="inf",
        beta="division", u=U, d=D, v=V, block_rotations=tuple(rot))


def diagonal_support_labels(M: AlgMatrix, rel_tol: float = 1e-8) -> list:
    """Labels carrying significant weight on the diagonal of a factor.

    Diagnostic: factors coming off the representation route are constrained
    (block-diagonal entries must lift to triangular/real-diagonal blocks),
    so their diagonal entries live in a low-dimensional subspace of the
    algebra.  Returns the sorted labels whose coefficient exceeds rel_tol
    times the largest diagonal coefficient.
    """
    spec = M.spec
    cut = rel_tol * max((M.entries[k][k].norm_inf()
                         for k in range(min(M.m, M.n))), default=0.0)
    labels = set()
    for k in range(min(M.m, M.n)):
        labels.update(lab for lab, c in M.entries[k][k].coeffs.items()
                      if abs(c) > cut)
    return sorted(labels, key=spec.sort_key)


# -- idempotent splitting -----------------------------------------------------------

@dataclass
class IdempotentSet:
    """Central idempotents 1_k with sum 1; right multiplication projects."""
    spec: AlgebraSpec
    elements: tuple

    def residual(self) -> float:
        """Worst violation of the idempotent/orthogonality/partition laws."""
        worst = 0.0
        total = self.spec.zero()
        for k, e in enumerate(self.elements):
            worst = max(worst, (e * e - e).norm_inf())
            worst = max(worst, (e.conj() - e).norm_inf())
            total = total + e
            for l, f in enumerate(self.elements):
                if k != l:
                    worst = max(worst, (e * f).norm_inf())
        worst = max(worst, (total - self.spec.one()).norm_inf())
        return worst

    def validate(self, tol: float = 1e-12):
        res = self.residual()
        if res > tol:
            raise AlgebraError(
                f"invalid idempotent set (worst residual {res:.3e})")


def idempotent_split(A: AlgMatrix, idem: IdempotentSet) -> list[AlgMatrix]:
    """Project a matrix onto each summand: parts_k = A * 1_k entry-wise."""
    if A.spec != idem.spec:
        raise SpecMismatchError("matrix and idempotents use different algebras")
    idem.validate()
    return [AlgMatrix(A.spec, [[e * p for e in row] for row in A.entries])
            for p in idem.elements]


def idempotent_join(parts, idem: IdempotentSet) -> AlgMatrix:
    """Sum the projected parts back together."""
    if len(parts) != len(idem.elements):
        raise AlgebraError("one part per idempotent expected")
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


# -- Laurent <-> cyclic transport ------------------------------------------------------

def laurent_embed(A: AlgMatrix, delta: int) -> AlgMatrix:
    """View a Laurent matrix inside the cyclic group algebra (Z/delta)^kappa.

    Requires even delta strictly larger than twice the largest absolute
    exponent present, so that products of the embedded data cannot wrap.
    """
    spec = A.spec
    if not isinstance(spec, LaurentAlgebra):
        raise SpecMismatchError("laurent_embed needs a Laurent matrix")
    maxexp = 0
    for row in A.entries:
        for e in row:
            for lab in e.coeffs:
                maxexp = max(maxexp, max((abs(x) for x in lab), default=0))
    need = 2 * maxexp + 2
    if delta % 2 or delta <= 2 * maxexp:
        raise AlgebraError(
            f"delta={delta} too small for exponents up to {maxexp}; "
            f"need even delta >= {need}")
    tgt = cyclic(spec.kappa, delta)
    return AlgMatrix(tgt, [[Element(tgt, {tuple(x % delta for x in lab): c
                                          for lab, c in e.coeffs.items()})
                            for e in row] for row in A.entries])


def laurent_unembed(A: AlgMatrix) -> AlgMatrix:
    """Map a cyclic-algebra matrix back to Laurent exponents in (-d/2, d/2]."""
    spec = A.spec
    if not isinstance(spec, CyclicGroupAlgebra):
        raise SpecMismatchError("laurent_unembed needs a cyclic-algebra matrix")
    tgt = laurent(spec.kappa)
    half = spec.delta // 2
    return AlgMatrix(tgt, [[Element(tgt, {tuple(x - spec.delta if x > half else x
                                                for x in lab): c
                                          for lab, c in e.coeffs.items()})
                            for e in row] for row in A.entries])
