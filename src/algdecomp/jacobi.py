"""Rotation engine: generalized Givens QR and SVD-by-QR over a *-algebra.

The QR iteration works column by column.  For each pivot column it first
applies a diagonal shift that rotates the pivot's dominant component onto
the real axis, then repeatedly picks the largest below-pivot entry and
applies a plane rotation

    G(theta, b, i, j) = B(b, i) G(theta, 1, i, j) B(b, i)^H

whose off-plane entries carry a unitary element b.  With beta chosen
*decent* for the working norm (see :func:`decency_check`) every rotation
strictly grows Re(r_kk)^2, which forces the below-diagonal mass under any
positive tolerance.  The SVD alternates QR passes on D and on D^H until all
off-diagonal entries are small.

Over the real, complex and quaternion algebras, ``beta="division"``
annihilates each targeted entry exactly, so QR terminates after one sweep
with one rotation per nonzero below-diagonal entry even at eps = 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (AlgebraError, AlgebraSpec, AlgMatrix, Element, _coeff_array,
                   _element_rows)


class ConvergenceError(AlgebraError):
    """Iteration budget exceeded; ``report`` carries the partial factors."""

    def __init__(self, message: str, report: "DecompReport"):
        super().__init__(message)
        self.report = report


@dataclass
class DecompReport:
    """Factors plus iteration counters and residual diagnostics.

    ``residual`` is the maximum below-diagonal (QR) or off-diagonal (SVD)
    entry norm of the returned middle factor, measured in ``norm``.
    """

    kind: str                       # "qr" | "svd"
    method: str                     # "jacobi" | "wedderburn"
    rotations: int
    sweeps: int
    qrd_calls: int
    residual: float
    wall_time: float
    eps: float
    norm: str
    beta: str
    q: Optional[AlgMatrix] = None
    r: Optional[AlgMatrix] = None
    u: Optional[AlgMatrix] = None
    d: Optional[AlgMatrix] = None
    v: Optional[AlgMatrix] = None
    trimmed: int = 0
    stalled_pivots: int = 0
    decency_warnings: int = 0
    block_rotations: tuple = ()

    def summary(self) -> str:
        lines = [f"kind={self.kind} method={self.method} eps={self.eps:g} "
                 f"norm={self.norm} beta={self.beta}",
                 f"rotations={self.rotations} sweeps={self.sweeps} "
                 f"qrd_calls={self.qrd_calls}",
                 f"residual={self.residual:.6e} wall_time={self.wall_time:.3f}s"]
        if self.trimmed:
            lines.append(f"trimmed_coefficients={self.trimmed}")
        if self.stalled_pivots:
            lines.append(f"stalled_pivots={self.stalled_pivots}")
        if self.decency_warnings:
            lines.append(f"decency_warnings={self.decency_warnings}")
        return "\n".join(lines)


# -- beta functions -------------------------------------------------------------

def beta_basis(a: Element) -> Element:
    """The basis element carrying the largest-magnitude coefficient.

    Ties break toward the earliest label in canonical order; beta(0) = 1.
    Decent for the sup norm (rho = 1) whenever the basis is unitary.
    """
    if not a.coeffs:
        return a.spec.one()
    spec = a.spec
    best_lab = None
    best_mag = -1.0
    best_key = None
    for lab, c in a.coeffs.items():
        mag = abs(c)
        if mag > best_mag:
            best_lab, best_mag, best_key = lab, mag, None
        elif mag == best_mag:
            if best_key is None:
                best_key = spec.sort_key(best_lab)
            key = spec.sort_key(lab)
            if key < best_key:
                best_lab, best_key = lab, key
    return spec.basis_element(best_lab)


def beta_division(a: Element) -> Element:
    """a / ||a||_2, the optimal choice on a division algebra (rho = 1).

    conj(beta(a)) * a then has 2-norm equal to its real part, so each
    rotation removes the targeted entry entirely.
    """
    if not a.spec.is_division:
        raise AlgebraError(
            f"beta_division needs the real/complex/quaternion algebra, "
            f"got {a.spec.descriptor}")
    if not a.coeffs:
        return a.spec.one()
    return a / a.norm2()


def beta_prime(inner: Callable[[Element], Element]) -> Callable[[Element], Element]:
    """Wrap a beta so the real part of the shifted pivot never shrinks.

    Returns inner(a) when |Re(conj(inner(a)) a)| >= |Re(a)| and the unit
    element otherwise; this upgrades any beta satisfying the norm lower
    bound into a fully decent one.
    """

    def wrapped(a: Element) -> Element:
        if not a.coeffs:
            return a.spec.one()
        b = inner(a)
        if abs((b.conj() * a).re()) >= abs(a.re()):
            return b
        return a.spec.one()

    return wrapped


def resolve_beta(spec: AlgebraSpec, beta) -> tuple[Callable, str, bool]:
    """Map a beta choice to (callable, name, exact-annihilation flag)."""
    if callable(beta):
        return beta, getattr(beta, "__name__", "custom"), False
    if beta == "auto":
        beta = "division" if spec.is_division else "basis"
    if beta == "basis":
        return beta_basis, "basis", False
    if beta == "division":
        if not spec.is_division:
            raise AlgebraError(
                f"beta='division' needs a division algebra, got {spec.descriptor}")
        return beta_division, "division", True
    raise AlgebraError(f"unknown beta choice {beta!r}")


def resolve_norm(spec: AlgebraSpec, norm) -> tuple[Callable[[Element], float], str]:
    if norm == "auto":
        norm = "two" if spec.is_division else "inf"
    if norm == "two":
        return Element.norm2, "two"
    if norm == "inf":
        return Element.norm_inf, "inf"
    raise AlgebraError(f"unknown norm choice {norm!r}")


# -- shifts and rotations ----------------------------------------------------------

@dataclass(frozen=True)
class GivensParams:
    """Parameters of G(theta, b, i, j) with pivot row j < shifted row i."""
    theta: float
    b: Element
    i: int
    j: int

    def __post_init__(self):
        if not 0 <= self.j < self.i:
            raise AlgebraError(f"need 0 <= j < i, got i={self.i}, j={self.j}")


def _require_unitary(b: Element, tol: float = 1e-12):
    if (b.conj() * b - b.spec.one()).norm2() > tol:
        raise AlgebraError("shift element is not unitary")


def givens_matrix(spec: AlgebraSpec, m: int, g: GivensParams) -> AlgMatrix:
    """G(theta, b, i, j) as an explicit m-by-m matrix (mainly for tests)."""
    _require_unitary(g.b)
    out = AlgMatrix.identity(spec, m)
    c, s = math.cos(g.theta), math.sin(g.theta)
    out[g.j, g.j] = spec.scalar(c)
    out[g.i, g.i] = spec.scalar(c)
    out[g.j, g.i] = g.b.conj() * (-s)
    out[g.i, g.j] = g.b * s
    return out


def _rows_rotate(X: AlgMatrix, theta: float, b: Element, i: int, j: int):
    """In place: X <- G(theta, b, i, j) X.  Touches only rows i and j."""
    spec = X.spec
    c, s = math.cos(theta), math.sin(theta)
    bc = b.conj().coeffs
    bb = b.coeffs
    mul = spec.mul_basis
    rowj, rowi = X.entries[j], X.entries[i]
    for col in range(X.n):
        xj, xi = rowj[col].coeffs, rowi[col].coeffs
        # new_j = c*xj - s*(conj(b)·xi);  new_i = s*(b·xj) + c*xi
        nj = {k: c * v for k, v in xj.items()} if c != 0.0 else {}
        if s != 0.0:
            for lb, cb in bc.items():
                cc = -s * cb
                for k, v in xi.items():
                    sg, lk = mul(lb, k)
                    nj[lk] = nj.get(lk, 0.0) + cc * sg * v
        ni = {k: c * v for k, v in xi.items()} if c != 0.0 else {}
        if s != 0.0:
            for lb, cb in bb.items():
                cc = s * cb
                for k, v in xj.items():
                    sg, lk = mul(lb, k)
                    ni[lk] = ni.get(lk, 0.0) + cc * sg * v
        rowj[col] = Element._make(spec, {k: v for k, v in nj.items() if v != 0.0})
        rowi[col] = Element._make(spec, {k: v for k, v in ni.items() if v != 0.0})


def _cols_rotate(X: AlgMatrix, theta: float, b: Element, i: int, j: int):
    """In place: X <- X G(theta, b, i, j).  Touches only columns i and j."""
    spec = X.spec
    c, s = math.cos(theta), math.sin(theta)
    bc = b.conj().coeffs
    bb = b.coeffs
    mul = spec.mul_basis
    for row in X.entries:
        xj, xi = row[j].coeffs, row[i].coeffs
        # new_j = c*xj + s*(xi·b);  new_i = -s*(xj·conj(b)) + c*xi
        nj = {k: c * v for k, v in xj.items()} if c != 0.0 else {}
        if s != 0.0:
            for lb, cb in bb.items():
                cc = s * cb
                for k, v in xi.items():
                    sg, lk = mul(k, lb)
                    nj[lk] = nj.get(lk, 0.0) + cc * sg * v
        ni = {k: c * v for k, v in xi.items()} if c != 0.0 else {}
        if s != 0.0:
            for lb, cb in bc.items():
                cc = -s * cb
                for k, v in xj.items():
                    sg, lk = mul(k, lb)
                    ni[lk] = ni.get(lk, 0.0) + cc * sg * v
        row[j] = Element._make(spec, {k: v for k, v in nj.items() if v != 0.0})
        row[i] = Element._make(spec, {k: v for k, v in ni.items() if v != 0.0})


def _row_scale(X: AlgMatrix, b: Element, i: int):
    """In place: row i <- b * row i (left shift by B(b, i))."""
    row = X.entries[i]
    for col in range(X.n):
        row[col] = b * row[col]


def _col_scale(X: AlgMatrix, b: Element, i: int):
    """In place: column i <- column i * b (right shift by B(b, i))."""
    for row in X.entries:
        row[i] = row[i] * b


def _gathers(spec: AlgebraSpec, b: Element):
    """Left multiplication by b and by conj(b) on coefficient arrays of a
    dense spec, as signed gathers ``(idx, w)``: x -> x[..., idx] * w, summed
    over the rows of a 2-D ``idx`` (one row per term of b; a multiple of
    one basis element gives 1-D rows and no sum).  Returns
    ``(conj(b)., b.)``, an action and its adjoint.

    From the tables, conj(e_a) x = x[index[a]] * sign[a], and
    e_a = s conj(e_a') when conj(e_a) = s e_a'.
    """
    t = spec.tables
    if len(b.coeffs) == 1:
        (lab, w), = b.coeffs.items()
        a = spec.label_index(lab)
        a_inv = t.inv_index[a]
        w_inv = w * t.inv_sign[a]
    else:
        a = [spec.label_index(lab) for lab in b.coeffs]
        w = np.array(list(b.coeffs.values()))[:, None]
        a_inv = t.inv_index[a]
        w_inv = w * t.inv_sign[a][:, None]
    return ((t.index[a], w * t.sign[a]),
            (t.index[a_inv], w_inv * t.sign[a_inv]))


def _act(x: np.ndarray, op) -> np.ndarray:
    idx, w = op
    y = x.take(idx, axis=-1)
    y *= w
    return y if idx.ndim == 1 else y.sum(axis=-2)


def _rotate(x: np.ndarray, y: np.ndarray, c: float, s: float, op, op_t):
    """The rotation kernel of the dense specs, in place on two rows of
    coefficients: (x, y) <- (c x - s op(y), s op_t(x) + c y), with
    op = conj(b). and op_t = b. from :func:`_gathers`."""
    bx, by = _act(x, op_t), _act(y, op)
    bx *= s
    by *= s
    np.subtract(c * x, by, out=x)
    np.add(bx, c * y, out=y)


def apply_givens_left(X: AlgMatrix, g: GivensParams) -> AlgMatrix:
    """G(theta, b, i, j) @ X; only rows i and j change, norms are preserved."""
    _require_unitary(g.b)
    if g.i >= X.m:
        raise AlgebraError("row index out of range")
    spec = X.spec
    out = X.copy()
    if spec.dense:
        pair = _coeff_array(spec, [X.entries[g.j], X.entries[g.i]])
        _rotate(pair[0], pair[1], math.cos(g.theta), math.sin(g.theta),
                *_gathers(spec, g.b))
        out.entries[g.j], out.entries[g.i] = _element_rows(spec, pair)
    else:
        _rows_rotate(out, g.theta, g.b, g.i, g.j)
    return out


def apply_shift_left(X: AlgMatrix, b: Element, i: int) -> AlgMatrix:
    """B(b, i) @ X: left-multiply row i by the unitary element b."""
    _require_unitary(b)
    if not 0 <= i < X.m:
        raise AlgebraError("row index out of range")
    out = X.copy()
    _row_scale(out, b, i)
    return out


def apply_shift_right(X: AlgMatrix, b: Element, i: int) -> AlgMatrix:
    """X @ B(b, i): right-multiply column i by the unitary element b."""
    _require_unitary(b)
    if not 0 <= i < X.n:
        raise AlgebraError("column index out of range")
    out = X.copy()
    _col_scale(out, b, i)
    return out


# -- trimming (opt-in, for coefficient growth in polynomial algebras) -------------

def _trim_element(e: Element, tau: float) -> tuple[Element, int]:
    coeffs = e.coeffs
    if not coeffs:
        return e, 0
    cut = tau * max(abs(v) for v in coeffs.values())
    kept = {k: v for k, v in coeffs.items() if abs(v) > cut}
    dropped = len(coeffs) - len(kept)
    if dropped:
        return Element._make(e.spec, kept), dropped
    return e, 0


def _trim_rows(X: AlgMatrix, rows, tau: float) -> int:
    dropped = 0
    for i in rows:
        row = X.entries[i]
        for col in range(X.n):
            row[col], n = _trim_element(row[col], tau)
            dropped += n
    return dropped


def _trim_cols(X: AlgMatrix, cols, tau: float) -> int:
    dropped = 0
    for row in X.entries:
        for j in cols:
            row[j], n = _trim_element(row[j], tau)
            dropped += n
    return dropped


def _trim_all(X: AlgMatrix, tau: float) -> int:
    return _trim_rows(X, range(X.m), tau)


# -- the QR iteration ----------------------------------------------------------------

def _nan_max(values) -> float:
    """The largest of ``values`` and 0.0, or NaN when one of them is NaN
    (``max`` keeps whichever of a NaN and a number comes first)."""
    worst = 0.0
    for v in values:
        if v > worst:
            worst = v
        elif v != v:
            return v
    return worst


def _below_diag_max(R: AlgMatrix, normfn) -> float:
    return _nan_max(normfn(R.entries[i][j]) for j in range(min(R.m, R.n))
                    for i in range(j + 1, R.m))


def _off_diag_max(D: AlgMatrix, normfn) -> float:
    return _nan_max(normfn(e) for i, row in enumerate(D.entries)
                    for j, e in enumerate(row) if i != j)


class _ElementWork:
    """R and Q of one QR run as grids of elements, rotated coefficient by
    coefficient through ``mul_basis``: infinite specs, and R, C and H."""

    def __init__(self, A: AlgMatrix, betafn, normfn, norm_name: str):
        self.spec = A.spec
        self.R = A.copy()
        self.Q = AlgMatrix.identity(A.spec, A.m)
        self.betafn, self.normfn = betafn, normfn

    def column(self, k: int) -> tuple[float, int]:
        """2-norm of column k from the pivot down, and its coefficient width
        (the dimension, or the largest support over an infinite spec)."""
        col = [row[k] for row in self.R.entries[k:]]
        width = self.spec.dim or max(max(e.support for e in col), 1)
        return math.sqrt(sum(e.norm2() ** 2 for e in col)), width

    def norm(self, i: int, k: int) -> float:
        return self.normfn(self.R.entries[i][k])

    def pick(self, k: int) -> tuple[int, float]:
        """Row and norm of the largest below-pivot entry; ties toward the
        lowest row, and a NaN norm wins."""
        rows = self.R.entries
        best_i, g2 = k + 1, self.normfn(rows[k + 1][k])
        for i in range(k + 2, self.R.m):
            v = self.normfn(rows[i][k])
            if v > g2 or v != v:
                best_i, g2 = i, v
        return best_i, g2

    def re(self, i: int, k: int) -> float:
        return self.R.entries[i][k].re()

    def beta(self, i: int, k: int) -> Element:
        return self.betafn(self.R.entries[i][k])

    def aligned(self, i: int, k: int, b: Element) -> float:
        """Re(conj(b) r_ik)."""
        return (b.conj() * self.R.entries[i][k]).re()

    def shift(self, k: int, b: Element):
        _row_scale(self.R, b.conj(), k)
        _col_scale(self.Q, b, k)

    def rotate(self, i: int, k: int, theta: float, b: Element):
        _rows_rotate(self.R, -theta, b, i, k)
        _cols_rotate(self.Q, theta, b, i, k)

    def negate(self, k: int):
        minus = self.spec.scalar(-1.0)
        _row_scale(self.R, minus, k)
        _col_scale(self.Q, minus, k)

    def zero(self, i: int, k: int):
        self.R.entries[i][k] = self.spec.zero()

    def trim(self, rows, cols, tau: float) -> int:
        return _trim_rows(self.R, rows, tau) + _trim_cols(self.Q, cols, tau)

    def residual(self) -> float:
        return _below_diag_max(self.R, self.normfn)

    def factors(self) -> tuple[AlgMatrix, AlgMatrix]:
        return self.Q, self.R


def _norms_inf(x: np.ndarray) -> np.ndarray:
    return np.abs(x).max(axis=-1)


def _norms_two(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=-1))


def _trim_array(x: np.ndarray, tau: float) -> int:
    """In place on (..., d) coefficients: zero those at or below ``tau``
    times their entry's largest; returns how many nonzero ones went."""
    mag = np.abs(x)
    drop = (x != 0.0) & ~(mag > tau * mag.max(axis=-1, keepdims=True))
    x[drop] = 0.0
    return int(drop.sum())


class _ArrayWork:
    """R and Q^H of one QR run side by side in one (m, n + m, d) coefficient
    array of a dense spec.  R <- G R and Q <- Q G^H make Q^H <- G Q^H, so
    every shift and rotation is one row operation on the array, through the
    signed gathers of :func:`_gathers`.

    With ``beta_basis`` every shift and rotation is the same floating-point
    operation as in :class:`_ElementWork` (conjugation only permutes and
    negates), so under the sup norm both give bit-identical factors; 2-norms
    are summed in another order."""

    def __init__(self, A: AlgMatrix, betafn, normfn, norm_name: str):
        self.spec = spec = A.spec
        self.n = A.n
        self.RQ = np.zeros((A.m, A.n + A.m, spec.dim))
        self.RQ[:, :A.n] = _coeff_array(spec, A.entries)
        self.RQ[np.arange(A.m), A.n + np.arange(A.m), 0] = 1.0
        self.betafn = betafn
        self.norms = _norms_two if norm_name == "two" else _norms_inf

    def column(self, k: int) -> tuple[float, int]:
        return float(_norms_two(self.RQ[k:, k].ravel())), self.spec.dim

    def norm(self, i: int, k: int) -> float:
        return float(self.norms(self.RQ[i, k]))

    def pick(self, k: int) -> tuple[int, float]:
        norms = self.norms(self.RQ[k + 1:, k])
        j = int(norms.argmax())  # first maximum, or first NaN
        return k + 1 + j, float(norms[j])

    def re(self, i: int, k: int) -> float:
        return float(self.RQ[i, k, 0])

    def beta(self, i: int, k: int) -> Element:
        x = self.RQ[i, k]
        spec = self.spec
        if self.betafn is beta_basis:
            # the first largest coefficient: beta_basis's canonical tie-break
            return spec.basis_element(spec.labels[int(np.abs(x).argmax())])
        return self.betafn(_element_rows(spec, x[None, None])[0][0])

    def aligned(self, i: int, k: int, b: Element) -> float:
        # Re(conj(e_a) e_c) = delta_ac over a unitary basis
        x, index = self.RQ[i, k], self.spec._index
        return float(sum(c * x[index[lab]] for lab, c in b.coeffs.items()))

    def shift(self, k: int, b: Element):
        self.RQ[k] = _act(self.RQ[k], _gathers(self.spec, b)[0])

    def rotate(self, i: int, k: int, theta: float, b: Element):
        _rotate(self.RQ[k], self.RQ[i], math.cos(-theta), math.sin(-theta),
                *_gathers(self.spec, b))

    def negate(self, k: int):
        self.RQ[k] *= -1.0

    def trim(self, rows, cols, tau: float) -> int:
        n = self.n
        return (sum(_trim_array(self.RQ[i, :n], tau) for i in rows)
                + sum(_trim_array(self.RQ[j, n:], tau) for j in cols))

    def residual(self) -> float:
        return float(np.tril(self.norms(self.RQ[:, :self.n]), -1).max())

    def factors(self) -> tuple[AlgMatrix, AlgMatrix]:
        spec, n = self.spec, self.n
        t = spec.tables
        q = self.RQ[:, n:].transpose(1, 0, 2)[..., t.inv_index] * t.inv_sign
        return (AlgMatrix(spec, _element_rows(spec, q)),
                AlgMatrix(spec, _element_rows(spec, self.RQ[:, :n])))


def _rotation_budget(max_sweeps: int, rows: int, colnorm: float, width: int,
                     eps: float) -> int:
    """Rotations one pivot column may take in one sweep.

    The column has ``rows`` entries below the pivot, ``width`` coefficients
    each, and 2-norm ``colnorm`` from the pivot down (which rotations keep).
    Each rotation of a decent beta moves the largest below-pivot coefficient
    into the pivot's real part; were that a fixed share 1/slots of the
    column's remaining mass (slots = rows * width), slots * 2 ln(colnorm /
    eps) rotations would bring it under eps^2.  The budget is
    ``max_sweeps`` times that, and ``max_sweeps * slots`` for exact
    termination.
    """
    slots = max_sweeps * rows * width
    if eps > 0.0 and colnorm > eps:
        return slots * (1 + math.ceil(2.0 * math.log(colnorm / eps)))
    return slots


def aqr(A: AlgMatrix, beta="auto", norm="auto", eps: float = 1e-10,
        max_sweeps: int = 200, trim: float = 0.0,
        on_step=None) -> DecompReport:
    """QR decomposition by columns: A = Q R with Q unitary.

    Every below-diagonal entry of R ends with norm at most ``eps`` and the
    diagonal gets a non-negative real part.  ``eps = 0`` is allowed only
    with ``beta="division"`` on the real/complex/quaternion algebras, where
    termination is exact.  ``trim`` > 0 drops, after each rotation,
    coefficients at or below ``trim`` times the entry's largest one (useful
    for Laurent matrices whose supports would otherwise grow).

    Over finite specs other than R, C and H the factors are held as
    coefficient arrays and rotated by signed gathers through the spec's
    structure tables; elsewhere they are grids of elements.

    Raises :class:`ConvergenceError` carrying the partial factors when
    ``max_sweeps`` is exhausted, when one column in one sweep exceeds its
    rotation budget (:func:`_rotation_budget`), or when a pivot or a
    targeted entry has a non-finite norm.  ``on_step(R)`` is called after
    every modification of R, which the tests use to watch invariants.
    """
    spec = A.spec
    betafn, beta_name, exact = resolve_beta(spec, beta)
    normfn, norm_name = resolve_norm(spec, norm)
    if eps < 0:
        raise AlgebraError("eps must be non-negative")
    if eps == 0 and not exact:
        raise AlgebraError("eps = 0 requires beta='division' on R, C or H")
    if max_sweeps < 1:
        raise AlgebraError("max_sweeps must be at least 1")

    t0 = time.perf_counter()
    m, n = A.m, A.n
    W = (_ArrayWork if spec.dense else _ElementWork)(A, betafn, normfn,
                                                     norm_name)
    one = spec.one()
    rotations = sweeps = 0
    trimmed = stalled = warnings = 0

    def partial_report():
        q, r = W.factors()
        return DecompReport(
            kind="qr", method="jacobi", rotations=rotations, sweeps=sweeps,
            qrd_calls=0, residual=W.residual(),
            wall_time=time.perf_counter() - t0, eps=eps, norm=norm_name,
            beta=beta_name, q=q, r=r, trimmed=trimmed,
            stalled_pivots=stalled, decency_warnings=warnings)

    def step():
        if on_step is not None:
            on_step(W.factors()[1])

    g1 = eps + 1.0
    while not g1 <= eps:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"QR did not reach eps={eps:g} within {max_sweeps} sweeps",
                partial_report())
        sweeps += 1
        for k in range(min(m, n)):
            if not math.isfinite(W.norm(k, k)):
                raise ConvergenceError(f"non-finite pivot ({k}, {k})",
                                       partial_report())
            b = W.beta(k, k)
            if b.coeffs != one.coeffs:
                old_re = abs(W.re(k, k))
                W.shift(k, b)
                if trim > 0.0:
                    trimmed += W.trim((k,), (), trim)
                if abs(W.re(k, k)) + 1e-12 * max(old_re, 1.0) < old_re:
                    warnings += 1
                step()
            if k == m - 1:
                break
            spent, budget = 0, None
            while True:
                i, g2 = W.pick(k)
                if g2 <= eps:
                    break
                if not math.isfinite(g2):
                    raise ConvergenceError(f"non-finite target entry ({i}, {k})",
                                           partial_report())
                if spent >= m - k - 1:
                    # past one rotation per row, which exact termination
                    # never needs: only now is the budget worked out
                    if budget is None:
                        budget = _rotation_budget(max_sweeps, m - k - 1,
                                                  *W.column(k), eps)
                    if spent >= budget:
                        raise ConvergenceError(
                            f"QR column {k} did not reach eps={eps:g} within "
                            f"its rotation budget", partial_report())
                spent += 1
                b = W.beta(i, k)
                t_re = W.aligned(i, k, b)
                old_re = abs(W.re(i, k))
                if abs(t_re) + 1e-12 * max(old_re, 1.0) < old_re:
                    warnings += 1
                if t_re == 0.0:
                    # theta would be 0 or pi and the pivot cannot grow, so
                    # further rotations on this column make no progress
                    # (only possible for an indecent beta)
                    stalled += 1
                    break
                theta = math.atan2(t_re, W.re(k, k))
                W.rotate(i, k, theta, b)
                rotations += 1
                if exact:
                    # the rotation annihilates the entry up to round-off
                    # (division specs only, so always an _ElementWork)
                    W.zero(i, k)
                if trim > 0.0:
                    trimmed += W.trim((i, k), (i, k), trim)
                step()
        g1 = W.residual()

    for k in range(min(m, n)):
        if W.re(k, k) < 0:
            W.negate(k)
            step()

    return partial_report()


# -- the SVD iteration -----------------------------------------------------------------

def asvd(A: AlgMatrix, beta="auto", norm="auto", eps: float = 1e-10,
         max_iters: int = 500, max_sweeps: int = 200,
         trim: float = 0.0) -> DecompReport:
    """SVD by alternating QR passes: A = U D V^H with U, V unitary.

    Runs QR on D, then on D^H, accumulating U and V, until every
    off-diagonal entry of D has norm at most ``eps``.  ``max_iters`` bounds
    the number of QR calls.  Diagonal entries are not sorted: there is no
    canonical scalar order over a general algebra.
    """
    spec = A.spec
    if eps <= 0:
        raise AlgebraError("SVD needs eps > 0")
    if max_iters < 1:
        raise AlgebraError("max_iters must be at least 1")
    normfn, norm_name = resolve_norm(spec, norm)
    _, beta_name, _ = resolve_beta(spec, beta)

    t0 = time.perf_counter()
    m, n = A.m, A.n
    U = AlgMatrix.identity(spec, m)
    V = AlgMatrix.identity(spec, n)
    D = A.copy()
    rotations = qrd_calls = sweeps = trimmed = stalled = warnings = 0

    def partial_report():
        return DecompReport(
            kind="svd", method="jacobi", rotations=rotations, sweeps=sweeps,
            qrd_calls=qrd_calls, residual=_off_diag_max(D, normfn),
            wall_time=time.perf_counter() - t0, eps=eps, norm=norm_name,
            beta=beta_name, u=U, d=D, v=V, trimmed=trimmed,
            stalled_pivots=stalled, decency_warnings=warnings)

    g = _off_diag_max(D, normfn)
    while not g <= eps:
        if qrd_calls >= max_iters:
            raise ConvergenceError(
                f"SVD did not reach eps={eps:g} within {max_iters} QR calls",
                partial_report())
        for hermitian_side in (False, True):
            work = D.herm() if hermitian_side else D
            try:
                sub = aqr(work, beta=beta, norm=norm, eps=eps,
                          max_sweeps=max_sweeps, trim=trim)
            except ConvergenceError as exc:
                raise ConvergenceError(f"QR call {qrd_calls + 1}: {exc}",
                                       partial_report()) from exc
            qrd_calls += 1
            rotations += sub.rotations
            sweeps += sub.sweeps
            trimmed += sub.trimmed
            stalled += sub.stalled_pivots
            warnings += sub.decency_warnings
            if hermitian_side:
                D = sub.r.herm()
                V = V @ sub.q
            else:
                D = sub.r
                U = U @ sub.q
            if trim > 0.0:
                trimmed += _trim_all(U if not hermitian_side else V, trim)
        g = _off_diag_max(D, normfn)

    rep = partial_report()
    rep.residual = g
    return rep


# -- decency verification -----------------------------------------------------------------

@dataclass
class DecencyResult:
    rho: float
    passed: bool
    witness: Optional[Element] = None
    samples: int = 0

    def __str__(self):
        flag = "pass" if self.passed else "FAIL"
        return f"decency {flag}  rho_empirical={self.rho:.6g}  ({self.samples} samples)"


def decency_check(beta, spec: AlgebraSpec, samples: int = 1000,
                  norm: str = "inf", rng=None, degree: int = 2) -> DecencyResult:
    """Empirically test the two decency conditions for a beta function.

    For each probe a (every basis element when the dimension is finite,
    plus ``samples`` random elements) the check requires beta(a) unitary,
    |Re(conj(beta(a)) a)| >= |Re(a)|, and a strictly positive ratio
    |Re(conj(beta(a)) a)| / ||a||.  Returns the smallest ratio seen and the
    first witness of a violation, if any.
    """
    from .catalog import random_element  # local import to avoid a cycle

    rng = rng or np.random.default_rng(0)
    betafn, _, _ = resolve_beta(spec, beta)
    normfn, _ = resolve_norm(spec, norm)

    probes = []
    if spec.dim is not None:
        probes.extend(spec.basis_element(lab) for lab in spec.labels)
    probes.extend(random_element(spec, rng, degree) for _ in range(samples))

    rho = math.inf
    witness = None
    passed = True
    one = spec.one()
    for a in probes:
        na = normfn(a)
        if na == 0.0:
            continue
        b = betafn(a)
        if (b.conj() * b - one).norm2() > 1e-12:
            passed, witness = False, a
            break
        val = abs((b.conj() * a).re())
        if val + 1e-12 * na < abs(a.re()):
            passed, witness = False, a
            break
        ratio = val / na
        if ratio <= 1e-12:
            passed, witness = False, a
            rho = 0.0
            break
        rho = min(rho, ratio)
    return DecencyResult(rho=0.0 if rho is math.inf else rho,
                         passed=passed, witness=witness, samples=len(probes))
