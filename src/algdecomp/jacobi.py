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

from .core import AlgebraError, AlgebraSpec, AlgMatrix, Element


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


def apply_givens_left(X: AlgMatrix, g: GivensParams) -> AlgMatrix:
    """G(theta, b, i, j) @ X; only rows i and j change, norms are preserved."""
    _require_unitary(g.b)
    if g.i >= X.m:
        raise AlgebraError("row index out of range")
    out = X.copy()
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

def _below_diag_max(R: AlgMatrix, normfn) -> float:
    worst = 0.0
    for j in range(min(R.m, R.n)):
        for i in range(j + 1, R.m):
            worst = max(worst, normfn(R.entries[i][j]))
    return worst


def _off_diag_max(D: AlgMatrix, normfn) -> float:
    worst = 0.0
    for i in range(D.m):
        row = D.entries[i]
        for j in range(D.n):
            if i != j:
                worst = max(worst, normfn(row[j]))
    return worst


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

    Raises :class:`ConvergenceError` carrying the partial factors when
    ``max_sweeps`` is exhausted.  ``on_step(R)`` is called after every
    modification of R, which the tests use to watch invariants.
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
    R = A.copy()
    Q = AlgMatrix.identity(spec, m)
    one = spec.one()
    rotations = sweeps = 0
    trimmed = stalled = warnings = 0

    def partial_report():
        return DecompReport(
            kind="qr", method="jacobi", rotations=rotations, sweeps=sweeps,
            qrd_calls=0, residual=_below_diag_max(R, normfn),
            wall_time=time.perf_counter() - t0, eps=eps, norm=norm_name,
            beta=beta_name, q=Q, r=R, trimmed=trimmed,
            stalled_pivots=stalled, decency_warnings=warnings)

    g1 = eps + 1.0
    while g1 > eps:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"QR did not reach eps={eps:g} within {max_sweeps} sweeps",
                partial_report())
        sweeps += 1
        for k in range(min(m, n)):
            pivot = R.entries[k][k]
            b = betafn(pivot)
            if b.coeffs != one.coeffs:
                old_re = abs(pivot.re())
                _row_scale(R, b.conj(), k)
                _col_scale(Q, b, k)
                if trim > 0.0:
                    trimmed += _trim_rows(R, (k,), trim)
                if abs(R.entries[k][k].re()) + 1e-12 * max(old_re, 1.0) < old_re:
                    warnings += 1
                if on_step is not None:
                    on_step(R)
            if k == m - 1:
                break
            while True:
                # largest below-pivot entry; ties toward the lowest row
                best_i, g2 = k + 1, normfn(R.entries[k + 1][k])
                for i in range(k + 2, m):
                    v = normfn(R.entries[i][k])
                    if v > g2:
                        best_i, g2 = i, v
                if g2 <= eps:
                    break
                i = best_i
                target = R.entries[i][k]
                b = betafn(target)
                t = b.conj() * target
                old_re = abs(target.re())
                if abs(t.re()) + 1e-12 * max(old_re, 1.0) < old_re:
                    warnings += 1
                if t.re() == 0.0:
                    # theta would be 0 or pi and the pivot cannot grow, so
                    # further rotations on this column make no progress
                    # (only possible for an indecent beta)
                    stalled += 1
                    break
                theta = math.atan2(t.re(), R.entries[k][k].re())
                _rows_rotate(R, -theta, b, i, k)
                _cols_rotate(Q, theta, b, i, k)
                rotations += 1
                if exact:
                    # the rotation annihilates the entry up to round-off
                    R.entries[i][k] = spec.zero()
                if trim > 0.0:
                    trimmed += _trim_rows(R, (i, k), trim)
                    trimmed += _trim_cols(Q, (i, k), trim)
                if on_step is not None:
                    on_step(R)
        g1 = _below_diag_max(R, normfn)

    for k in range(min(m, n)):
        if R.entries[k][k].re() < 0:
            _row_scale(R, spec.scalar(-1.0), k)
            _col_scale(Q, spec.scalar(-1.0), k)
            if on_step is not None:
                on_step(R)

    rep = partial_report()
    rep.residual = _below_diag_max(R, normfn)
    return rep


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
    while g > eps:
        if qrd_calls >= max_iters:
            raise ConvergenceError(
                f"SVD did not reach eps={eps:g} within {max_iters} QR calls",
                partial_report())
        for hermitian_side in (False, True):
            work = D.herm() if hermitian_side else D
            sub = aqr(work, beta=beta, norm=norm, eps=eps,
                      max_sweeps=max_sweeps, trim=trim)
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
