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
off-diagonal entries are small; after a first pair run to eps, a pass
stops at max(eps, 0.1 g), g being D's largest off-diagonal norm before
it (eps if g is not finite), as the pass on D^H puts mass back anyway.
U and V accumulate each pass's rotations in its work array.  R and D are
measured scaled by a power of two, so A and eps times 2^k take the same
steps: nothing over- or underflows in a 2-norm.

Over the real, complex and quaternion algebras, ``beta="division"``
annihilates each targeted entry exactly, so QR terminates after one sweep
with one rotation per nonzero below-diagonal entry even at eps = 0 and
R's diagonal is real (the SVD's passes keep eps: a looser one would save
no rotation).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import AlgebraError, AlgebraSpec, AlgMatrix, Element, _exponent


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

def _unit_vector(pairs) -> list:
    """The (key, b_t) pairs of b = x / ||x||_2 for the nonzero (key, x_t)
    pairs of x, in order ([] for x = 0): squares summed in order, x first
    scaled by its largest coefficient's power of two (exact, dropping what
    underflows) when the norm is below 2^-511 or infinite, every b_t kept
    even if it is 0."""
    x = [(t, c) for t, c in pairs if c != 0.0]
    if not x:
        return x
    norm = math.sqrt(sum(c * c for _, c in x))
    if not 2.0 ** -511 <= norm < math.inf:
        e = math.frexp(max(abs(c) for _, c in x))[1]
        x = [(t, y) for t, c in x if (y := math.ldexp(c, -e)) != 0.0]
        norm = math.sqrt(sum(c * c for _, c in x))
    r = 1.0 / norm
    return [(t, r * c) for t, c in x]


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


def _basis_step(lay, x: np.ndarray, p: Optional[int]):
    """beta_basis read from x: e_p for x's first largest coefficient x_p,
    which is the alignment, and the unit when x = 0."""
    if p is None:
        p = int(np.abs(x).argmax())
    x_p = float(x[p])
    return ((lay.labels[p if x_p != 0.0 else lay.unit], 1.0),), x_p


def _division_step(lay, x: np.ndarray, p: Optional[int]):
    """beta_division read from x, its alignment summed in term order."""
    v = x.tolist()
    b = _unit_vector(enumerate(v)) or [(lay.unit, 1.0)]
    return (tuple((lay.labels[t], c) for t, c in b),
            sum(c * v[t] for t, c in b))


def _called(beta: Callable[[Element], Element], lay, x: np.ndarray, p):
    """The step of a beta callable, the one place where the rotation engine
    builds an Element; b's labels outside the layout do not align."""
    terms = tuple(beta(lay.rows(x[None, None])[0][0]).coeffs.items())
    return terms, float(sum(c * x[lay.index[lab]] for lab, c in terms
                            if lab in lay.index))


def resolve_beta(spec: AlgebraSpec, beta) -> tuple[Callable, str, bool]:
    """Map a beta choice to (step, name, exact-annihilation flag).

    A step maps an entry's coefficients x (a row of the layout ``lay``) and
    the position p of its first largest coefficient (or None) to b's terms,
    (label, coefficient) pairs, and the alignment Re(conj(b) x) = sum_t b_t
    x_t.  Named betas read x; a callable's step is :func:`_called`.
    """
    if callable(beta):
        return (functools.partial(_called, beta),
                getattr(beta, "__name__", "custom"), False)
    if beta == "auto":
        beta = "division" if spec.is_division else "basis"
    if beta == "basis":
        return _basis_step, "basis", False
    if beta == "division":
        if not spec.is_division:
            raise AlgebraError(
                f"beta='division' needs a division algebra, got {spec.descriptor}")
        return _division_step, "division", True
    raise AlgebraError(f"unknown beta choice {beta!r}")


def _stepped(step, a: Element) -> tuple[Element, float]:
    """b and the alignment Re(conj(b) a) of a beta step (:func:`resolve_beta`)
    run on a's row in its layout, b without its zero terms."""
    lay, x = AlgMatrix(a.spec, [[a]])._coeffs
    terms, align = step(lay, x[0, 0], None)
    return Element._make(a.spec, {lab: c for lab, c in terms if c != 0.0}), align


def beta_basis(a: Element) -> Element:
    """The basis element carrying the largest-magnitude coefficient: the
    engine's ``beta="basis"`` step on a.

    Ties break toward the earliest label in canonical order; beta(0) = 1.
    Decent for the sup norm (rho = 1) whenever the basis is unitary.
    """
    return _stepped(_basis_step, a)[0]


def beta_division(a: Element) -> Element:
    """a / ||a||_2, the optimal choice on a division algebra (rho = 1): the
    engine's ``beta="division"`` step on a.

    conj(beta(a)) * a has 2-norm equal to its real part, so each rotation
    removes its entry; :func:`_unit_vector` rescales out of the float range.
    """
    return _stepped(resolve_beta(a.spec, "division")[0], a)[0]


def resolve_norm(spec: AlgebraSpec, norm) -> str:
    if norm == "auto":
        norm = "two" if spec.is_division else "inf"
    if norm in ("two", "inf"):
        return norm
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


def _is_unitary(b: Element, tol: float = 1e-12) -> bool:
    return (b.conj() * b - b.spec.one()).norm2() <= tol  # NaN is not


def _rotate_rows(lay, x: np.ndarray, j: int, i: int, c: float, s: float,
                 terms, cut=None):
    """Rows (j, i) on axis -2 of ``x`` rotated in place by ``lay.rotate``
    after ``lay.room(x, terms)``, whose (layout, array) it returns; b sums
    the (label, coefficient) pairs ``terms``.  ``cut``, if given, acts in
    place on the rotated pair P = (x_j, x_i) before it is written back
    (``aqr`` zeroes and trims there).  Row i is written first: for i == j
    the shift x_j <- conj(b) x_j stays, with ``cut`` on P's row 0."""
    lay, x = lay.room(x, terms)
    P = x.take((j, i), axis=-2)
    lay.rotate(P, c, s, terms)
    if cut is not None:
        cut(P)
    x[..., i, :] = P[..., 1, :]
    x[..., j, :] = P[..., 0, :]
    return lay, x


def _rotated(X: AlgMatrix, j: int, i: int, c: float, s: float,
             b: Element) -> AlgMatrix:
    """X with :func:`_rotate_rows` applied to its rows j and i, b unitary."""
    if not _is_unitary(b):
        raise AlgebraError("shift element is not unitary")
    lay = X.spec.layout(X)
    x = X._array(lay).copy().transpose(1, 0, 2)  # rows on axis -2
    lay, x = _rotate_rows(lay, x, j, i, c, s, b.coeffs.items())
    return AlgMatrix._of_array(*lay.cropped(x.transpose(1, 0, 2)))


def givens_matrix(spec: AlgebraSpec, m: int, g: GivensParams) -> AlgMatrix:
    """G(theta, b, i, j) as an explicit m-by-m matrix (mainly for tests)."""
    return apply_givens_left(AlgMatrix.identity(spec, m), g)


def apply_givens_left(X: AlgMatrix, g: GivensParams) -> AlgMatrix:
    """G(theta, b, i, j) @ X; only rows i and j change, norms are preserved."""
    if g.i >= X.m:
        raise AlgebraError("row index out of range")
    return _rotated(X, g.j, g.i, math.cos(g.theta), math.sin(g.theta), g.b)


def apply_shift_left(X: AlgMatrix, b: Element, i: int) -> AlgMatrix:
    """B(b, i) @ X: left-multiply row i by the unitary element b."""
    if not 0 <= i < X.m:
        raise AlgebraError("row index out of range")
    return _rotated(X, i, i, 0.0, -1.0, b.conj())


def apply_shift_right(X: AlgMatrix, b: Element, i: int) -> AlgMatrix:
    """X @ B(b, i) = (B(conj(b), i) X^H)^H: right-multiply column i by the
    unitary element b."""
    if not 0 <= i < X.n:
        raise AlgebraError("column index out of range")
    return _rotated(X.herm(), i, i, 0.0, -1.0, b).herm()


# -- the QR iteration ----------------------------------------------------------------

def _norms_two(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(x * x, axis=-1))


_NORMS = {"two": _norms_two,
          "inf": lambda x: np.maximum.reduce(np.abs(x), axis=-1)}


@functools.lru_cache(maxsize=None)
def _mask(m: int, n: int, off: bool) -> np.ndarray:
    # the below-diagonal (off: every off-diagonal) positions of an m x n matrix
    return ~np.eye(m, n, dtype=bool) if off else np.tri(m, n, -1, dtype=bool)


def _residual(x: np.ndarray, norm_name: str, off: bool = False) -> float:
    """The largest norm of a below-diagonal (``off``: off-diagonal) entry of
    the (m, n, width) coefficients ``x``, a 2-norm taken on x scaled by
    2^-e (:func:`core._exponent`) so that no square over- or underflows;
    0.0 when there is none, NaN when one is NaN."""
    e = _exponent(x) if norm_name == "two" else 0  # the sup norm squares nothing
    norms = _NORMS[norm_name](x * 2.0 ** -e if e else x)[_mask(*x.shape[:2], off)]
    return float(norms.max(initial=0.0)) * 2.0 ** e


def _trim_array(x: np.ndarray, tau: float) -> int:
    """In place on (..., d) coefficients: zero those at or below ``tau``
    times their entry's largest; returns how many nonzero ones went.  A
    kept coefficient is nonzero (a NaN is not kept), so that is how many
    nonzero ones were not kept."""
    mag = np.abs(x)
    top = np.maximum.reduce(mag, axis=-1, keepdims=True)
    top *= tau
    keep = mag > top
    dropped = int(np.count_nonzero(mag)) - int(np.count_nonzero(keep))
    if dropped:
        np.putmask(x, ~keep, 0.0)
    return dropped


class _ArrayWork:
    """R and Q^H of one QR run in one coefficient array in the spec's layout,
    indexed (column, row, position): columns 0..n-1 hold R, the rest Q^H,
    which starts as U^H (the identity when U is None) and so ends as
    (U Q)^H.  R <- G R and Q <- Q G^H make Q^H <- G Q^H, so ``aqr`` hands
    every shift and rotation to :func:`_rotate_rows` on ``(lay, RQ)``, b as
    the terms of its beta step (:func:`resolve_beta`).  The kernel rounds as
    entry-wise Element arithmetic does; only 2-norms are summed in another
    order.  Nothing that steers the run reads the Q^H columns.

    R is held scaled by 2^-e (:func:`core._exponent` of A), every norm is
    reported in those units, and :meth:`factors` scales R back."""

    def __init__(self, A: AlgMatrix, norm_name: str,
                 U: Optional[AlgMatrix] = None):
        self.spec = A.spec
        self.lay = lay = A.spec.layout(A) if U is None else A.spec.layout(A, U)
        self.n, x = A.n, A._array(lay)
        self.e = _exponent(x)
        self.RQ = np.zeros((A.n + A.m, A.m, lay.width))
        np.multiply(x.transpose(1, 0, 2), 2.0 ** -self.e, out=self.RQ[:A.n])
        if U is None:  # the identity
            for r in range(A.m):
                self.RQ[A.n + r, r, lay.unit] = 1.0
        else:
            self.RQ[A.n:] = lay.conj(U._array(lay))
        self.norm_name = norm_name

    def column(self, k: int) -> tuple[float, int]:
        """2-norm of column k from the pivot down and its coefficient width
        (the dimension, or the largest support over an infinite spec)."""
        col = self.RQ[k, k:]
        width = self.spec.dim or max(int(np.count_nonzero(col, axis=-1).max()), 1)
        return float(_norms_two(col.ravel())), width

    def pick(self, k: int) -> tuple[int, float, Optional[int]]:
        """Row and norm of the largest below-pivot entry; ties toward the
        lowest row, and a NaN norm wins.  Under the sup norm also the
        position of the entry's first largest coefficient, beta_basis's term
        (else None): one argmax over the row-major magnitudes finds the
        first row holding the largest (or a NaN), and its first position."""
        rows = self.RQ[k, k + 1:]
        if self.norm_name == "inf":
            mag = np.abs(rows)
            j, p = divmod(int(mag.argmax()), mag.shape[-1])
            return k + 1 + j, float(mag[j, p]), p
        norms = _norms_two(rows)
        j = int(norms.argmax())  # first maximum, or first NaN
        return k + 1 + j, float(norms[j]), None

    def residual(self) -> float:
        return _residual(self.RQ[:self.n].transpose(1, 0, 2), self.norm_name)

    def factors(self) -> tuple[AlgMatrix, Optional[AlgMatrix]]:
        """Q and R, R scaled back (None when a coefficient would pass the
        float range), each on the narrowest layout that holds it."""
        lay, n = self.lay, self.n
        r = self.RQ[:n].transpose(1, 0, 2)
        return (AlgMatrix._of_array(*lay.cropped(lay.conj(self.RQ[n:]))),
                # |R| is at most a column norm of A 2^-e, below 2^32
                None if self.e > 992 and _exponent(r) + self.e > 1024 else
                AlgMatrix._of_array(*lay.cropped(np.multiply(
                    r, 2.0 ** self.e, order="C"))))


def _check_tolerances(eps: float, trim: float = 0.0, svd: bool = False):
    """Reject a negative, NaN or infinite ``eps`` (for an SVD also 0) and a
    ``trim`` outside [0, 1): trim 1 or more would zero whole entries, and an
    infinite eps would end a run before its first sweep."""
    if not ((0.0 < eps if svd else 0.0 <= eps) and eps < math.inf):
        raise AlgebraError(("SVD needs a finite eps > 0" if svd else
                            "eps must be finite and non-negative") + f", got {eps!r}")
    if not 0.0 <= trim < 1.0:
        raise AlgebraError(f"trim must lie in [0, 1), got {trim!r}")


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
    termination.  The logarithms are taken apart: colnorm / eps overflows.
    """
    slots = max_sweeps * rows * width
    if eps > 0.0 and colnorm > eps:
        logs = math.log(min(colnorm, np.finfo(float).max)) - math.log(eps)
        return slots * (1 + math.ceil(2.0 * logs))
    return slots


def aqr(A: AlgMatrix, beta="auto", norm="auto", eps: float = 1e-10,
        max_sweeps: int = 200, trim: float = 0.0, *,
        q0: Optional[AlgMatrix] = None) -> DecompReport:
    """QR decomposition by columns: A = Q R with Q unitary.

    Every below-diagonal entry of R ends with norm at most ``eps`` and the
    diagonal gets a non-negative real part (and, under an exact beta, no
    other part).  ``eps = 0`` is allowed only with ``beta="division"`` on
    the real/complex/quaternion algebras, where termination is exact.
    ``trim`` > 0 drops, after each rotation, coefficients at or below
    ``trim`` times the entry's largest one (useful for Laurent matrices
    whose supports would otherwise grow).

    ``q0`` (m x m, the identity when None) is rotated along with A, so the
    returned q is q0 Q.  Nothing that steers the run reads it: R and the
    counts are those without it, and ``trimmed`` counts q0 Q's
    coefficients too.

    The factors are held as one coefficient array in the spec's layout
    (structure tables for finite specs, an exponent window for Laurent
    specs) and rotated through one kernel, the layout's ``rotate``, R scaled
    by a power of two (:class:`_ArrayWork`; a beta callable sees it so).

    Raises :class:`ConvergenceError` carrying the partial factors when an
    entry of A is not finite, when ``max_sweeps`` is exhausted, when one
    column in one sweep exceeds its rotation budget
    (:func:`_rotation_budget`), when a pivot or a targeted entry has a
    non-finite norm, or when R is past the float range (then the report's
    r is None).
    """
    spec = A.spec
    step, beta_name, exact = resolve_beta(spec, beta)
    norm_name = resolve_norm(spec, norm)
    _check_tolerances(eps, trim)
    if eps == 0 and not exact:
        raise AlgebraError("eps = 0 requires beta='division' on R, C or H")
    if max_sweeps < 1:
        raise AlgebraError("max_sweeps must be at least 1")

    t0 = time.perf_counter()
    m, n = A.m, A.n
    W = _ArrayWork(A, norm_name, q0)
    unit = ((spec.unit, 1.0),)  # the terms of b = 1
    rotations = sweeps = stalled = warnings = trimmed = 0

    def partial_report(residual=None):
        q, r = W.factors()
        return DecompReport(
            kind="qr", method="jacobi", rotations=rotations, sweeps=sweeps,
            qrd_calls=0,
            residual=(W.residual() if residual is None else residual) * 2.0 ** W.e,
            wall_time=time.perf_counter() - t0, eps=eps, norm=norm_name,
            beta=beta_name, q=q, r=r, trimmed=trimmed,
            stalled_pivots=stalled, decency_warnings=warnings)

    # the cuts of _rotate_rows, before write-back: after a shift R's row k,
    # after a rotation rows k and i of R and Q^H, whose entry (i, k) an
    # exact beta zeroes first; ``trimmed`` counts the coefficients dropped
    def cut_shift(P):
        nonlocal trimmed
        trimmed += _trim_array(P[:n, 0], trim)

    def cut_rotation(P):
        nonlocal trimmed
        if exact:  # entry (i, k) is annihilated up to round-off
            P[k, 1] = 0.0
        if trim:
            trimmed += _trim_array(P, trim)

    shift_cut = cut_shift if trim else None
    rotation_cut = cut_rotation if exact or trim else None

    if not np.isfinite(W.RQ).all():
        raise ConvergenceError("non-finite entry", partial_report())
    tol = eps * 2.0 ** -W.e  # eps in W's units: inf for the tiniest A
    g1 = math.nan  # one sweep at least, however large tol is
    while not g1 <= tol:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"QR did not reach eps={eps:g} within {max_sweeps} sweeps",
                partial_report())
        sweeps += 1
        for k in range(min(m, n)):
            lay, x = W.lay, W.RQ[k, k]
            if not np.isfinite(x).all():
                raise ConvergenceError(f"non-finite pivot ({k}, {k})",
                                       partial_report())
            terms, _ = step(lay, x, None)
            if terms != unit:
                old_re = abs(float(x[lay.unit]))
                W.lay, W.RQ = _rotate_rows(lay, W.RQ, k, k, 0.0, -1.0,
                                           terms, shift_cut)
                if abs(float(W.RQ[k, k, W.lay.unit])) + \
                        1e-12 * max(old_re, 1.0) < old_re:
                    warnings += 1
            if k == m - 1:
                break
            spent, budget = 0, None
            while True:
                i, g2, p = W.pick(k)
                if g2 <= tol:
                    break
                if not math.isfinite(g2):
                    raise ConvergenceError(f"non-finite target entry ({i}, {k})",
                                           partial_report())
                if spent >= m - k - 1:
                    # past one rotation per row, which exact termination
                    # never needs: only now is the budget worked out
                    if budget is None:
                        budget = _rotation_budget(max_sweeps, m - k - 1,
                                                  *W.column(k), tol)
                    if spent >= budget:
                        raise ConvergenceError(
                            f"QR column {k} did not reach eps={eps:g} within "
                            f"its rotation budget", partial_report())
                spent += 1
                lay, x = W.lay, W.RQ[k, i]
                terms, t_re = step(lay, x, p)
                old_re = abs(float(x[lay.unit]))
                if abs(t_re) + 1e-12 * max(old_re, 1.0) < old_re:
                    warnings += 1
                if t_re == 0.0:
                    # theta would be 0 or pi and the pivot cannot grow, so
                    # further rotations on this column make no progress
                    # (only possible for an indecent beta)
                    stalled += 1
                    break
                theta = math.atan2(t_re, float(W.RQ[k, k, lay.unit]))
                W.lay, W.RQ = _rotate_rows(lay, W.RQ, k, i, math.cos(-theta),
                                           math.sin(-theta), terms, rotation_cut)
                rotations += 1
        g1 = W.residual()

    for k in range(min(m, n)):  # no below-diagonal entry changes
        if W.RQ[k, k, W.lay.unit] < 0:
            W.RQ[:, k] *= -1.0  # row k of R and Q^H
        if exact:  # the rest of r_kk is round-off (the unit comes first)
            W.RQ[k, k, 1:] = 0.0
    report = partial_report(g1)
    if report.r is None:
        raise ConvergenceError("R is past the float range", report)
    return report


# -- the SVD iteration -----------------------------------------------------------------

_INNER_EPS = 0.1  # later QR passes of asvd stop at max(eps, _INNER_EPS * g)


def asvd(A: AlgMatrix, beta="auto", norm="auto", eps: float = 1e-10,
         max_iters: int = 500, max_sweeps: int = 200,
         trim: float = 0.0) -> DecompReport:
    """SVD by alternating QR passes: A = U D V^H with U, V unitary.

    Runs QR on D, then on D^H, until every off-diagonal entry of D has
    norm at most ``eps``.  Each call rotates U (on D) or V (on D^H) in its
    work array (:func:`aqr`'s ``q0``), so the factors accumulate without a
    matrix product, and with ``trim`` only the rotations trim them.
    ``max_iters`` bounds the number of QR calls.  Diagonal entries are not
    sorted: there is no canonical scalar order over a general algebra.

    The first pair of QR calls runs to eps, as loose first calls steer D,
    on some inputs, to a diagonal whose later passes are several times
    slower.  Each later call stops at max(eps, 0.1 g), g being D's largest
    off-diagonal norm before the pair; only the outer test is held to eps.
    An exact beta (``beta="division"``) removes each entry whatever the
    tolerance, so its calls keep eps, as they do when g is not finite (then
    :func:`aqr` rejects the entry instead of returning at once).
    """
    spec = A.spec
    _check_tolerances(eps, trim, svd=True)
    if max_iters < 1:
        raise AlgebraError("max_iters must be at least 1")
    norm_name = resolve_norm(spec, norm)
    _, beta_name, exact = resolve_beta(spec, beta)

    t0 = time.perf_counter()
    U = AlgMatrix.identity(spec, A.m)
    V = AlgMatrix.identity(spec, A.n)
    D = A  # aqr never changes its input, nor does anything here
    rotations = qrd_calls = sweeps = trimmed = stalled = warnings = 0

    def residual():
        return _residual(D._array(spec.layout(D)), norm_name, off=True)

    def partial_report():
        return DecompReport(
            kind="svd", method="jacobi", rotations=rotations, sweeps=sweeps,
            qrd_calls=qrd_calls, residual=residual(),
            wall_time=time.perf_counter() - t0, eps=eps, norm=norm_name,
            beta=beta_name, u=U, d=D, v=V, trimmed=trimmed,
            stalled_pivots=stalled, decency_warnings=warnings)

    g = residual()
    while not g <= eps:
        if qrd_calls >= max_iters:
            raise ConvergenceError(
                f"SVD did not reach eps={eps:g} within {max_iters} QR calls",
                partial_report())
        # the first pair runs to eps
        loose = qrd_calls > 0 and not exact and math.isfinite(g)
        inner = max(eps, _INNER_EPS * g) if loose else eps
        for hermitian_side in (False, True):
            work = D.herm() if hermitian_side else D
            try:
                sub = aqr(work, beta=beta, norm=norm, eps=inner,
                          max_sweeps=max_sweeps, trim=trim,
                          q0=V if hermitian_side else U)
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
                D, V = sub.r.herm(), sub.q
            else:
                D, U = sub.r, sub.q
        g = residual()

    return partial_report()


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
    """Empirically test the two decency conditions for a beta choice.

    For each probe a (every basis element when the dimension is finite,
    plus ``samples`` random elements) the check runs the step that
    :func:`resolve_beta` gives ``beta``, as :func:`aqr` does, and requires
    beta(a) unitary, |Re(conj(beta(a)) a)| >= |Re(a)|, and a strictly
    positive ratio |Re(conj(beta(a)) a)| / ||a||.  Returns the smallest
    ratio seen and the first witness of a violation, if any.
    """
    from .catalog import random_element  # local import to avoid a cycle

    rng = rng or np.random.default_rng(0)
    step = resolve_beta(spec, beta)[0]
    normfn = {"two": Element.norm2, "inf": Element.norm_inf}[
        resolve_norm(spec, norm)]

    probes = [spec.basis_element(lab) for lab in spec.labels] if spec.dim else []
    probes += [random_element(spec, rng, degree) for _ in range(samples)]

    rho, witness = math.inf, None
    for a in probes:
        na = normfn(a)
        if na == 0.0:
            continue
        b, align = _stepped(step, a)
        val = abs(align)
        if not _is_unitary(b) or val + 1e-12 * na < abs(a.re()):
            witness = a
            break
        rho = min(rho, val / na)
        if rho <= 1e-12:
            witness, rho = a, 0.0
            break
    return DecencyResult(rho=0.0 if rho is math.inf else rho,
                         passed=witness is None, witness=witness,
                         samples=len(probes))
