"""Core containers for matrices over a real *-algebra.

All algebras handled by this package have a *signed-monomial* basis: the
product of two basis elements is plus or minus a third basis element, and
the involution sends each basis element to its inverse.  Clifford algebras,
(twisted) group algebras and Laurent polynomial rings all share this
structure:

    e_i e_j = s(i,j) e_k          with s(i,j) in {-1, +1}
    conj(e_i) = e_i^-1            (also plus/minus a basis element)

:class:`AlgebraSpec` encodes the basis and the two structure maps,
:class:`Element` is a finitely supported real coefficient vector over one
spec, and :class:`AlgMatrix` is a dense m-by-n array of elements sharing a
spec.  Specs are immutable and may be shared freely across threads;
elements and matrices are value-like (operations return new objects).
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

Label = Hashable


class AlgebraError(Exception):
    """Base class for algebra usage errors."""


class SpecMismatchError(AlgebraError):
    """Operands belong to different algebras."""


class UnsupportedOperationError(AlgebraError):
    """Operation not available for this algebra (e.g. RMR when infinite)."""


class AlgebraSpec:
    """A real *-algebra with a signed-monomial basis.

    Subclasses provide the raw structure maps ``_mul_raw`` and ``_inv_raw``
    plus label rendering/parsing.  For finite algebras the canonical basis
    order is fixed by the ``labels`` sequence passed to ``__init__``; basis
    products are memoised.  ``unit`` is the label of the multiplicative
    identity and is always the first basis element.
    """

    is_division = False  # True only for the real, complex, quaternion specs

    def __init__(self, descriptor: str, unit: Label, labels=None):
        self.descriptor = descriptor
        self.unit = unit
        if labels is not None:
            self._labels = tuple(labels)
            self.dim = len(self._labels)
            self._index = {lab: t for t, lab in enumerate(self._labels)}
            if self._labels[0] != unit:
                raise AlgebraError("unit must be the first basis label")
            self._mul_table: dict | None = {}
            self._inv_table = {i: self._inv_raw(i) for i in self._labels}
        else:
            self._labels = None
            self.dim = None
            self._index = None
            self._mul_table = None
            self._inv_table = None

    # -- structure maps ----------------------------------------------------
    def _mul_raw(self, i: Label, j: Label) -> tuple[float, Label]:
        raise NotImplementedError

    def _inv_raw(self, i: Label) -> tuple[float, Label]:
        raise NotImplementedError

    def mul_basis(self, i: Label, j: Label) -> tuple[float, Label]:
        """Sign and label of the basis product e_i * e_j."""
        table = self._mul_table
        if table is None:
            return self._mul_raw(i, j)
        r = table.get((i, j))
        if r is None:
            r = table[(i, j)] = self._mul_raw(i, j)
        return r

    def inv_basis(self, i: Label) -> tuple[float, Label]:
        """Sign and label of e_i^-1 (= the involution of e_i)."""
        if self._inv_table is not None:
            return self._inv_table[i]
        return self._inv_raw(i)

    # -- basis bookkeeping ---------------------------------------------------
    @property
    def labels(self) -> tuple:
        if self._labels is None:
            raise UnsupportedOperationError(
                f"{self.descriptor} is infinite-dimensional; no label enumeration")
        return self._labels

    def label_index(self, lab: Label) -> int:
        if self._index is None:
            raise UnsupportedOperationError(
                f"{self.descriptor} is infinite-dimensional; labels are not indexed")
        return self._index[lab]

    def sort_key(self, lab: Label):
        """Total order on labels; used for canonical rendering and tie-breaks."""
        if self._index is not None:
            return self._index[lab]
        raise NotImplementedError

    def label_str(self, lab: Label) -> str:
        return str(lab)

    def parse_label(self, s: str) -> Label:
        raise UnsupportedOperationError(
            f"{self.descriptor} does not support label parsing")

    # -- element factories ---------------------------------------------------
    def zero(self) -> "Element":
        return Element._make(self, {})

    def one(self) -> "Element":
        return Element._make(self, {self.unit: 1.0})

    def scalar(self, x: float) -> "Element":
        x = _finite(float(x))
        return Element._make(self, {self.unit: x} if x != 0.0 else {})

    def basis_element(self, lab: Label, coeff: float = 1.0) -> "Element":
        coeff = _finite(float(coeff))
        return Element._make(self, {lab: coeff} if coeff != 0.0 else {})

    # -- identity ------------------------------------------------------------
    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __repr__(self):
        return f"<AlgebraSpec {self.descriptor}>"


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise AlgebraError(f"non-finite coefficient {x!r}")
    return x


def _mul_into(spec: AlgebraSpec, acc: dict, a: dict, b: dict) -> None:
    """Accumulate the coefficients of (a * b) into acc."""
    mul = spec.mul_basis
    get = acc.get
    for la, ca in a.items():
        for lb, cb in b.items():
            s, k = mul(la, lb)
            acc[k] = get(k, 0.0) + s * ca * cb


class Element:
    """One algebra entry: a finitely supported label -> coefficient map.

    Zero coefficients are never stored, so equality is support-wise and
    exact.  Use :meth:`isclose` for tolerance-based comparison.  The
    constructor rejects NaN and infinite coefficients.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: AlgebraSpec, coeffs=None):
        self.spec = spec
        self.coeffs = ({k: _finite(float(v)) for k, v in coeffs.items()
                        if v != 0.0} if coeffs else {})

    @classmethod
    def _make(cls, spec, clean_coeffs: dict) -> "Element":
        # internal: trusts the dict to be zero-free already
        e = object.__new__(cls)
        e.spec = spec
        e.coeffs = clean_coeffs
        return e

    # -- ring operations -----------------------------------------------------
    def _check(self, other: "Element"):
        if other.spec != self.spec:
            raise SpecMismatchError(
                f"cannot combine {self.spec.descriptor} with {other.spec.descriptor}")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            c = out.get(k, 0.0) + v
            if c == 0.0:
                out.pop(k, None)
            else:
                out[k] = c
        return Element._make(self.spec, out)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            c = out.get(k, 0.0) - v
            if c == 0.0:
                out.pop(k, None)
            else:
                out[k] = c
        return Element._make(self.spec, out)

    def __neg__(self):
        return Element._make(self.spec, {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            acc: dict = {}
            _mul_into(self.spec, acc, self.coeffs, other.coeffs)
            return Element._make(self.spec,
                                 {k: v for k, v in acc.items() if v != 0.0})
        c = float(other)
        if c == 0.0:
            return Element._make(self.spec, {})
        return Element._make(self.spec, {k: c * v for k, v in self.coeffs.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return self.__mul__(1.0 / float(other))

    # -- *-algebra operations --------------------------------------------------
    def conj(self) -> "Element":
        """Involution: coefficient-wise application of conj(e_i) = e_i^-1."""
        inv = self.spec.inv_basis
        out: dict = {}
        for lab, c in self.coeffs.items():
            s, k = inv(lab)
            out[k] = out.get(k, 0.0) + s * c
        return Element._make(self.spec, {k: v for k, v in out.items() if v != 0.0})

    def re(self) -> float:
        """Real part: the coefficient of the unit basis element."""
        return self.coeffs.get(self.spec.unit, 0.0)

    # -- norms -------------------------------------------------------------
    def norm2(self) -> float:
        return math.sqrt(sum(v * v for v in self.coeffs.values()))

    def norm_inf(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    @property
    def support(self) -> int:
        return len(self.coeffs)

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Element) and other.spec == self.spec
                and other.coeffs == self.coeffs)

    __hash__ = None

    def isclose(self, other: "Element", tol: float = 1e-12,
                norm: str = "two") -> bool:
        diff = self - other
        val = diff.norm_inf() if norm == "inf" else diff.norm2()
        return val <= tol

    def __repr__(self):
        if not self.coeffs:
            return "0"
        spec = self.spec
        parts = []
        for lab in sorted(self.coeffs, key=spec.sort_key):
            c = self.coeffs[lab]
            name = spec.label_str(lab)
            parts.append(f"{c:g}" if name == "1" else f"{c:g}*{name}")
        return " + ".join(parts)


class AlgMatrix:
    """A dense m-by-n matrix of :class:`Element` sharing one spec."""

    __slots__ = ("spec", "m", "n", "entries")

    def __init__(self, spec: AlgebraSpec, entries: Sequence[Sequence[Element]]):
        self.spec = spec
        self.entries = [list(row) for row in entries]
        self.m = len(self.entries)
        self.n = len(self.entries[0]) if self.m else 0
        if self.m == 0 or self.n == 0:
            raise AlgebraError("matrix dimensions must be positive")
        for row in self.entries:
            if len(row) != self.n:
                raise AlgebraError("ragged rows")
            for e in row:
                if e.spec != spec:
                    raise SpecMismatchError("entry does not belong to the matrix algebra")

    # -- constructors ----------------------------------------------------------
    @classmethod
    def zeros(cls, spec: AlgebraSpec, m: int, n: int) -> "AlgMatrix":
        return cls(spec, [[spec.zero() for _ in range(n)] for _ in range(m)])

    @classmethod
    def identity(cls, spec: AlgebraSpec, m: int) -> "AlgMatrix":
        out = cls.zeros(spec, m, m)
        for i in range(m):
            out.entries[i][i] = spec.one()
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def copy(self) -> "AlgMatrix":
        return AlgMatrix(self.spec, self.entries)

    # -- element access -------------------------------------------------------
    def __getitem__(self, ij) -> Element:
        i, j = ij
        return self.entries[i][j]

    def __setitem__(self, ij, value: Element):
        i, j = ij
        if value.spec != self.spec:
            raise SpecMismatchError("entry does not belong to the matrix algebra")
        self.entries[i][j] = value

    # -- arithmetic ------------------------------------------------------------
    def _check(self, other: "AlgMatrix"):
        if other.spec != self.spec:
            raise SpecMismatchError("matrices belong to different algebras")

    def __add__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check(other)
        if other.shape != self.shape:
            raise AlgebraError(f"shape mismatch {self.shape} vs {other.shape}")
        return AlgMatrix(self.spec, [[a + b for a, b in zip(ra, rb)]
                                     for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check(other)
        if other.shape != self.shape:
            raise AlgebraError(f"shape mismatch {self.shape} vs {other.shape}")
        return AlgMatrix(self.spec, [[a - b for a, b in zip(ra, rb)]
                                     for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "AlgMatrix":
        return AlgMatrix(self.spec, [[-a for a in row] for row in self.entries])

    def __matmul__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check(other)
        if self.n != other.m:
            raise AlgebraError(
                f"inner dimensions disagree: {self.shape} @ {other.shape}")
        spec = self.spec
        out = []
        for i in range(self.m):
            row = []
            arow = self.entries[i]
            for j in range(other.n):
                acc: dict = {}
                for k in range(self.n):
                    a = arow[k].coeffs
                    if not a:
                        continue
                    b = other.entries[k][j].coeffs
                    if b:
                        _mul_into(spec, acc, a, b)
                row.append(Element._make(
                    spec, {k: v for k, v in acc.items() if v != 0.0}))
            out.append(row)
        return AlgMatrix(spec, out)

    # -- *-structure and norms ---------------------------------------------------
    def herm(self) -> "AlgMatrix":
        """Hermitian transpose: entry-wise involution of the transpose."""
        return AlgMatrix(self.spec,
                         [[self.entries[i][j].conj() for i in range(self.m)]
                          for j in range(self.n)])

    def frob(self) -> float:
        return math.sqrt(sum(e.norm2() ** 2 for row in self.entries for e in row))

    def is_unitary(self, tol: float = 1e-12) -> bool:
        if self.m != self.n:
            raise AlgebraError("unitarity is defined for square matrices only")
        return (self.herm() @ self - AlgMatrix.identity(self.spec, self.m)).frob() <= tol

    def isclose(self, other: "AlgMatrix", tol: float = 1e-12) -> bool:
        self._check(other)
        return self.shape == other.shape and (self - other).frob() <= tol

    def __repr__(self):
        return f"<AlgMatrix {self.m}x{self.n} over {self.spec.descriptor}>"


# -- real matrix representation ------------------------------------------------

def rmr(a: Element) -> np.ndarray:
    """The d-by-d real matrix of left multiplication by ``a``.

    Rows/columns are indexed by the canonical basis order of the spec.  An
    algebra homomorphism; with the inverse-induced involution it intertwines
    conjugation with the matrix transpose.
    """
    spec = a.spec
    if spec.dim is None:
        raise UnsupportedOperationError("RMR requires a finite-dimensional algebra")
    d = spec.dim
    out = np.zeros((d, d))
    mul = spec.mul_basis
    index = spec.label_index
    for j, lj in enumerate(spec.labels):
        for la, c in a.coeffs.items():
            s, k = mul(la, lj)
            out[index(k), j] += s * c
    return out


def rmr_lift(X: AlgMatrix) -> np.ndarray:
    """Block matrix replacing every entry of X by its RMR (an md-by-nd array)."""
    spec = X.spec
    if spec.dim is None:
        raise UnsupportedOperationError("RMR requires a finite-dimensional algebra")
    d = spec.dim
    out = np.zeros((X.m * d, X.n * d))
    for i in range(X.m):
        for j in range(X.n):
            out[i * d:(i + 1) * d, j * d:(j + 1) * d] = rmr(X.entries[i][j])
    return out

