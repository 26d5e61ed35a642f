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
spec, and :class:`AlgMatrix` is a dense m-by-n coefficient array over a
spec.  Specs are immutable and may be shared freely across threads;
elements and matrices are value-like (operations return new objects).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Hashable, NamedTuple, Sequence

import numpy as np

Label = Hashable


class AlgebraError(Exception):
    """Base class for algebra usage errors."""


class SpecMismatchError(AlgebraError):
    """Operands belong to different algebras."""


class UnsupportedOperationError(AlgebraError):
    """Operation not available for this algebra (e.g. RMR when infinite)."""


class StructureTables(NamedTuple):
    """Dense structure maps of a finite spec, by canonical basis index:
    e_a e_c = sign[a, c] e_index[a, c] and conj(e_a) = inv_sign[a] e_inv_index[a]."""
    sign: np.ndarray        # (d, d) float, entries +-1
    index: np.ndarray       # (d, d) int
    inv_sign: np.ndarray    # (d,) float
    inv_index: np.ndarray   # (d,) int


class AlgebraSpec:
    """A real *-algebra with a signed-monomial basis.

    Subclasses provide the raw structure maps ``_mul_raw`` and ``_inv_raw``
    plus label rendering/parsing.  For finite algebras the canonical basis
    order is fixed by the ``labels`` sequence passed to ``__init__``; basis
    products are memoised.  ``unit`` is the label of the multiplicative
    identity and is always the first basis element.
    """

    is_division = False  # True only for the real, complex, quaternion specs
    # an infinite spec keeps these; a finite one sets them from its labels
    _labels = dim = _index = _mul_table = _inv_table = None

    def __init__(self, descriptor: str, unit: Label, labels=None):
        self.descriptor = descriptor
        self.unit = unit
        if labels is not None:
            self._labels = tuple(labels)
            self.dim = len(self._labels)
            self._index = {lab: t for t, lab in enumerate(self._labels)}
            if self._labels[0] != unit:
                raise AlgebraError("unit must be the first basis label")
            self._mul_table = {}
            self._inv_table = {i: self._inv_raw(i) for i in self._labels}

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

    @functools.cached_property
    def tables(self) -> StructureTables:
        """The structure maps as dense arrays, built on first use row by row
        from the raw maps (finite specs only; refused past dim 2^12)."""
        labels, index, d = self.labels, self._index, self.dim
        if d > 2 ** 12:
            raise UnsupportedOperationError(
                f"{self.descriptor}: no structure tables past dim 2^12, got {d}")
        sign, idx = np.empty((d, d)), np.empty((d, d), dtype=np.intp)
        for a, la in enumerate(labels):
            row = [self._mul_raw(la, lc) for lc in labels]
            sign[a] = [s for s, _ in row]
            idx[a] = [index[k] for _, k in row]
        invs = [self.inv_basis(a) for a in labels]
        return StructureTables(sign, idx, np.array([s for s, _ in invs]),
                               np.array([index[k] for _, k in invs]))

    @functools.cached_property
    def _table_layout(self) -> "_TableLayout":
        return _TableLayout(self)

    def layout(self, *matrices) -> "_Layout":
        """The coefficient layout of arrays holding ``matrices`` (see
        :class:`_Layout`); finite specs have one for all."""
        if self.dim is None:
            raise UnsupportedOperationError(
                f"{self.descriptor} has no coefficient layout")
        return self._table_layout

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
        return other is self or (type(other) is type(self)
                                 and other._key() == self._key())

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
    exact.  The constructor rejects NaN and infinite coefficients.
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
        return self + (-other)  # x + (-y) rounds as x - y does

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

    __rmul__ = __mul__

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
        """Largest coefficient magnitude; NaN when a coefficient is NaN
        (``max`` alone skips a NaN that is not first)."""
        vals = self.coeffs.values()
        top = max(map(abs, vals), default=0.0)
        return math.nan if math.isnan(sum(vals)) else top

    @property
    def support(self) -> int:
        return len(self.coeffs)

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Element) and other.spec == self.spec
                and other.coeffs == self.coeffs)

    __hash__ = None

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


def _exponent(x: np.ndarray) -> int:
    """e with 2^e the power of two just above x's largest magnitude (0 if
    that is 0 or not finite), kept in [-1022, 1023] so that 2.0 ** +-e are
    normal floats: x 2^-e, exact in the normal range, has no coefficient
    reaching 2, so no sum of squares overflows or loses its largest term."""
    return min(max(math.frexp(float(np.abs(x).max(initial=0.0)))[1], -1022), 1023)


def _check_shape(m: int, n: int):
    if m < 1 or n < 1:
        raise AlgebraError("matrix dimensions must be positive")


class _Row(list):
    """A row of :attr:`AlgMatrix.entries`: item writes also go to the matrix."""

    def __init__(self, matrix: "AlgMatrix", i: int, items):
        super().__init__(items)
        self._matrix, self._i = matrix, i

    def __setitem__(self, j, value: Element):
        self._matrix[self._i, j] = value
        super().__setitem__(j, value)


class AlgMatrix:
    """A dense m-by-n matrix over one spec, held as one (m, n, width)
    coefficient array (:meth:`AlgebraSpec.layout`) that no other matrix
    holds.  ``[i, j]`` reads one element from it, ``[i, j] = e`` writes one
    (a grid is written entry by entry), and ``entries`` builds the rows."""

    __slots__ = ("spec", "m", "n", "_coeffs")

    def __init__(self, spec: AlgebraSpec, entries: Sequence[Sequence[Element]]):
        rows = [list(row) for row in entries]
        m, n = len(rows), (len(rows[0]) if rows else 0)
        self.spec, self.m, self.n = spec, m, n
        self._coeffs = AlgMatrix.zeros(spec, m, n)._coeffs
        if any(len(row) != n for row in rows):
            raise AlgebraError("ragged rows")
        for i, j in itertools.product(range(m), range(n)):
            self[i, j] = rows[i][j]

    # -- constructors ----------------------------------------------------------
    @classmethod
    def _of_array(cls, lay: "_Layout", x: np.ndarray) -> "AlgMatrix":
        # internal: the matrix with coefficients x, an (m, n, width) array in
        # layout lay that no other matrix holds
        X = object.__new__(cls)
        X.spec, X.m, X.n = lay.spec, x.shape[0], x.shape[1]
        X._coeffs = (lay, x)
        return X

    @property
    def entries(self) -> list:
        """The rows of elements, built from the array: lists whose item
        writes also go to the matrix (``X.entries[i][j] = e``).  The rows are
        a snapshot: replacing a whole row (``X.entries[i] = [...]``) does not
        write through, and later writes to the matrix do not show in them."""
        lay, x = self._coeffs
        return [_Row(self, i, row) for i, row in enumerate(lay.rows(x))]

    def _array(self, lay: "_Layout") -> np.ndarray:
        """The coefficients in layout ``lay``, as an (m, n, width) array that
        may be this matrix's own: read it, do not change it."""
        own, x = self._coeffs
        return x if own.h == lay.h else lay.moved(x, own.h)

    @classmethod
    def zeros(cls, spec: AlgebraSpec, m: int, n: int) -> "AlgMatrix":
        _check_shape(m, n)
        lay = spec.layout()
        return cls._of_array(lay, np.zeros((m, n, lay.width)))

    @classmethod
    def identity(cls, spec: AlgebraSpec, m: int) -> "AlgMatrix":
        out = cls.zeros(spec, m, m)
        lay, x = out._coeffs
        x[range(m), range(m), lay.unit] = 1.0
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def copy(self) -> "AlgMatrix":
        lay, x = self._coeffs
        return AlgMatrix._of_array(lay, x.copy())

    # -- element access -------------------------------------------------------
    def __getitem__(self, ij) -> Element:
        i, j = ij
        lay, x = self._coeffs
        return lay.rows(x[i, j][None, None])[0][0]

    def __setitem__(self, ij, value: Element):
        i, j = ij
        if value.spec != self.spec:
            raise SpecMismatchError("entry does not belong to the matrix algebra")
        lay, x = self._coeffs
        wide = lay.widened(value.coeffs)  # a Laurent window may be too narrow
        if wide is not lay:
            self._coeffs = (wide, wide.moved(x, lay.h))
        coeffs = [0.0] * wide.width  # one numpy write per entry
        for lab, c in value.coeffs.items():
            coeffs[wide.index[lab]] = c
        self._coeffs[1][i, j] = coeffs

    # -- arithmetic ------------------------------------------------------------
    def _check(self, other: "AlgMatrix"):
        if other.spec != self.spec:
            raise SpecMismatchError("matrices belong to different algebras")

    def __add__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check(other)
        if other.shape != self.shape:
            raise AlgebraError(f"shape mismatch {self.shape} vs {other.shape}")
        lay = self.spec.layout(self, other)
        return AlgMatrix._of_array(*lay.cropped(self._array(lay) + other._array(lay)))

    def __sub__(self, other: "AlgMatrix") -> "AlgMatrix":
        return self + (-other)

    def __neg__(self) -> "AlgMatrix":
        lay = self.spec.layout(self)
        return AlgMatrix._of_array(lay, -self._array(lay))

    def __matmul__(self, other: "AlgMatrix") -> "AlgMatrix":
        self._check(other)
        if self.n != other.m:
            raise AlgebraError(
                f"inner dimensions disagree: {self.shape} @ {other.shape}")
        lay = self.spec.layout(self, other)
        return AlgMatrix._of_array(*lay.matmul(self._array(lay), other._array(lay)))

    # -- *-structure and norms ---------------------------------------------------
    def herm(self) -> "AlgMatrix":
        """Hermitian transpose: entry-wise involution of the transpose."""
        lay = self.spec.layout(self)
        return AlgMatrix._of_array(lay, lay.conj(self._array(lay)).transpose(1, 0, 2))

    def frob(self) -> float:
        """Frobenius norm, taken on the coefficients scaled by 2^-e
        (:func:`_exponent`); inf only past the float range."""
        lay = self.spec.layout(self)
        x = self._array(lay)
        e = _exponent(x)
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(x * 2.0 ** -e) * 2.0 ** e)

    def unitarity_error(self) -> float:
        """||X^H X - I||_F; NaN when a coefficient is NaN."""
        if self.m != self.n:
            raise AlgebraError("unitarity is defined for square matrices only")
        return (self.herm() @ self - AlgMatrix.identity(self.spec, self.m)).frob()

    def is_unitary(self, tol: float = 1e-12) -> bool:
        return self.unitarity_error() <= tol

    def __repr__(self):
        return f"<AlgMatrix {self.m}x{self.n} over {self.spec.descriptor}>"


# -- coefficient layouts ------------------------------------------------------------

class _Layout:
    """Where each label's coefficient sits on the last axis of an (m, n,
    width) array holding a grid of elements, and how the spec acts there.
    A layout is an immutable value, shared by every array that uses it.

    Subclasses set ``spec``, ``width``, ``unit`` (the unit's position),
    ``labels`` (the label at each position) and ``index`` (its inverse, a
    mapping), and define ``conj``, ``matmul`` and ``rotate``.  ``matmul(a,
    b)`` returns the layout of the product and its array.  ``rotate(P, c,
    s, terms)``, the rotation kernel, sets rows P = (x, y), stacked on axis
    -2 of an array that :meth:`room` has prepared, to (c x - s conj(b) y,
    s b x + c y), b = sum c_t e_t over the (label, coefficient) pairs
    ``terms``: P times c plus one gather of the old P per term, (-s c_t
    conj(e_t) y, s c_t e_t x), in order, rounding as entry-wise Element
    arithmetic does (c = 0, s = -1 gives x <- conj(b) x).  Layouts with
    the same ``h`` (a window's half-widths; None for a finite spec) place
    labels alike.
    """

    h = None

    def rows(self, x: np.ndarray) -> list:
        """The elements of (m, n, width) coefficients as a grid, zeros
        dropped, each with its labels in position order."""
        labels, spec, make = self.labels, self.spec, Element._make
        return [[make(spec, {labels[t]: c for t, c in enumerate(v) if c != 0.0})
                 for v in row] for row in x.tolist()]

    def room(self, x: np.ndarray, terms):
        """(layout, array): ``x`` on this layout or a wider one, such that
        multiplying any of its rows by b or conj(b), b the sum of ``terms``,
        keeps every coefficient."""
        return self, x

    def cropped(self, x: np.ndarray):
        """(layout, array): ``x`` on the narrowest layout that holds it."""
        return self, x

    def widened(self, labels) -> "_Layout":
        """This layout, or the narrowest wider one that places ``labels``."""
        return self


class _TableLayout(_Layout):
    """A finite spec: coefficients by canonical basis index (``by_name``:
    the label of each name), acted on through ``AlgebraSpec.tables``."""

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.width = spec.dim
        self.unit = 0
        self.labels = spec.labels
        self.index = spec._index
        self.by_name = {spec.label_str(lab): lab for lab in self.labels}

    def conj(self, x: np.ndarray) -> np.ndarray:
        t = self.spec.tables
        return x[..., t.inv_index] * t.inv_sign

    @functools.cached_property
    def gathers(self) -> dict:
        """Per label e_a, built once, the signed gather (index, sign arrays)
        taking a pair of rows (x, y), flattened, to (-conj(e_a) y, e_a x):
        conj(e_a) x = x[index[a]] * sign[a], and e_a = s conj(e_a') when
        conj(e_a) = s e_a'."""
        t, d = self.spec.tables, self.width
        return {lab: (np.concatenate([d + t.index[a], t.index[t.inv_index[a]]]),
                      np.concatenate([-t.sign[a],
                                      t.inv_sign[a] * t.sign[t.inv_index[a]]]))
                for a, lab in enumerate(self.labels)}

    def rotate(self, P: np.ndarray, c: float, s: float, terms):
        # sign is +-1, so multiplying by it after s c_t rounds nothing
        flat = P.reshape(P.shape[:-2] + (2 * self.width,))
        gathers, out = self.gathers, []
        for lab, ct in terms:
            index, sign = gathers[lab]
            G = flat.take(index, axis=-1)
            G *= s * ct
            G *= sign
            out.append(G)
        flat *= c
        for G in out:
            flat += G

    def matmul(self, a: np.ndarray, b: np.ndarray):
        """Layout and product of (m, n, d) and (n, p, d) arrays: every
        right entry is gathered once per e_a (a signed gather, as in
        :attr:`gathers`), and one real matrix product sums over k and a."""
        t = self.spec.tables
        m, n, d = a.shape
        p = b.shape[1]
        inv = t.inv_index
        gathered = b.take(t.index[inv], axis=-1)     # (n, p, d_a, d_t)
        gathered *= t.inv_sign[:, None] * t.sign[inv]
        right = gathered.transpose(0, 2, 1, 3).reshape(n * d, p * d)
        return self, (a.reshape(m, n * d) @ right).reshape(m, p, d)


@functools.lru_cache(maxsize=64)
def _window(spec: AlgebraSpec, h: tuple) -> "_Window":
    """The window of half-widths ``h``: one value per (spec, h), refused
    past 2^21 slots before any label is built."""
    if math.prod(2 * t + 1 for t in h) > 2 ** 21:
        raise UnsupportedOperationError(
            f"{spec.descriptor}: exponent window {h} is past 2^21 slots")
    return _Window(spec, h)


def _window_of(spec: AlgebraSpec, matrices) -> "_Window":
    """The window of the widest of ``matrices``, whose windows bound what
    their arrays hold."""
    half = (0,) * spec.kappa
    for X in matrices:
        half = tuple(map(max, half, X._coeffs[0].h))
    return _window(spec, half)


class _Window(_Layout):
    """A Laurent spec: coefficients on the box of exponents [-h, h] (one
    half-width per variable) in C order, the lexicographic order of
    exponent vectors (``sort_key``).  The unit sits in the middle and
    conjugation (e -> -e) reverses the axis.  z^a shifts the axis by a's
    flat offset, so :meth:`rotate` gathers each term (a, c_t) of a rotation
    by two scaled, shifted slices, and :meth:`room`, from the terms'
    labels, moves an array to a wider window before a shift would push a
    coefficient past its edge; it counts only the edge slabs that a shift
    reaches (:attr:`slabs`).  One code path serves every number of
    variables: in C order the first variable's slabs are flat ranges of
    the last axis, and a later variable's are ranges of a view.

    A window is a value: :func:`_window` hands out one per half-widths and
    nothing changes it after its constructor.  The window of a matrix bounds
    what its array holds; sums, products, rotated matrices, ``aqr``'s
    factors and ``laurent_unembed`` crop theirs to it (:meth:`cropped`).
    A product (:meth:`matmul`) runs real FFTs of the operands, each scaled
    by its power of two, and every slot that no pair of nonzero
    coefficients reaches is exactly 0.
    """

    def __init__(self, spec: AlgebraSpec, h: tuple):
        self.spec, self.h = spec, h
        self.box = tuple(2 * t + 1 for t in h)
        self.strides = tuple(math.prod(self.box[t + 1:]) for t in range(len(h)))
        self.width = math.prod(self.box)
        self.unit = self.width // 2
        self.labels = tuple(itertools.product(*(range(-t, t + 1) for t in h)))
        self.index = {lab: p for p, lab in enumerate(self.labels)}
        # per variable t, the last axis split as (outer, box[t], stride):
        # its exponents within s of t's two edges are the first and the last
        # s * stride positions of each row of the (outer, box[t] * stride) view
        self.slabs = tuple((math.prod(self.box[:t]), b, st)
                           for t, (b, st) in enumerate(zip(self.box, self.strides)))

    def conj(self, x: np.ndarray) -> np.ndarray:
        return x[..., ::-1].copy()

    def rotate(self, P: np.ndarray, c: float, s: float, terms):
        # a term's gather is a shift by its flat offset off (conj(z^a) =
        # z^-a), exact on arrays that room has prepared for the terms: G's
        # half 0 is -s c_t y shifted by -off and half 1 s c_t x shifted by
        # off, one multiply each into bounds set once per term.  G is zero
        # elsewhere, so P c + G turns a -0.0 into +0.0 where no term lands
        w, out = self.width, []
        for lab, ct in terms:
            off = sum(map(operator.mul, lab, self.strides))
            lo, hi = max(off, 0), w - max(-off, 0)  # where z^a x lands
            G = np.zeros(P.shape)
            np.multiply(P[..., 1, lo:hi], -s * ct, out=G[..., 0, w - hi:w - lo])
            np.multiply(P[..., 0, w - hi:w - lo], s * ct, out=G[..., 1, lo:hi])
            out.append(G)
        P *= c
        for G in out:
            P += G

    def held(self, x: np.ndarray) -> tuple:
        """Per variable, the largest |exponent| ``x`` holds (non-zero or NaN):
        from the first and last live index of the box's axis t, lo and hi
        positions in from its two ends, it is h - min(lo, hi).  One
        reduction finds the live slots; in C order the first and last of
        them give the first variable's lo and hi, and one reduction of a
        (outer, box, stride) view (:attr:`slabs`) each later variable's."""
        any_of = np.logical_or.reduce  # a NaN is true
        live = any_of(x.reshape(-1, self.width), axis=0)
        lo = int(live.argmax())
        if not live[lo]:
            return (0,) * len(self.h)
        held = [self.h[0] - min(lo, int(live[::-1].argmax())) // self.strides[0]]
        for h, shape in zip(self.h[1:], self.slabs[1:]):
            line = any_of(live.reshape(shape), axis=(0, 2))
            held.append(h - int(min(line.argmax(), line[::-1].argmax())))
        return tuple(held)

    def moved(self, x: np.ndarray, h) -> np.ndarray:
        """``x``, held on the box of half-widths ``h``, padded with zeros or
        cropped to this window's box (a crop drops only zeros when the
        window covers what ``x`` holds): one copy between the two boxes,
        their slices built in one pass over the variables."""
        lead, box, src, dst = x.shape[:-1], [], [...], [...]
        for o, t in zip(h, self.h):
            k = min(o, t)
            box.append(2 * o + 1)
            src.append(slice(o - k, o + k + 1))
            dst.append(slice(t - k, t + k + 1))
        out = np.zeros(lead + self.box)
        out[tuple(dst)] = x.reshape(lead + tuple(box))[tuple(src)]
        return out.reshape(lead + (self.width,))

    def cropped(self, x: np.ndarray):
        """The window of what ``x`` holds, and ``x`` on it."""
        lay = _window(self.spec, self.held(x))
        return lay, (x if lay.h == self.h else lay.moved(x, self.h))

    def widened(self, labels) -> "_Window":
        # plain Python: one element's few labels cost less than a numpy call
        if all(map(self.index.__contains__, labels)):
            return self
        return _window(self.spec, tuple(map(max, self.h, self.h, *(
            map(abs, lab) for lab in labels))))

    def room(self, x: np.ndarray, terms):
        """Moves only an array holding a coefficient within step (the terms'
        largest |exponent| per variable) of an edge: to max(h, 2 (held +
        step)).  For each variable that a term shifts, ``np.count_nonzero``
        reads its two edge slabs (:attr:`slabs`; a NaN counts); the full
        :meth:`held` scan runs only when the array moves."""
        step = [0] * len(self.h)
        for lab, _ in terms:
            step = list(map(max, step, map(abs, lab)))
        lead = x.shape[:-1]
        for (outer, b, stride), s in zip(self.slabs, step):
            if s:
                y = x if outer == 1 else x.reshape(lead + (outer, b * stride))
                k = s * stride
                if np.count_nonzero(y[..., :k]) or np.count_nonzero(y[..., -k:]):
                    break
        else:
            return self, x
        need = [r + s for r, s in zip(self.held(x), step)]
        lay = _window(self.spec, tuple(max(h, 2 * n) for h, n in zip(self.h, need)))
        return lay, lay.moved(x, self.h)

    def matmul(self, a: np.ndarray, b: np.ndarray):
        """Product of (m, n, W) and (n, p, W) arrays of this window, on the
        window twice as wide (then cropped): per entry, the sum over k of the
        convolutions, by real FFTs over the window axes sized to the
        product's box, so nothing wraps.  Each operand is scaled by its power
        of two (:func:`_exponent`) before the transforms and the product
        scaled back after, so no transform overflows where the product is
        finite.  A slot that no pair of nonzero coefficients reaches is
        exactly 0, as in the exact sum: the same transforms of ``a != 0`` and
        ``b != 0`` count the pairs per slot, and a count below 1/2 zeroes it."""
        out = _window(self.spec, tuple(2 * h for h in self.h))
        axes = tuple(range(2, 2 + len(self.h)))

        def convolve(x, y):
            fx, fy = (np.fft.rfftn(v.reshape(v.shape[:2] + self.box), out.box, axes)
                      for v in (x, y))
            f = np.einsum("ik...,kj...->ij...", fx, fy)
            return np.fft.irfftn(f, out.box, axes).reshape(f.shape[:2] + (-1,))

        ea, eb = _exponent(a), _exponent(b)
        prod = np.ldexp(convolve(np.ldexp(a, -ea), np.ldexp(b, -eb)), ea + eb)
        prod[convolve(a != 0, b != 0) < 0.5] = 0.0
        return out.cropped(prod)


# -- real matrix representation ------------------------------------------------

def _rmr_array(spec: AlgebraSpec, coeffs: np.ndarray) -> np.ndarray:
    """Left-multiplication matrices of elements given by (..., d)
    coefficients, as (..., d, d): one scatter through the structure tables
    (each (a, c) pair lands on its own position (index[a, c], c))."""
    tables = spec.tables
    out = np.zeros(coeffs.shape + (spec.dim,))
    out[..., tables.index, np.arange(spec.dim)] = coeffs[..., :, None] * tables.sign
    return out


def rmr(a: Element) -> np.ndarray:
    """The d-by-d real matrix of left multiplication by ``a``.

    Rows/columns are indexed by the canonical basis order of the spec.  An
    algebra homomorphism; with the inverse-induced involution it intertwines
    conjugation with the matrix transpose.
    """
    spec = a.spec  # an infinite spec has no tables: UnsupportedOperationError
    return _rmr_array(spec, AlgMatrix(spec, [[a]])._coeffs[1][0, 0])


def rmr_lift(X: AlgMatrix) -> np.ndarray:
    """Block matrix replacing every entry of X by its RMR (an md-by-nd array)."""
    spec = X.spec
    blocks = _rmr_array(spec, X._array(spec.layout()))
    d = spec.dim
    return blocks.transpose(0, 2, 1, 3).reshape(X.m * d, X.n * d)
