"""Constructors for the built-in signed-monomial *-algebras.

Provided families:

* ``clifford(p, q)`` -- blades over p generators squaring to +1 and q
  squaring to -1, in grade-then-lexicographic order;
* ``laurent(kappa)`` -- the group algebra of Z^kappa, i.e. multivariate
  Laurent polynomials with real coefficients (infinite-dimensional);
* ``cyclic(kappa, delta)`` -- the group algebra of (Z/delta)^kappa, the
  finite wrap-around approximation of ``laurent``;
* ``twisted_group(group, alpha)`` -- a finite group with a {-1,+1}-valued
  twisting of its multiplication table (cocycle condition checked);
* ``tensor(a, b)`` and ``direct_sum_pm(a, b)`` -- product constructions that
  keep the signed-monomial form;
* shortcuts ``real_algebra``, ``complex_algebra``, ``quaternion_algebra``,
  ``quadquat``, ``biquat``.

Every construction yields a unitary basis (conj(e_i) e_j has real part
delta_ij), which is what the rotation engine's convergence relies on.
"""

from __future__ import annotations

import itertools
import operator
import re as _re
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import (AlgebraError, AlgebraSpec, AlgMatrix, Element,
                   UnsupportedOperationError, _check_shape, _window, _window_of)


# -- Clifford algebras ---------------------------------------------------------

def _blade_sign(a: int, b: int, neg_mask: int) -> int:
    """Sign of e_a e_b: a flip per generator pair (s in a, t in b) with
    s > t and per shared generator in ``neg_mask`` (squaring to -1)."""
    flips = (a & b & neg_mask).bit_count()
    a >>= 1
    while a:
        flips += (a & b).bit_count()
        a >>= 1
    return -1 if flips & 1 else 1


class CliffordAlgebra(AlgebraSpec):
    """Cl(p,q) with blades stored as bitmasks over the p+q generators.

    Generator t (0-based) is rendered ``g{t+1}``; the first p generators
    square to +1, the rest to -1.  Blade order is by grade, then
    lexicographically on generator indices.
    """

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise AlgebraError("signature counts must be non-negative")
        if p + q > 16:
            raise UnsupportedOperationError("clifford(p,q) supports p+q <= 16")
        self.p = p
        self.q = q
        self.ngen = p + q
        # bitmask of generators squaring to -1
        self._neg_mask = (((1 << self.ngen) - 1) >> p) << p
        labels = sorted(range(1 << self.ngen), key=self._blade_key)
        super().__init__(f"cl({p},{q})", 0, labels)

    @staticmethod
    def _blade_key(mask: int):
        bits = tuple(t for t in range(mask.bit_length()) if mask >> t & 1)
        return (len(bits), bits)

    def _mul_raw(self, a: int, b: int):
        return float(_blade_sign(a, b, self._neg_mask)), a ^ b

    def _inv_raw(self, a: int):
        s, _ = self._mul_raw(a, a)  # blade squares to +-1
        return s, a

    @property
    def is_division(self) -> bool:
        # R, C and H; every other signature has zero divisors
        return self.p == 0 and self.q <= 2

    def label_str(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "".join(f"g{t + 1}" for t in range(self.ngen) if mask >> t & 1)

    def parse_label(self, s: str) -> int:
        if s == "1":
            return 0
        parts = _re.findall(r"g(\d+)", s)
        if not parts or "".join(f"g{x}" for x in parts) != s:
            raise ValueError(f"bad blade label {s!r}")
        mask = 0
        prev = 0
        for x in parts:
            t = int(x)
            if t <= prev or t > self.ngen:
                raise ValueError(f"bad blade label {s!r} for {self.descriptor}")
            mask |= 1 << (t - 1)
            prev = t
        return mask

    def _key(self):
        return (self.p, self.q)


# -- group algebras over Z^k and (Z/delta)^k -----------------------------------

def _monomial_str(exps) -> str:
    if not any(exps):
        return "1"
    return "*".join(f"z{i + 1}^{e}" for i, e in enumerate(exps) if e != 0)


def _parse_monomial(s: str, kappa: int):
    if s == "1":
        return (0,) * kappa
    exps = [0] * kappa
    for factor in s.split("*"):
        m = _re.fullmatch(r"z(\d+)\^(-?\d+)", factor)
        if not m:
            raise ValueError(f"bad monomial label {s!r}")
        i = int(m.group(1))
        if not 1 <= i <= kappa or exps[i - 1] != 0:
            raise ValueError(f"bad monomial label {s!r} for {kappa} variable(s)")
        exps[i - 1] = int(m.group(2))
    return tuple(exps)


class LaurentAlgebra(AlgebraSpec):
    """Real Laurent polynomials in kappa commuting variables.

    Labels are exponent vectors in Z^kappa; the algebra is countably
    infinite-dimensional but every element has finite support.
    """

    def __init__(self, kappa: int):
        if kappa < 1:
            raise AlgebraError("laurent(kappa) requires kappa >= 1")
        self.kappa = kappa
        super().__init__(f"laurent({kappa})", (0,) * kappa, labels=None)

    def _mul_raw(self, a, b):
        # map is half the cost of a generator here, and every product of
        # Laurent Elements comes through this line (arrays shift instead)
        return 1.0, tuple(map(operator.add, a, b))

    def _inv_raw(self, a):
        return 1.0, tuple(-x for x in a)

    def sort_key(self, lab):
        return lab

    def layout(self, *matrices):
        return _window_of(self, matrices)

    def label_str(self, lab) -> str:
        return _monomial_str(lab)

    def parse_label(self, s: str):
        return _parse_monomial(s, self.kappa)

    def _key(self):
        return (self.kappa,)


class CyclicGroupAlgebra(AlgebraSpec):
    """Group algebra of (Z/delta)^kappa; exponents are kept in [0, delta)."""

    def __init__(self, kappa: int, delta: int):
        if kappa < 1:
            raise AlgebraError("cyclic(kappa, delta) requires kappa >= 1")
        if delta < 2 or delta % 2:
            raise AlgebraError("cyclic(kappa, delta) requires even delta >= 2")
        # 2^16 basis elements at most, as for clifford; kappa > 16 is past it
        if kappa > 16 or delta ** kappa > 2 ** 16:
            raise UnsupportedOperationError(
                "cyclic(kappa, delta) supports delta^kappa <= 2^16")
        self.kappa = kappa
        self.delta = delta
        labels = list(itertools.product(range(delta), repeat=kappa))
        super().__init__(f"cyclic({kappa},{delta})", (0,) * kappa, labels)

    def _mul_raw(self, a, b):
        d = self.delta
        return 1.0, tuple((x + y) % d for x, y in zip(a, b))

    def _inv_raw(self, a):
        d = self.delta
        return 1.0, tuple((-x) % d for x in a)

    def label_str(self, lab) -> str:
        return _monomial_str(lab)

    def parse_label(self, s: str):
        return tuple(e % self.delta for e in _parse_monomial(s, self.kappa))

    def _key(self):
        return (self.kappa, self.delta)


# -- twisted group algebras ----------------------------------------------------

class FiniteGroup:
    """A finite group given by an element sequence and a product callable."""

    def __init__(self, elements, mul: Callable, name: str = ""):
        self.elements = tuple(elements)
        self.mul = mul
        self.name = name or f"group({len(self.elements)})"
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise AlgebraError("duplicate group elements")
        identity = None
        for e in self.elements:
            if all(mul(e, g) == g and mul(g, e) == g for g in self.elements):
                identity = e
                break
        if identity is None:
            raise AlgebraError("no identity element found")
        self.identity = identity
        self.inverse = {}
        for g in self.elements:
            for h in self.elements:
                if mul(g, h) == identity and mul(h, g) == identity:
                    self.inverse[g] = h
                    break
            else:
                raise AlgebraError(f"element {g!r} has no inverse")

    def __len__(self):
        return len(self.elements)


def boolean_group(n: int) -> FiniteGroup:
    """(Z/2)^n with elements as bitmasks and XOR as the product."""
    return FiniteGroup(range(1 << n), lambda a, b: a ^ b, name=f"(Z/2)^{n}")


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(range(n), lambda a, b: (a + b) % n, name=f"Z/{n}")


class TwistedGroupAlgebra(AlgebraSpec):
    """R^alpha[G]: basis indexed by G, products b_g b_h = alpha(g,h) b_{gh}.

    alpha must take values in {-1, +1}, satisfy alpha(1,1) = 1 and the
    cocycle condition alpha(f,g) alpha(fg,h) = alpha(f,gh) alpha(g,h); the
    condition is checked exhaustively at construction (|G| <= 64).
    """

    def __init__(self, group: FiniteGroup, alpha: Callable, descriptor: str = ""):
        if len(group) > 64:
            raise UnsupportedOperationError(
                "exhaustive cocycle check capped at |G| = 64")
        e = group.identity
        if alpha(e, e) != 1:
            raise AlgebraError("twisting must be normalised: alpha(1,1) = 1")
        mul = group.mul
        for f in group.elements:
            for g in group.elements:
                v = alpha(f, g)
                if v not in (-1, 1):
                    raise AlgebraError(f"twisting value alpha({f!r},{g!r}) = {v!r} "
                                       "is not +-1")
                for h in group.elements:
                    if alpha(f, g) * alpha(mul(f, g), h) != \
                            alpha(f, mul(g, h)) * alpha(g, h):
                        raise AlgebraError(
                            "twisting function violates the cocycle condition at "
                            f"(f, g, h) = ({f!r}, {g!r}, {h!r})")
        self.group = group
        self.alpha = alpha
        # identity first, remaining elements in the group's own order
        labels = [e] + [g for g in group.elements if g != e]
        super().__init__(descriptor or f"twisted[{group.name}]", e, labels)

    def _mul_raw(self, g, h):
        return float(self.alpha(g, h)), self.group.mul(g, h)

    def _inv_raw(self, g):
        gi = self.group.inverse[g]
        return float(self.alpha(g, gi)), gi

    def _key(self):
        return (id(self.group), id(self.alpha))


def twisted_group(group: FiniteGroup, alpha: Callable,
                  descriptor: str = "") -> TwistedGroupAlgebra:
    return TwistedGroupAlgebra(group, alpha, descriptor)


def clifford_twist(p: int, q: int) -> Callable:
    """The twisting on (Z/2)^(p+q) whose twisted group algebra is Cl(p,q)."""
    neg_mask = (((1 << (p + q)) - 1) >> p) << p
    return lambda a, b: _blade_sign(a, b, neg_mask)


# -- product constructions -------------------------------------------------------

class TensorAlgebra(AlgebraSpec):
    """Tensor product of two finite algebras: labels are pairs, products
    act factor-wise, and the basis order puts the right factor fastest."""

    def __init__(self, left: AlgebraSpec, right: AlgebraSpec, descriptor: str = ""):
        if left.dim is None or right.dim is None:
            raise UnsupportedOperationError(
                "tensor factors must be finite-dimensional")
        self.left = left
        self.right = right
        labels = [(la, lb) for la in left.labels for lb in right.labels]
        super().__init__(descriptor or f"tensor({left.descriptor},{right.descriptor})",
                         (left.unit, right.unit), labels)

    def _mul_raw(self, a, b):
        sa, ka = self.left.mul_basis(a[0], b[0])
        sb, kb = self.right.mul_basis(a[1], b[1])
        return sa * sb, (ka, kb)

    def _inv_raw(self, a):
        sa, ka = self.left.inv_basis(a[0])
        sb, kb = self.right.inv_basis(a[1])
        return sa * sb, (ka, kb)

    def label_str(self, lab) -> str:
        return f"({self.left.label_str(lab[0])})*({self.right.label_str(lab[1])})"

    def parse_label(self, s: str):
        m = _re.fullmatch(r"\((.*)\)\*\((.*)\)", s)
        if not m:
            raise ValueError(f"bad tensor label {s!r}")
        return (self.left.parse_label(m.group(1)),
                self.right.parse_label(m.group(2)))

    def _key(self):
        return (self.left, self.right, self.descriptor)


class DirectSumPMAlgebra(AlgebraSpec):
    """Direct sum of two same-shaped algebras on the plus/minus basis.

    Basis elements are (e_i + e'_i)/(e_i - e'_i) pairs, encoded as labels
    (i, +1) and (i, -1) with i the basis index.  This stays signed-monomial
    only when the two factors share the same product *label* structure
    (e.g. two twistings of one group); that compatibility is checked
    exhaustively at construction.
    """

    def __init__(self, left: AlgebraSpec, right: AlgebraSpec, descriptor: str = ""):
        if left.dim is None or right.dim is None:
            raise UnsupportedOperationError("direct_sum_pm requires finite factors")
        if left.dim != right.dim:
            raise AlgebraError("direct_sum_pm requires equal dimensions")
        self.left = left
        self.right = right
        d = left.dim
        lidx, ridx = left.label_index, right.label_index
        ll, rl = left.labels, right.labels
        if lidx(left.unit) != ridx(right.unit):
            raise AlgebraError("direct_sum_pm: unit positions disagree")
        for i, j in itertools.product(range(d), repeat=2):
            if (lidx(left.mul_basis(ll[i], ll[j])[1])
                    != ridx(right.mul_basis(rl[i], rl[j])[1])):
                raise AlgebraError(
                    "direct_sum_pm: factors have incompatible product "
                    f"structure at basis pair ({i}, {j})")
        labels = [(i, s) for i in range(d) for s in (1, -1)]
        super().__init__(
            descriptor or f"dsum({left.descriptor},{right.descriptor})",
            (lidx(left.unit), 1), labels)

    def _mul_raw(self, a, b):
        (i, s), (j, t) = a, b
        sa, ka = self.left.mul_basis(self.left.labels[i], self.left.labels[j])
        sb, _ = self.right.mul_basis(self.right.labels[i], self.right.labels[j])
        return sa, (self.left.label_index(ka), int(s * t * sa * sb))

    def _inv_raw(self, a):
        i, s = a
        sa, ka = self.left.inv_basis(self.left.labels[i])
        sb, _ = self.right.inv_basis(self.right.labels[i])
        return sa, (self.left.label_index(ka), int(s * sa * sb))

    def label_str(self, lab) -> str:
        i, s = lab
        sign = "+" if s > 0 else "-"
        return (f"({self.left.label_str(self.left.labels[i])})"
                f"|{sign}({self.right.label_str(self.right.labels[i])})")

    def _key(self):
        return (self.left, self.right, self.descriptor)


# -- public constructors ---------------------------------------------------------

@lru_cache(maxsize=None)
def clifford(p: int, q: int) -> CliffordAlgebra:
    return CliffordAlgebra(p, q)


@lru_cache(maxsize=None)
def laurent(kappa: int) -> LaurentAlgebra:
    return LaurentAlgebra(kappa)


@lru_cache(maxsize=None)
def cyclic(kappa: int, delta: int) -> CyclicGroupAlgebra:
    return CyclicGroupAlgebra(kappa, delta)


def real_algebra() -> CliffordAlgebra:
    return clifford(0, 0)


def complex_algebra() -> CliffordAlgebra:
    return clifford(0, 1)


def quaternion_algebra() -> CliffordAlgebra:
    return clifford(0, 2)


def tensor(left: AlgebraSpec, right: AlgebraSpec,
           descriptor: str = "") -> TensorAlgebra:
    return TensorAlgebra(left, right, descriptor)


def direct_sum_pm(left: AlgebraSpec, right: AlgebraSpec,
                  descriptor: str = "") -> DirectSumPMAlgebra:
    return DirectSumPMAlgebra(left, right, descriptor)


@lru_cache(maxsize=None)
def quadquat() -> TensorAlgebra:
    """H (x) H, a 16-dimensional algebra."""
    return tensor(quaternion_algebra(), quaternion_algebra(), descriptor="quadquat")


@lru_cache(maxsize=None)
def biquat() -> TensorAlgebra:
    """H (x) C, an 8-dimensional algebra."""
    return tensor(quaternion_algebra(), complex_algebra(), descriptor="biquat")


_NAMED = {"real": real_algebra, "complex": complex_algebra,
          "quat": quaternion_algebra, "quadquat": quadquat, "biquat": biquat}
_FAMILIES = [
    (_re.compile(r"cl\(\s*(\d+)\s*,\s*(\d+)\s*\)"), clifford),
    (_re.compile(r"laurent\(\s*(\d+)\s*\)"), laurent),
    (_re.compile(r"cyclic\(\s*(\d+)\s*,\s*(\d+)\s*\)"), cyclic),
]


def algebra_from_descriptor(desc: str) -> AlgebraSpec:
    """Parse a descriptor string: cl(p,q), laurent(k), cyclic(k,delta),
    quat, complex, real, quadquat, biquat."""
    s = desc.strip().lower()
    if s in _NAMED:
        return _NAMED[s]()
    for pattern, make in _FAMILIES:
        m = pattern.fullmatch(s)
        if m:
            return make(*map(int, m.groups()))
    raise AlgebraError(f"unknown algebra descriptor {desc!r}")


# -- random data ------------------------------------------------------------------

def random_element(spec: AlgebraSpec, rng: np.random.Generator,
                   degree: int = 2) -> Element:
    """Standard Gaussian coefficients on every basis element.

    Finite algebras draw one coefficient per basis label in canonical
    order; Laurent algebras draw on every monomial with exponents in
    [-degree, degree] per variable.
    """
    return random_matrix(spec, 1, 1, rng, degree)[0, 0]


def random_matrix(spec: AlgebraSpec, m: int, n: int, rng: np.random.Generator,
                  degree: int = 2) -> AlgMatrix:
    """Matrix of i.i.d. random elements (see :func:`random_element`), drawn
    in one call: entries row-major, coefficients in canonical order."""
    _check_shape(m, n)
    if isinstance(spec, LaurentAlgebra):
        if degree < 0:
            raise AlgebraError(f"degree must be non-negative, got {degree}")
        lay = _window(spec, (degree,) * spec.kappa)
    else:
        lay = spec.layout()
    return AlgMatrix._of_array(lay, rng.standard_normal((m, n, lay.width)))
