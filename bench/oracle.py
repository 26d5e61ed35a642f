"""Correctness checks computed apart from the program under test.

Finite algebras are checked through left-regular real representations
that this module builds itself: Clifford blade products by bubble-sorting
generator sequences, quaternion products from Hamilton's table, group
algebras of (Z/delta)^kappa by adding exponents modulo delta.  Laurent
matrices are checked by evaluating them at roots of unity.

Matrices reach the checks as grids of ``{label string: coefficient}``
dicts, read either from an ``AlgMatrix`` (through ``spec.label_str``) or
from an ``algdecomp-mat/1`` file parsed with the standard ``json`` module,
so the program's own products, involution, norms and file reader are never
used to judge its output.  Label strings follow the documented format:
blades ``g1g3``, tensor pairs ``(g1)*(g2)``, monomials ``z1^2*z2^-1`` and
``1`` for the unit.
"""

from __future__ import annotations

import functools
import itertools
import json
import re

import numpy as np

# Hamilton's table on the units (1, i, j, k): _HAMILTON[a][b] = (sign, c)
# means u_a u_b = sign * u_c.
_HAMILTON = [[(1, 0), (1, 1), (1, 2), (1, 3)],
             [(1, 1), (-1, 0), (1, 3), (-1, 2)],
             [(1, 2), (-1, 3), (-1, 0), (1, 1)],
             [(1, 3), (1, 2), (-1, 1), (-1, 0)]]
# quaternion and complex units written as blades of cl(0,2) and cl(0,1)
_QUAT_UNIT = {(): 0, (1,): 1, (2,): 2, (1, 2): 3}
_COMPLEX_UNIT = {(): 0, (1,): 1}


def parse_blade(s: str) -> tuple:
    """``"1"`` -> (), ``"g1g3"`` -> (1, 3)."""
    if s == "1":
        return ()
    gens = tuple(int(x) for x in re.findall(r"g(\d+)", s))
    if "".join(f"g{t}" for t in gens) != s:
        raise ValueError(f"bad blade {s!r}")
    return gens


def parse_tensor(s: str) -> tuple:
    """``"(g1)*(1)"`` -> ((1,), ())."""
    m = re.fullmatch(r"\((.*)\)\*\((.*)\)", s)
    if not m:
        raise ValueError(f"bad tensor label {s!r}")
    return parse_blade(m.group(1)), parse_blade(m.group(2))


@functools.lru_cache(maxsize=None)
def parse_monomial(s: str, kappa: int) -> tuple:
    """``"z1^2*z2^-1"`` -> (2, -1); ``"1"`` -> all zeros."""
    exps = [0] * kappa
    if s != "1":
        for factor in s.split("*"):
            m = re.fullmatch(r"z(\d+)\^(-?\d+)", factor)
            if not m:
                raise ValueError(f"bad monomial {s!r}")
            exps[int(m.group(1)) - 1] = int(m.group(2))
    return tuple(exps)


def blade_product(p: int, a: tuple, b: tuple) -> tuple[int, tuple]:
    """Sign and blade of e_a e_b in cl(p, q), by bubble sort.

    Generators 1..p square to +1, the others to -1.
    """
    seq = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                if seq[i] > p:
                    sign = -sign
                del seq[i:i + 2]
                changed = True
            else:
                i += 1
    return sign, tuple(seq)


class RegularRep:
    """Left-regular real representation of a signed-monomial algebra.

    ``keys`` are parsed basis labels, ``product(a, b)`` returns
    ``(sign, key)`` for e_a e_b, and ``parse`` turns a label string into a
    key.  With an orthonormal unitary basis the representation of the
    involution is the transpose, so a unitary matrix lifts to an
    orthogonal one.
    """

    def __init__(self, keys, product, parse):
        self.keys = list(keys)
        self.parse = parse
        self.dim = d = len(self.keys)
        self.index = {k: t for t, k in enumerate(self.keys)}
        self.left = np.zeros((d, d, d))
        for a, ka in enumerate(self.keys):
            for b, kb in enumerate(self.keys):
                s, kc = product(ka, kb)
                self.left[a, self.index[kc], b] = s
        self._string_index = {}

    def coefficients(self, grid) -> np.ndarray:
        """(m, n, d) coefficient array of a grid of label-string dicts."""
        m, n = len(grid), len(grid[0])
        out = np.zeros((m, n, self.dim))
        for i, row in enumerate(grid):
            for j, entry in enumerate(row):
                for s, c in entry.items():
                    t = self._string_index.get(s)
                    if t is None:
                        t = self._string_index[s] = self.index[self.parse(s)]
                    out[i, j, t] = c
        return out

    def lift(self, grid) -> np.ndarray:
        """The (m d, n d) real block matrix of a grid."""
        c = self.coefficients(grid)
        m, n, d = c.shape
        blocks = np.einsum("ijk,kab->iajb", c, self.left)
        return blocks.reshape(m * d, n * d)


def clifford_rep(p: int, q: int) -> RegularRep:
    blades = [tuple(t + 1 for t in range(p + q) if mask >> t & 1)
              for mask in range(1 << (p + q))]
    return RegularRep(blades, lambda a, b: blade_product(p, a, b),
                      parse_blade)


def quadquat_rep() -> RegularRep:
    """H (x) H: pairs of quaternion units, multiplied factor-wise."""
    keys = list(itertools.product(range(4), range(4)))

    def product(a, b):
        s1, c1 = _HAMILTON[a[0]][b[0]]
        s2, c2 = _HAMILTON[a[1]][b[1]]
        return s1 * s2, (c1, c2)

    def parse(s):
        left, right = parse_tensor(s)
        return _QUAT_UNIT[left], _QUAT_UNIT[right]

    return RegularRep(keys, product, parse)


def biquat_rep() -> RegularRep:
    """H (x) C: a quaternion unit times 1 or the commuting imaginary unit."""
    keys = list(itertools.product(range(4), range(2)))

    def product(a, b):
        s1, c1 = _HAMILTON[a[0]][b[0]]
        s2 = -1 if a[1] == b[1] == 1 else 1
        return s1 * s2, (c1, a[1] ^ b[1])

    def parse(s):
        left, right = parse_tensor(s)
        return _QUAT_UNIT[left], _COMPLEX_UNIT[right]

    return RegularRep(keys, product, parse)


def cyclic_rep(kappa: int, delta: int) -> RegularRep:
    keys = list(itertools.product(range(delta), repeat=kappa))
    return RegularRep(
        keys, lambda a, b: (1, tuple((x + y) % delta for x, y in zip(a, b))),
        lambda s: tuple(e % delta for e in parse_monomial(s, kappa)))


# -- reading matrices ---------------------------------------------------------

def grid_of(X) -> list:
    """An ``AlgMatrix`` as a grid of {label string: coefficient} dicts."""
    label = X.spec.label_str
    return [[{label(lab): c for lab, c in e.coeffs.items()} for e in row]
            for row in X.entries]


def read_grid(path) -> tuple[str, list]:
    """(algebra descriptor, grid) of an ``algdecomp-mat/1`` file."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc["format"] != "algdecomp-mat/1":
        raise ValueError(f"{path}: unexpected format {doc['format']!r}")
    grid = [[{} for _ in range(doc["n"])] for _ in range(doc["m"])]
    for i, j, pairs in doc["entries"]:
        grid[i][j] = {s: float(c) for s, c in pairs}
    return doc["algebra"], grid


def conj_t(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(M.conj(), -1, -2)


def max_off_pattern(grid, keep) -> float:
    """Largest |coefficient| over entries (i, j) with keep(i, j) false."""
    return max((abs(c) for i, row in enumerate(grid)
                for j, entry in enumerate(row) if not keep(i, j)
                for c in entry.values()), default=0.0)


# -- evaluation on the unit circle -------------------------------------------

def evaluate(grid, n: int) -> np.ndarray:
    """Values of a one-variable Laurent (or cyclic) grid at the n-th roots
    of unity exp(2 pi i p / n), p = 0..n-1, as an (n, rows, cols) array."""
    rows, cols = len(grid), len(grid[0])
    out = np.zeros((n, rows, cols), dtype=complex)
    for i, row in enumerate(grid):
        for j, entry in enumerate(row):
            if entry:
                c = np.zeros(n, dtype=complex)
                exps = [parse_monomial(s, 1)[0] % n for s in entry]
                np.add.at(c, exps, list(entry.values()))
                out[:, i, j] = n * np.fft.ifft(c)
    return out


def exponent_span(grid) -> int:
    exps = [parse_monomial(s, 1)[0] for row in grid for e in row for s in e]
    return max(exps) - min(exps) if exps else 0


def faithful_roots(*grids) -> int:
    """How many roots of unity pin down a product of the grids.

    A Laurent polynomial whose exponents span fewer than n consecutive
    integers is recovered from its values at the n-th roots of unity, so
    each of its coefficients is at most its largest value there.
    """
    return max(64, sum(exponent_span(g) for g in grids) + 1)


# -- the checks ---------------------------------------------------------------
#
# Each takes the factors as arrays (a real representation, or values at
# points of the unit circle stacked along the first axis) and returns a list
# of problems; an empty list means the output passed.  ``tol`` bounds
# max-abs errors relative to the input's largest singular value.

EXACT_SLACK = 1e-12   # below-diagonal bound of an exact (eps = 0) QR, relative


def _cmp(problems, what, value, bound):
    # written so that a NaN value is reported as a problem
    if not value <= bound:
        problems.append(f"{what} {value:.3e} exceeds {bound:.3e}")


def _scale(A) -> float:
    return max(float(np.linalg.norm(A, 2, axis=(-2, -1)).max()), 1e-300)


def check_qr(A, Q, R, r_grid, eps, tol) -> list[str]:
    """Q unitary, Q R = A, every below-diagonal coefficient of R at most
    eps (round-off of the input's size when eps is 0)."""
    problems = []
    scale = _scale(A)
    eye = np.eye(Q.shape[-1])
    _cmp(problems, "unitarity", float(np.abs(conj_t(Q) @ Q - eye).max()), tol)
    _cmp(problems, "reconstruction",
         float(np.abs(Q @ R - A).max()) / scale, tol)
    _cmp(problems, "below-diagonal",
         max_off_pattern(r_grid, lambda i, j: i <= j),
         eps if eps > 0 else EXACT_SLACK * scale)
    return problems


def check_svd(A, U, D, V, d_grid, eps, tol) -> list[str]:
    """U and V unitary, U D V^H = A, every off-diagonal coefficient of D at
    most eps, and the singular values of D those numpy finds for A."""
    problems = []
    scale = _scale(A)
    for name, M in (("U", U), ("V", V)):
        eye = np.eye(M.shape[-1])
        _cmp(problems, f"unitarity of {name}",
             float(np.abs(conj_t(M) @ M - eye).max()), tol)
    _cmp(problems, "reconstruction",
         float(np.abs(U @ D @ conj_t(V) - A).max()) / scale, tol)
    _cmp(problems, "off-diagonal", max_off_pattern(d_grid, lambda i, j: i == j),
         eps)
    sd = np.linalg.svd(D, compute_uv=False)
    sa = np.linalg.svd(A, compute_uv=False)
    _cmp(problems, "singular values",
         float(np.abs(np.sort(sd, axis=-1) - np.sort(sa, axis=-1)).max()) / scale,
         tol)
    return problems
