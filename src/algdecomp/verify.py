"""Invariant suites for algebra specs and representations.

Each check returns a :class:`CheckResult` with the worst residual observed,
so the same functions back both the test suite and the ``verify`` CLI
command.  The structure checks (unit axiom, associativity, unitary basis,
involution, isometry) are exact identities of the structure maps
``mul_basis``/``inv_basis`` on basis labels: every label of a finite spec,
and of a Laurent spec every label of the degree-2 exponent box that
:func:`~algdecomp.catalog.random_element` draws from.  Each pair (or
label) identity covers all of them; associativity samples label triples
past ``EXHAUSTIVE_DIM_CAP`` labels.  RMR transpose is exact on a finite
spec's tables; norm ordering samples random elements, allowing round-off.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import AlgebraSpec, _window
from .catalog import LaurentAlgebra, random_element

EXHAUSTIVE_DIM_CAP = 64  # above this many labels, triples are sampled


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""

    def __str__(self):
        flag = "pass" if self.passed else "FAIL"
        out = f"{self.name:<24s} {flag}  worst={self.worst:.3e}"
        return out + (f"  ({self.detail})" if self.detail else "")


def _labels(spec: AlgebraSpec):
    """The labels the structure checks run on: a finite spec's basis, a
    Laurent spec's degree-2 exponent box."""
    if spec.dim is not None:
        return spec.labels
    if isinstance(spec, LaurentAlgebra):
        return _window(spec, (2,) * spec.kappa).labels
    raise NotImplementedError(spec.descriptor)


def _counted(name: str, bad: int, detail: str) -> CheckResult:
    return CheckResult(name, bad == 0, float(bad), detail)


def check_unit_axiom(spec: AlgebraSpec) -> CheckResult:
    """e_1 is a two-sided multiplicative identity on the basis."""
    labels, u, mul = _labels(spec), spec.unit, spec.mul_basis
    bad = sum(mul(u, lab) != (1.0, lab) or mul(lab, u) != (1.0, lab)
              for lab in labels)
    return _counted("unit axiom", bad, f"{len(labels)} labels")


def check_associativity(spec: AlgebraSpec, rng=None,
                        samples: int = 20000) -> CheckResult:
    """(e_i e_j) e_k = e_i (e_j e_k), exact on signs and labels.

    Exhaustive up to 64 labels, randomly sampled triples otherwise.
    """
    rng = rng or np.random.default_rng(0)
    mul, labels = spec.mul_basis, _labels(spec)
    if len(labels) <= EXHAUSTIVE_DIM_CAP:
        triples = itertools.product(labels, repeat=3)
        total = len(labels) ** 3
    else:
        picks = rng.integers(len(labels), size=(samples, 3))
        triples = ((labels[a], labels[b], labels[c]) for a, b, c in picks)
        total = samples
    bad = 0
    for i, j, k in triples:
        s1, ij = mul(i, j)
        s2, left = mul(ij, k)
        s3, jk = mul(j, k)
        s4, right = mul(i, jk)
        if left != right or s1 * s2 != s3 * s4:
            bad += 1
    return _counted("associativity", bad, f"{total} triples")


def check_unitary_basis(spec: AlgebraSpec) -> CheckResult:
    """Re(conj(e_i) e_j) = delta_ij for all label pairs (exact)."""
    labels, unit = _labels(spec), spec.unit
    worst = 0.0
    bad = 0
    for i in labels:
        si, ii = spec.inv_basis(i)
        for j in labels:
            sp, k = spec.mul_basis(ii, j)
            val = si * sp if k == unit else 0.0
            err = abs(val - (1.0 if i == j else 0.0))
            worst = max(worst, err)
            bad += err != 0.0
    return CheckResult("unitary basis", bad == 0, worst,
                       f"{len(labels) ** 2} pairs")


def check_involution(spec: AlgebraSpec) -> CheckResult:
    """conj is an anti-automorphism of order two: conj(e_a e_b) =
    conj(e_b) conj(e_a) on every label pair and conj(conj(e_a)) = e_a on
    every label, so by linearity on every element."""
    labels, mul, inv = _labels(spec), spec.mul_basis, spec.inv_basis
    conj = {a: inv(a) for a in labels}
    bad = 0
    for a, (sa, ca) in conj.items():
        s, back = inv(ca)
        bad += back != a or sa * s != 1.0
        for b in labels:
            s, k = mul(a, b)
            sk, ck = inv(k)
            sb, cb = conj[b]
            t, m = mul(cb, ca)
            bad += ck != m or s * sk != sb * sa * t
    return _counted("involution", bad, f"{len(labels) ** 2} pairs")


def check_isometry(spec: AlgebraSpec) -> CheckResult:
    """Left multiplication by a basis element preserves the 2-norm: each
    row b -> e_a e_b is injective with signs +-1 (a signed permutation on
    a finite spec)."""
    labels, mul = _labels(spec), spec.mul_basis
    bad = 0
    for a in labels:
        row = [mul(a, b) for b in labels]
        bad += (len({k for _, k in row}) < len(row)
                or any(abs(s) != 1.0 for s, _ in row))
    return _counted("isometry (A2)", bad, f"{len(labels)} rows")


def check_rmr_transpose(spec: AlgebraSpec, rng=None, trials: int = 25,
                        tol: float = 1e-13) -> CheckResult:
    """RMR of the conjugate equals the transposed RMR (A3): sign[a, c] at
    (index[a, c], c) of rmr(e_a) is at (c, index[a, c]) of rmr(conj e_a),
    exact on every pair of a finite spec (``rng``, ``trials``, ``tol`` unused)."""
    if spec.dim is None:
        return CheckResult("rmr transpose (A3)", True, 0.0, "skipped: infinite dim")
    t = spec.tables
    a2, k = t.inv_index[:, None], t.index
    bad = ((t.index[a2, k] != np.arange(spec.dim))
           | (t.inv_sign[:, None] * t.sign[a2, k] != t.sign))
    return _counted("rmr transpose (A3)", int(bad.sum()), f"{spec.dim ** 2} pairs")


def check_norm_order(spec: AlgebraSpec, rng=None, trials: int = 100) -> CheckResult:
    """norm_inf <= norm2 <= sqrt(support) * norm_inf on random elements."""
    rng = rng or np.random.default_rng(0)
    ok = True
    worst = 0.0
    for _ in range(trials):
        a = random_element(spec, rng)
        lo, hi = a.norm_inf(), a.norm2()
        slack = 1e-12 * max(hi, 1.0)
        if not (lo <= hi + slack and hi <= (a.support ** 0.5) * lo + slack):
            ok = False
            worst = max(worst, abs(hi - lo))
    return CheckResult("norm ordering", ok, worst)


def verify_algebra(spec: AlgebraSpec, rng=None, trials: int = 100) -> list[CheckResult]:
    """Run the full invariant family for one spec; ``trials`` random
    elements go to the norm ordering check."""
    rng = rng or np.random.default_rng(0)
    return [
        check_unit_axiom(spec),
        check_associativity(spec, rng),
        check_unitary_basis(spec),
        check_involution(spec),
        check_isometry(spec),
        check_rmr_transpose(spec),
        check_norm_order(spec, rng, trials),
    ]
