"""Element and matrix arithmetic against hand values and oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdecomp import (AlgebraError, AlgMatrix, Element, SpecMismatchError,
                       UnsupportedOperationError, clifford, laurent, quadquat,
                       random_element, random_matrix, rmr)
from oracles import trace_re_oracle


def elem(spec, **kw):
    """Convenience: elem(spec, g1=2.0, g1g2=-1.0, one=3.0)."""
    coeffs = {}
    for name, c in kw.items():
        lab = spec.parse_label("1" if name == "one" else name)
        coeffs[lab] = c
    return Element(spec, coeffs)


# -- multiplication -----------------------------------------------------------

def test_defining_relation_cl01():
    C = clifford(0, 1)
    g = C.basis_element(1)
    assert g * g == C.scalar(-1)


def test_unit_acts_trivially():
    rng = np.random.default_rng(1)
    for spec in (clifford(2, 1), laurent(2), quadquat()):
        a = random_element(spec, rng)
        assert spec.one() * a == a
        assert a * spec.one() == a


def test_bivector_square_cl20():
    # sign oracle: g1 g2 g1 g2 -> one transposition then two +1 squares
    spec = clifford(2, 0)
    b = elem(spec, g1g2=1.0)
    assert b * b == spec.scalar(-1)


def test_mul_rejects_foreign_spec():
    a = clifford(1, 0).one()
    b = clifford(0, 1).one()
    with pytest.raises(SpecMismatchError):
        a * b


def test_bilinearity():
    rng = np.random.default_rng(2)
    spec = clifford(1, 2)
    x, y, z = (random_element(spec, rng) for _ in range(3))
    assert ((x * (y + z)) - (x * y + x * z)).norm_inf() < 1e-12
    assert (((y + z) * x) - (y * x + z * x)).norm_inf() < 1e-12


# -- involution ---------------------------------------------------------------

def test_conj_fixes_scalars():
    spec = clifford(3, 0)
    assert spec.scalar(2.5).conj() == spec.scalar(2.5)


def test_conj_bivector_cl20_brute_force():
    # solve conj(b) b = 1 over the two sign candidates
    spec = clifford(2, 0)
    b = elem(spec, g1g2=1.0)
    solutions = [s for s in (1.0, -1.0) if (b * s) * b == spec.one()]
    assert solutions == [-1.0]
    assert b.conj() == b * -1.0


def test_conj_quaternion_i():
    H = clifford(0, 2)
    i = H.basis_element(1)
    assert i.conj() == -i


# -- real part ------------------------------------------------------------------

def test_re_reads_unit_coefficient():
    spec = clifford(2, 0)
    assert elem(spec, one=3.0, g1=2.0).re() == 3.0
    assert elem(spec, g1g2=1.0).re() == 0.0


def test_unitary_basis_re():
    for spec in (clifford(2, 1), quadquat()):
        for lab in spec.labels:
            e = spec.basis_element(lab)
            assert (e.conj() * e).re() == 1.0


def test_re_matches_trace_oracle():
    rng = np.random.default_rng(3)
    for spec in (clifford(3, 0), quadquat()):
        for _ in range(5):
            a = random_element(spec, rng)
            assert math.isclose(a.re(), trace_re_oracle(a), abs_tol=1e-12)


# -- norms ----------------------------------------------------------------------

def test_norm_3_4_5():
    spec = clifford(1, 0)
    a = elem(spec, one=3.0, g1=4.0)
    assert a.norm2() == 5.0
    assert a.norm_inf() == 4.0


def test_unitary_multiplication_is_isometry():
    rng = np.random.default_rng(4)
    spec = clifford(2, 2)
    a = random_element(spec, rng)
    for lab in spec.labels:
        b = spec.basis_element(lab)
        assert abs((b * a).norm2() - a.norm2()) <= 1e-14 * a.norm2()


# -- RMR ---------------------------------------------------------------------------

def test_rmr_complex_layout():
    C = clifford(0, 1)
    a = elem(C, one=1.5, g1=2.5)
    assert np.array_equal(rmr(a), np.array([[1.5, -2.5], [2.5, 1.5]]))


def test_rmr_identity():
    spec = clifford(2, 0)
    assert np.array_equal(rmr(spec.one()), np.eye(4))


def test_rmr_is_homomorphism():
    rng = np.random.default_rng(5)
    spec = clifford(3, 0)
    a, b = random_element(spec, rng), random_element(spec, rng)
    assert np.allclose(rmr(a * b), rmr(a) @ rmr(b), atol=1e-12)


def test_rmr_infinite_unsupported():
    with pytest.raises(UnsupportedOperationError):
        rmr(laurent(1).one())


# -- matrices --------------------------------------------------------------------

def test_herm_of_identity():
    spec = clifford(2, 0)
    I = AlgMatrix.identity(spec, 3)
    assert (I.herm() - I).frob() == 0.0


def test_herm_1x1_bivector():
    spec = clifford(2, 0)
    X = AlgMatrix(spec, [[elem(spec, g1g2=1.0)]])
    assert X.herm()[0, 0] == elem(spec, g1g2=-1.0)


def test_herm_antihomomorphism():
    rng = np.random.default_rng(6)
    spec = clifford(1, 2)
    X = random_matrix(spec, 2, 3, rng)
    Y = random_matrix(spec, 3, 2, rng)
    assert ((X @ Y).herm() - Y.herm() @ X.herm()).frob() < 1e-12


def test_frob_column():
    spec = clifford(1, 0)
    X = AlgMatrix(spec, [[elem(spec, one=3.0, g1=4.0)], [spec.zero()]])
    assert X.frob() == 5.0


def test_is_unitary_cases():
    spec = clifford(1, 0)
    assert AlgMatrix.identity(spec, 2).is_unitary(0.0)
    X = AlgMatrix(spec, [[spec.basis_element(1)]])
    assert X.is_unitary(0.0)
    Y = AlgMatrix(spec, [[elem(spec, one=1.0, g1=1.0)]])
    assert not Y.is_unitary(1e-9)  # conj(1+g1)(1+g1) = 2 + 2 g1
    with pytest.raises(Exception):
        random_matrix(spec, 2, 3, np.random.default_rng(0)).is_unitary()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_rejected(bad):
    spec = clifford(1, 0)
    with pytest.raises(AlgebraError, match="non-finite"):
        Element(spec, {0: bad})
    with pytest.raises(AlgebraError, match="non-finite"):
        spec.scalar(bad)
    with pytest.raises(AlgebraError, match="non-finite"):
        spec.basis_element(1, bad)


def test_matmul_dimension_error():
    spec = clifford(1, 0)
    rng = np.random.default_rng(7)
    with pytest.raises(Exception):
        random_matrix(spec, 2, 3, rng) @ random_matrix(spec, 2, 3, rng)


# -- property tests -----------------------------------------------------------------

_SPECS = [clifford(2, 0), clifford(0, 2), clifford(1, 2)]

coeff_lists = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1)


@st.composite
def spec_and_elements(draw, count=2):
    spec = draw(st.sampled_from(_SPECS))
    out = []
    for _ in range(count):
        vals = draw(st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=spec.dim, max_size=spec.dim))
        out.append(Element(spec, dict(zip(spec.labels, vals))))
    return (spec, *out)


@settings(max_examples=50, deadline=None)
@given(spec_and_elements())
def test_conj_antiautomorphism(data):
    spec, a, b = data
    scale = max(a.norm2() * b.norm2(), 1.0)
    assert ((a * b).conj() - b.conj() * a.conj()).norm_inf() <= 1e-13 * scale
    assert a.conj().conj() == a


@settings(max_examples=50, deadline=None)
@given(spec_and_elements(count=1))
def test_norm_sandwich(data):
    spec, a = data
    lo, hi = a.norm_inf(), a.norm2()
    assert lo <= hi + 1e-12
    assert hi <= math.sqrt(max(a.support, 1)) * lo + 1e-12


@settings(max_examples=50, deadline=None)
@given(spec_and_elements(count=1))
def test_rmr_transposes_conj(data):
    spec, a = data
    assert np.allclose(rmr(a.conj()), rmr(a).T, atol=1e-13)
