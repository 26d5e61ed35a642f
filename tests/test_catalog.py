"""Catalog constructions against independent blade/group oracles."""

import itertools

import numpy as np
import pytest
from algdecomp import (AlgebraError, Element, UnsupportedOperationError,
                       algebra_from_descriptor, biquat, boolean_group,
                       clifford, clifford_twist, cyclic, cyclic_group,
                       direct_sum_pm, laurent, quadquat, quaternion_algebra,
                       random_element, random_matrix, real_algebra, tensor,
                       twisted_group)
from algdecomp.catalog import CyclicGroupAlgebra
from algdecomp.verify import (check_associativity, check_unitary_basis,
                              verify_algebra)
from oracles import blade_mul_oracle, blade_to_mask, mask_to_blade


# -- Clifford -----------------------------------------------------------------

def test_cl01_is_complex_plane():
    C = clifford(0, 1)
    assert C.dim == 2
    g = C.basis_element(1)
    assert g * g == C.scalar(-1)


def test_cl02_is_quaternions():
    H = clifford(0, 2)
    i, j = H.basis_element(0b01), H.basis_element(0b10)
    k = i * j
    assert k == H.basis_element(0b11)
    assert j * i == -k
    assert k * k == H.scalar(-1)


def test_blade_products_match_sorting_oracle():
    for p, q in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                 (3, 0), (2, 1), (1, 2), (0, 3), (2, 3), (4, 1)]:
        spec = clifford(p, q)
        for a in spec.labels:
            for b in spec.labels:
                s, k = spec.mul_basis(a, b)
                so, ko = blade_mul_oracle(p, q, mask_to_blade(a),
                                          mask_to_blade(b))
                assert (s, k) == (so, blade_to_mask(ko)), (p, q, a, b)


def test_cl41_basis_order():
    spec = clifford(4, 1)
    assert spec.dim == 32
    blades = [mask_to_blade(m) for m in spec.labels]
    # grade by grade, lexicographic inside each grade
    expected = [()]
    for grade in range(1, 6):
        expected.extend(itertools.combinations(range(1, 6), grade))
    assert blades == expected


def test_clifford_cap():
    with pytest.raises(Exception):
        clifford(9, 8)


# -- Laurent / cyclic -----------------------------------------------------------

def test_laurent_exponent_arithmetic():
    L = laurent(1)
    assert L.basis_element((2,)) * L.basis_element((-3,)) == L.basis_element((-1,))
    assert L.basis_element((1,)).conj() == L.basis_element((-1,))


def test_laurent_two_variables():
    L = laurent(2)
    a = L.basis_element((1, -2))
    b = L.basis_element((3, 2))
    assert a * b == L.basis_element((4, 0))
    assert L.label_str((2, -1)) == "z1^2*z2^-1"
    assert L.parse_label("z1^2*z2^-1") == (2, -1)


def test_laurent_support_stays_finite():
    rng = np.random.default_rng(0)
    L = laurent(1)
    a, b = random_element(L, rng), random_element(L, rng)
    prod = a * b * a
    assert prod.support <= a.support ** 2 * b.support


def test_cyclic_cap():
    # as for clifford: at most 2^16 basis elements, refused before any
    # label is built (cyclic(1, 10**6) once took 1.9 s and 409 MB)
    for kappa, delta in ((1, 2 ** 17), (2, 512), (17, 2)):
        with pytest.raises(UnsupportedOperationError, match="2\\^16"):
            cyclic(kappa, delta)
    assert CyclicGroupAlgebra(2, 256).dim == 2 ** 16  # not kept by a cache


def test_cyclic_wraps():
    C = cyclic(1, 4)
    assert C.basis_element((3,)) * C.basis_element((2,)) == C.basis_element((1,))
    with pytest.raises(AlgebraError):
        cyclic(1, 5)  # odd modulus


# -- twisted group algebras -------------------------------------------------------

def test_trivial_twist_split_complex():
    spec = twisted_group(cyclic_group(2), lambda g, h: 1)
    e = spec.basis_element(1)
    assert e * e == spec.one()


def test_clifford_reconstructed_as_twisted_group():
    for p, q in [(1, 0), (0, 2), (2, 1), (2, 2)]:
        cl = clifford(p, q)
        tw = twisted_group(boolean_group(p + q), clifford_twist(p, q))
        for a in cl.labels:
            for b in cl.labels:
                assert cl.mul_basis(a, b) == tw.mul_basis(a, b)
                assert cl.inv_basis(a) == tw.inv_basis(a)


def test_cocycle_violation_names_triple():
    def alpha(f, g):
        return -1 if (f, g) == (1, 2) else 1

    with pytest.raises(AlgebraError, match="cocycle"):
        twisted_group(boolean_group(2), alpha)


def test_twist_must_be_signs():
    with pytest.raises(AlgebraError):
        twisted_group(cyclic_group(2), lambda g, h: 2)


# -- tensor and direct sum ----------------------------------------------------------

def test_quadquat_shape():
    spec = quadquat()
    assert spec.dim == 16
    assert spec.descriptor == "quadquat"


def test_biquat_shape():
    assert biquat().dim == 8


def test_tensor_products_act_factorwise():
    H = quaternion_algebra()
    spec = quadquat()
    rng = np.random.default_rng(1)
    for _ in range(20):
        a1, a2 = rng.integers(4), rng.integers(4)
        b1, b2 = rng.integers(4), rng.integers(4)
        s, k = spec.mul_basis((a1, a2), (b1, b2))
        s1, k1 = H.mul_basis(a1, b1)
        s2, k2 = H.mul_basis(a2, b2)
        assert (s, k) == (s1 * s2, (k1, k2))


def test_tensor_re_multiplies():
    spec = quadquat()
    for lab in spec.labels:
        e = spec.basis_element(lab)
        l, r = lab
        want = (1.0 if l == 0 else 0.0) * (1.0 if r == 0 else 0.0)
        assert e.re() == want


def test_tensor_right_factor_fastest():
    spec = biquat()
    assert spec.labels[0] == (0, 0)
    assert spec.labels[1] == (0, 1)
    assert spec.labels[2][1] == 0  # next left label starts


def test_tensor_rejects_infinite_factors():
    # a Laurent factor has no coefficient layout to multiply matrices in
    for left, right in [(laurent(1), quaternion_algebra()),
                        (quaternion_algebra(), laurent(1))]:
        with pytest.raises(UnsupportedOperationError):
            tensor(left, right)


def test_direct_sum_split_complex_structure():
    R = real_algebra()
    ds = direct_sum_pm(R, R)
    assert ds.dim == 2
    plus, minus = ds.labels
    assert ds.basis_element(minus) * ds.basis_element(minus) == ds.basis_element(plus)


def test_direct_sum_re_is_average():
    # embed (a, a') and check the unit coefficient is the coefficient average
    R = clifford(1, 0)
    ds = direct_sum_pm(R, R)
    a, ap = 3.0, 5.0  # unit coefficients of the two summands
    emb = Element(ds, {(0, 1): (a + ap) / 2, (0, -1): (a - ap) / 2})
    assert emb.re() == (a + ap) / 2


def test_direct_sum_requires_same_shape():
    with pytest.raises(AlgebraError):
        direct_sum_pm(clifford(1, 0), clifford(0, 2))  # dims 2 vs 4
    with pytest.raises(AlgebraError, match="incompatible"):
        direct_sum_pm(cyclic(1, 4), clifford(2, 0))  # same dim, other group


def test_direct_sum_passes_invariants():
    ds = direct_sum_pm(clifford(1, 0), clifford(0, 1))
    for res in verify_algebra(ds, np.random.default_rng(0), trials=20):
        assert res.passed, res


# -- invariant suites ------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    clifford(2, 0), clifford(0, 2), clifford(2, 1),
    quadquat(), biquat(), cyclic(1, 8),
])
def test_catalog_invariants(spec):
    assert check_associativity(spec).passed
    assert check_unitary_basis(spec).passed


def test_laurent_invariants_sampled():
    rng = np.random.default_rng(2)
    assert check_associativity(laurent(2), rng, samples=2000).passed
    assert check_unitary_basis(laurent(1), rng).passed


# -- descriptors -------------------------------------------------------------------

@pytest.mark.parametrize("desc,dim", [
    ("cl(2,1)", 8), ("real", 1), ("complex", 2), ("quat", 4),
    ("quadquat", 16), ("biquat", 8), ("cyclic(1,8)", 8),
])
def test_descriptor_round_trip(desc, dim):
    spec = algebra_from_descriptor(desc)
    assert spec.dim == dim
    assert algebra_from_descriptor(spec.descriptor) == spec


def test_descriptor_laurent():
    assert algebra_from_descriptor("laurent(2)").dim is None


def test_descriptor_unknown():
    with pytest.raises(AlgebraError):
        algebra_from_descriptor("octonions")


def test_random_generation_deterministic():
    spec = clifford(2, 1)
    a = random_element(spec, np.random.default_rng(42))
    b = random_element(spec, np.random.default_rng(42))
    assert a == b


@pytest.mark.parametrize("spec", [clifford(4, 1), real_algebra(), laurent(2)])
def test_random_matrix_draws_as_random_element(spec):
    # one draw of the whole array, in the order of per-entry draws
    X = random_matrix(spec, 3, 2, np.random.default_rng(9), degree=1)
    rng = np.random.default_rng(9)
    assert X.entries == [[random_element(spec, rng, degree=1)
                          for _ in range(2)] for _ in range(3)]


@pytest.mark.parametrize("shape,degree", [((0, 2), 1), ((2, -1), 1),
                                          ((2, 2), -1)])
def test_random_matrix_rejects_bad_sizes(shape, degree):
    with pytest.raises(AlgebraError):
        random_matrix(laurent(1), *shape, np.random.default_rng(0),
                      degree=degree)
