"""QR and SVD decompositions of matrices over real *-algebras.

Two interchangeable engines:

* :mod:`algdecomp.jacobi` -- a generalized Givens/Jacobi iteration that
  works directly in the algebra (finite- or infinite-dimensional);
* :mod:`algdecomp.wedderburn` -- reduction to independent real/complex/
  quaternion decompositions through a verified block representation.

See :mod:`algdecomp.catalog` for the built-in algebras.
"""

from .core import (AlgebraError, AlgebraSpec, AlgMatrix, Element,
                   SpecMismatchError, UnsupportedOperationError, rmr, rmr_lift)
from .catalog import (CliffordAlgebra, CyclicGroupAlgebra, DirectSumPMAlgebra,
                      FiniteGroup, LaurentAlgebra, TensorAlgebra,
                      TwistedGroupAlgebra, algebra_from_descriptor, biquat,
                      boolean_group, clifford, clifford_twist, complex_algebra,
                      cyclic, cyclic_group, direct_sum_pm, laurent, quadquat,
                      quaternion_algebra, random_element, random_matrix,
                      real_algebra, tensor, twisted_group)
from .jacobi import (ConvergenceError, DecencyResult, DecompReport,
                     GivensParams, apply_givens_left, apply_shift_left,
                     apply_shift_right, aqr, asvd, beta_basis, beta_division,
                     beta_prime, decency_check, givens_matrix)
from .wedderburn import (IdempotentSet, Representation, idempotent_join,
                         idempotent_split, laurent_embed, laurent_unembed,
                         lift, rep_biquat, rep_cl41, rep_cyclic_dft,
                         rep_quadquat, rep_trivial, representation_for,
                         unlift, wqr, wsvd)
from .verify import CheckResult, verify_algebra
from .matio import FORMAT, MatrixFileError, read_matrix, write_matrix

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "AlgebraSpec", "AlgMatrix", "Element",
    "SpecMismatchError", "UnsupportedOperationError",
    "rmr", "rmr_lift",
    "CliffordAlgebra", "LaurentAlgebra", "CyclicGroupAlgebra",
    "TwistedGroupAlgebra", "TensorAlgebra", "DirectSumPMAlgebra",
    "FiniteGroup", "boolean_group", "cyclic_group",
    "clifford", "laurent", "cyclic", "twisted_group", "clifford_twist",
    "tensor", "direct_sum_pm", "real_algebra", "complex_algebra",
    "quaternion_algebra", "quadquat", "biquat", "algebra_from_descriptor",
    "random_element", "random_matrix",
    "aqr", "asvd", "beta_basis", "beta_division", "beta_prime",
    "decency_check", "GivensParams", "givens_matrix",
    "apply_givens_left", "apply_shift_left", "apply_shift_right",
    "DecompReport", "DecencyResult", "ConvergenceError",
    "Representation", "rep_cl41", "rep_quadquat", "rep_biquat",
    "rep_cyclic_dft", "rep_trivial", "representation_for",
    "lift", "unlift", "wqr", "wsvd",
    "IdempotentSet", "idempotent_split", "idempotent_join",
    "laurent_embed", "laurent_unembed",
    "CheckResult", "verify_algebra",
    "FORMAT", "MatrixFileError", "read_matrix", "write_matrix",
]
