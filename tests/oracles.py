"""Independent reference implementations used as test oracles.

These deliberately use different algorithms from the package: blade
products are computed by explicitly bubble-sorting generator sequences,
real parts via the trace of the regular representation, spectra via
numpy's SVD of the real matrix representation.
"""

from __future__ import annotations

import numpy as np

from algdecomp import AlgMatrix, rmr, rmr_lift


def blade_mul_oracle(p: int, q: int, blade_a, blade_b):
    """Product of two blades given as ascending tuples of 1-based generator
    indices.  Returns (sign, ascending tuple)."""
    seq = list(blade_a) + list(blade_b)
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
                if seq[i] > p:  # generator squaring to -1
                    sign = -sign
                del seq[i:i + 2]
                changed = True
            else:
                i += 1
    return sign, tuple(seq)


def mask_to_blade(mask: int):
    """Bitmask label -> ascending tuple of 1-based generator indices."""
    return tuple(t + 1 for t in range(mask.bit_length()) if mask >> t & 1)


def blade_to_mask(blade) -> int:
    mask = 0
    for t in blade:
        mask |= 1 << (t - 1)
    return mask


def trace_re_oracle(a) -> float:
    """Real part as the normalised trace of the regular representation."""
    return float(np.trace(rmr(a))) / a.spec.dim


def spectrum_oracle(X: AlgMatrix) -> np.ndarray:
    """Singular values of the real matrix representation, descending."""
    return np.sort(np.linalg.svd(rmr_lift(X), compute_uv=False))[::-1]


def complex_ndarray(B: AlgMatrix) -> np.ndarray:
    """An AlgMatrix over the complex algebra as a numpy complex array."""
    return np.array([[complex(e.coeffs.get(0, 0.0), e.coeffs.get(1, 0.0))
                      for e in row] for row in B.entries])


def real_ndarray(B: AlgMatrix) -> np.ndarray:
    return np.array([[e.coeffs.get(0, 0.0) for e in row] for row in B.entries])


def eval_laurent(A: AlgMatrix, z: complex) -> np.ndarray:
    """Evaluate a one-variable Laurent matrix at a point z != 0."""
    return np.array([[sum(c * z ** lab[0] for lab, c in e.coeffs.items())
                      for e in row] for row in A.entries])


def quat_matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Product of quaternion matrices stored as (n, k, 4) and (k, m, 4)
    arrays, components (1, i, j, k), by the Hamilton product formulae."""
    a1, b1, c1, d1 = (X[:, :, None, t] for t in range(4))
    a2, b2, c2, d2 = (Y[None, :, :, t] for t in range(4))
    out = np.stack([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                    a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                    a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                    a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2], axis=-1)
    return out.sum(axis=1)
