#!/usr/bin/env python3
"""The frequency route: Laurent SVD through the cyclic group algebra.

For large enough even delta, computations in R[z, z^-1] embed losslessly
into the group algebra of Z/delta, which the discrete Fourier transform
splits into scalar blocks: a real block at each self-conjugate frequency
(0 and delta/2) and one complex block per conjugate pair.  An SVD is then
one tiny real or complex SVD per frequency, which numpy's LAPACK computes
(so the report counts no rotation).

The block diagonal must match evaluating the original matrix at the
corresponding unit-circle point and taking an ordinary complex SVD.
"""

import numpy as np

from algdecomp import (laurent, laurent_embed, lift, random_matrix,
                       rep_cyclic_dft, wsvd)

delta = 16
L = laurent(1)
A = random_matrix(L, 2, 2, np.random.default_rng(3), degree=1)

rep = rep_cyclic_dft(1, delta)
tags = [tag for tag, _ in rep.blocks]
print(f"delta = {delta}: {tags.count('R')} real + {tags.count('C')} complex "
      f"frequency blocks")

idem = rep.idempotents()
print(f"central idempotents: {len(idem.elements)}, "
      f"law residual {idem.residual():.1e}")

out = wsvd(laurent_embed(A, delta), rep, eps=1e-12)
print(f"{out.rotations} rotations across blocks, residual {out.residual:.1e}\n")

print("freq  block  singular values        evaluation oracle")
blocks = lift(out.d, rep)
for (tag, _), f, B in zip(rep.blocks, rep.frequencies, blocks):
    got = [abs(complex(B[t, t].coeffs.get(0, 0.0), B[t, t].coeffs.get(1, 0.0)))
           for t in range(2)]
    z = np.exp(-2j * np.pi * f[0] / delta)
    M = np.array([[sum(c * z ** lab[0] for lab, c in A[i, j].coeffs.items())
                   for j in range(2)] for i in range(2)])
    oracle = np.sort(np.linalg.svd(M, compute_uv=False))[::-1]
    print(f"  {f[0]:2d}    {tag}    {np.round(got, 6)}  {np.round(oracle, 6)}")
