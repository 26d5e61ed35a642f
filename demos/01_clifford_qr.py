#!/usr/bin/env python3
"""QR decomposition in the conformal geometric algebra cl(4,1), two ways.

The 32-dimensional algebra cl(4,1) has four generators squaring to +1 and
one squaring to -1.  We draw a 3x2 matrix with standard Gaussian
coefficients on every blade and factor it A = Q R:

 1. directly in the algebra with the rotation engine (sup norm, dominant-
    blade shifts), which drives every below-diagonal entry under a
    tolerance;
 2. through the verified isomorphism cl(4,1) ~ C^(4x4): the matrix lifts
    to a single 12x8 complex block, which numpy's LAPACK factors by
    Householder QR with no rotation at all: its R is *exactly* upper
    triangular, with a real non-negative diagonal.
"""

import numpy as np

from algdecomp import AlgMatrix, aqr, clifford, random_matrix, rep_cl41, wqr

spec = clifford(4, 1)
A = random_matrix(spec, 3, 2, np.random.default_rng(7))
print(f"A is {A.m}x{A.n} over {spec.descriptor} (dim {spec.dim})")
print(f"||A||_F = {A.frob():.6f}\n")

# --- route 1: rotations in the algebra itself -------------------------------
rep = aqr(A, beta="basis", norm="inf", eps=1e-10)
recon = (rep.q @ rep.r - A).frob()
unit = (rep.q.herm() @ rep.q - AlgMatrix.identity(spec, 3)).frob()
print("rotation engine:")
print(f"  {rep.rotations} rotations, {rep.sweeps} sweeps")
print(f"  below-diagonal residual {rep.residual:.2e}")
print(f"  ||A - QR||_F = {recon:.2e},  ||Q^H Q - I||_F = {unit:.2e}\n")

# --- route 2: one complex block ----------------------------------------------
wed = wqr(A, rep_cl41(), eps=0.0)
recon = (wed.q @ wed.r - A).frob()
print("representation engine (C^(4x4) block):")
print(f"  {wed.rotations} rotations (LAPACK), exact triangularisation")
print(f"  ||A - QR||_F = {recon:.2e}")

# The diagonal of R from route 2 lies in a small subalgebra: its lifted
# blocks must be upper triangular with real diagonal.
print("\ndiagonal entries of R (representation route):")
for k in range(2):
    e = wed.r[k, k]
    print(f"  R[{k},{k}] support {e.support:2d} coefficients, "
          f"Re = {e.re():.6f}")
