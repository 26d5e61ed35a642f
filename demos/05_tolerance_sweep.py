#!/usr/bin/env python3
"""Work versus tolerance: where each engine wins.

The rotation engine's work grows as the tolerance shrinks.  The
representation engine's is flat in the tolerance: cl(4,1) lifts to one
complex block, which numpy's LAPACK factors exactly (Householder QR, R
exactly upper triangular) with no rotation at all, so its report counts 0
rotations and its time does not move with eps.

The same table, rotation counts only, is available from the command line:

    algdecomp sweep-eps --algebra "cl(4,1)" --op qr --random 3 2 --seed 7 \
        --eps-list 1e-2,1e-4,1e-6,1e-8,1e-10 --output sweep.csv
"""

import numpy as np

from algdecomp import aqr, clifford, random_matrix, rep_cl41, wqr

spec = clifford(4, 1)
A = random_matrix(spec, 3, 2, np.random.default_rng(7))
rep = rep_cl41()

print(f"{'eps':>8} {'rotation-engine':>16} {'ms':>7} "
      f"{'block-engine':>13} {'ms':>7}")
for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
    jac = aqr(A, beta="basis", norm="inf", eps=eps)
    wed = wqr(A, rep, eps=eps)
    print(f"{eps:8.0e} {jac.rotations:16d} {1e3 * jac.wall_time:7.1f} "
          f"{wed.rotations:13d} {1e3 * wed.wall_time:7.2f}")

print("\nblock QR is tolerance-independent (exact, by LAPACK); the")
print("rotation engine pays roughly linearly in the number of digits.")
