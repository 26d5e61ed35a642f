"""Batch command-line front end.

Subcommands:

* ``decompose`` -- run one QR or SVD on a matrix loaded from a file or
  generated with seeded Gaussian coefficients; writes the factors as JSON
  matrix files and prints a summary.
* ``sweep-eps`` -- rotation counts and wall times versus tolerance for
  one or both engines, emitted as CSV.  Only the wall time compares the
  engines: R and C blocks of the representation route run LAPACK and
  count no rotation.
* ``verify`` -- run the invariant suites for an algebra (and its cataloged
  representation, when one exists).

Exit codes: 0 success, 2 bad usage (argparse), 3 malformed or unreadable
input file, 4 algebra/spec errors, 5 convergence failure, 6 residual
contract violation, 7 unwritable output (a missing directory is found
before the computation), 1 verification failure.

Random matrices are reproducible: coefficients come from numpy's
``default_rng`` (PCG64) as standard normal draws, entry by entry in
row-major order, basis labels in canonical order.
"""

from __future__ import annotations

import argparse
import csv
import errno
import os
import sys
from dataclasses import dataclass

import numpy as np

from .core import AlgebraError, AlgMatrix, _exponent
from .catalog import (LaurentAlgebra, algebra_from_descriptor, random_matrix)
from .jacobi import ConvergenceError, aqr, asvd
from .matio import MatrixFileError, read_matrix, write_matrix
from .verify import verify_algebra
from .wedderburn import (UnsupportedOperationError, diagonal_support_labels,
                         laurent_embed, representation_for, wqr, wsvd)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_SPEC = 4
EXIT_CONVERGENCE = 5
EXIT_RESIDUAL = 6
EXIT_OUTPUT = 7


def _check_folder(path: str):
    # the error that writing to a missing directory would raise, made early
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, "no such directory", folder)


def _load_or_generate(args):
    spec = algebra_from_descriptor(args.algebra)
    if args.input:
        A = read_matrix(args.input)
        if A.spec != spec:
            raise AlgebraError(
                f"file algebra {A.spec.descriptor} does not match --algebra "
                f"{spec.descriptor}")
        return A
    if args.random:
        m, n = args.random
        rng = np.random.default_rng(args.seed)
        try:
            return random_matrix(spec, m, n, rng, degree=args.degree)
        except MemoryError as exc:
            raise AlgebraError(f"a random {m}x{n} matrix over "
                               f"{spec.descriptor} does not fit in memory") from exc
    raise AlgebraError("provide --input FILE or --random M N")


def _run_engine(args, A: AlgMatrix):
    """Returns (report, matrix_in_engine_domain).

    Laurent matrices take the representation route through the cyclic
    embedding; the factors stay in the cyclic algebra, where the
    reconstruction identity holds exactly (relabelling exponents back to
    the integers would break products that wrap around the modulus).
    """
    if args.method == "jacobi":
        if args.op == "qr":
            return aqr(A, beta=args.beta, norm=args.norm, eps=args.eps,
                       max_sweeps=args.max_sweeps, trim=args.trim), A
        return asvd(A, beta=args.beta, norm=args.norm, eps=args.eps,
                    max_iters=args.max_iters, max_sweeps=args.max_sweeps,
                    trim=args.trim), A

    if isinstance(A.spec, LaurentAlgebra):
        if not args.delta:
            raise AlgebraError("the wedderburn route over laurent(k) needs --delta")
        A = laurent_embed(A, args.delta)
    rep = representation_for(A.spec)
    return (wqr if args.op == "qr" else wsvd)(A, rep, eps=args.eps), A


@dataclass
class Contract:
    """Frobenius errors of a report's factors against its input, and the
    reconstruction error over max(||A||_F, 1e-300), both norms taken on
    arrays scaled by one power of two: finite whenever A and the error
    are."""
    reconstruction_error: float
    unitarity_error: float
    relative: float

    @property
    def violated(self) -> bool:
        # a NaN error fails the comparison and so counts as a violation
        return not (self.relative <= 1e-6)


def check_contract(report, A: AlgMatrix) -> Contract:
    """Reconstruction error of Q R or U D V^H, and the worst unitarity
    error over the unitary factors (Q, or both U and V)."""
    if report.kind == "qr":
        recon = report.q @ report.r
        unitary = (report.q,)
    else:
        recon = report.u @ report.d @ report.v.herm()
        unitary = (report.u, report.v)
    # np.max, unlike max, keeps a NaN wherever it occurs
    unit = float(np.max([X.unitarity_error() for X in unitary]))
    lay = A.spec.layout(A, recon)
    a = A._array(lay)
    t = 2.0 ** -_exponent(a)
    with np.errstate(over="ignore"):  # a wild factor gives inf
        error = float(np.linalg.norm(recon._array(lay) * t - a * t))
    norm = float(np.linalg.norm(a * t))
    return Contract(error / t, unit, error / max(norm, 1e-300 * t))


def cmd_decompose(args) -> int:
    A0 = _load_or_generate(args)
    _check_folder(args.output_prefix)
    report, A = _run_engine(args, A0)
    if A.spec != A0.spec:
        print(f"note: {A0.spec.descriptor} input embedded into "
              f"{A.spec.descriptor} for the representation route")

    prefix = args.output_prefix
    write_matrix(f"{prefix}.A.json", A)
    names = (("q", "Q"), ("r", "R")) if args.op == "qr" else \
        (("u", "U"), ("d", "D"), ("v", "V"))
    for attr, tag in names:
        write_matrix(f"{prefix}.{tag}.json", getattr(report, attr))

    c = check_contract(report, A)

    print(report.summary())
    print(f"reconstruction_error={c.reconstruction_error:.6e} "
          f"(relative {c.relative:.6e})")
    print(f"unitarity_error={c.unitarity_error:.6e}")
    if args.method == "wedderburn":
        mid = report.r if args.op == "qr" else report.d
        labels = diagonal_support_labels(mid)
        print(f"diagonal_support={len(labels)} of {A.spec.dim} basis labels")
    print(f"factors written to {prefix}.*.json")
    if c.violated:
        print("error: reconstruction residual violates the contract",
              file=sys.stderr)
        return EXIT_RESIDUAL
    return EXIT_OK


def cmd_sweep_eps(args) -> int:
    A = _load_or_generate(args)
    if args.output:
        _check_folder(args.output)
    rows = []
    for eps in args.eps_list:
        for method in args.methods:
            run = argparse.Namespace(**{**vars(args), "eps": eps,
                                        "method": method})
            report, B = _run_engine(run, A)
            contract = check_contract(report, B)
            rows.append({
                "epsilon": eps,
                "method": method,
                "rotations": report.rotations,
                "sweeps": report.sweeps,
                "qrd_calls": report.qrd_calls,
                "wall_time_s": report.wall_time,
                "reconstruction_error": contract.reconstruction_error,
                "unitarity_error": contract.unitarity_error,
            })

    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = algebra_from_descriptor(args.algebra)
    rng = np.random.default_rng(args.seed)
    results = verify_algebra(spec, rng, trials=args.trials)
    ok = all(r.passed for r in results)
    print(f"algebra {spec.descriptor}:")
    for r in results:
        print(f"  {r}")
    try:
        rep = representation_for(spec)
    except UnsupportedOperationError:
        print("  representation          none cataloged")
    else:
        print(f"  representation          pass  {rep.verification}")
    print("all checks passed" if ok else "FAILURES detected")
    return EXIT_OK if ok else EXIT_VERIFY


def _checked(parse, ok, expected: str):
    """An argparse type: parse(text) if that passes ``ok``, else a usage
    error (exit 2) naming what was expected."""
    def check(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return check


_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--algebra", required=True,
                   help="cl(p,q) | laurent(k) | cyclic(k,delta) | quat | "
                        "complex | real | quadquat | biquat")
    p.add_argument("--op", choices=("qr", "svd"), default="qr")
    p.add_argument("--method", choices=("jacobi", "wedderburn"),
                   default="jacobi")
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--norm", choices=("inf", "two", "auto"), default="auto")
    p.add_argument("--beta", choices=("basis", "division", "auto"),
                   default="auto")
    p.add_argument("--max-sweeps", type=int, default=200,
                   help="QR sweep limit of the jacobi engine")
    p.add_argument("--max-iters", type=int, default=500,
                   help="QR-call limit of the jacobi SVD")
    p.add_argument("--trim", type=float, default=0.0,
                   help="drop coefficients at or below TRIM * (entry max) "
                        "after each rotation; 0 <= TRIM < 1")
    p.add_argument("--seed", default=0, type=_NON_NEGATIVE)
    p.add_argument("--delta", type=int, default=0,
                   help="cyclic modulus for the wedderburn route over laurent(k)")
    p.add_argument("--degree", default=2, type=_NON_NEGATIVE,
                   help="random Laurent exponent window")
    p.add_argument("--input", help="matrix JSON file")
    p.add_argument("--random", nargs=2, type=int, metavar=("M", "N"),
                   help="generate a seeded Gaussian M x N matrix")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="algdecomp",
        description="QR/SVD of matrices over real *-algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run one decomposition")
    _add_common(p)
    p.add_argument("--output-prefix", default="decomp")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "sweep-eps", help="rotation counts and wall time (wall_time_s, the "
        "column that compares the engines) vs tolerance (CSV)")
    _add_common(p)
    p.add_argument("--eps-list", required=True, type=_checked(
        lambda t: [float(x) for x in t.split(",")], bool, "numbers"),
        help="comma-separated tolerances")
    p.add_argument("--methods", default="jacobi,wedderburn", type=_checked(
        lambda t: t.split(","), {"jacobi", "wedderburn"}.issuperset,
        "jacobi and/or wedderburn"))
    p.add_argument("--output", help="CSV path (stdout if omitted)")
    p.set_defaults(func=cmd_sweep_eps)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("algebra")
    p.add_argument("--seed", default=0, type=_NON_NEGATIVE)
    p.add_argument("--trials", default=100, type=_checked(
        int, lambda t: t >= 1, "a positive integer"))
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_FILE if isinstance(exc, MatrixFileError) else
                EXIT_CONVERGENCE if isinstance(exc, ConvergenceError) else
                EXIT_SPEC)
    except OSError as exc:  # read_matrix raises MatrixFileError instead
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
