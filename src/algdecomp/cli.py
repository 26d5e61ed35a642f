"""Batch command-line front end.

Subcommands:

* ``decompose`` -- run one QR or SVD on a matrix loaded from a file or
  generated with seeded Gaussian coefficients; writes the factors as JSON
  matrix files and prints a summary.
* ``sweep-eps`` -- rotation counts versus tolerance for one or both
  engines, emitted as CSV.
* ``verify`` -- run the invariant suites for an algebra (and its cataloged
  representation, when one exists).

Exit codes: 0 success, 2 bad usage (argparse), 3 malformed input file,
4 algebra/spec errors, 5 convergence failure, 6 residual contract
violation, 1 verification failure.

Random matrices are reproducible: coefficients come from numpy's
``default_rng`` (PCG64) as standard normal draws, entry by entry in
row-major order, basis labels in canonical order.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

import numpy as np

from .core import AlgebraError, AlgMatrix
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


@dataclass
class RunConfig:
    algebra: str
    op: str = "qr"               # qr | svd
    method: str = "jacobi"       # jacobi | wedderburn
    eps: float = 1e-10
    norm: str = "auto"           # inf | two | auto
    beta: str = "auto"           # basis | division | auto
    max_sweeps: int = 200
    max_iters: int = 500
    trim: float = 0.0
    seed: int = 0
    delta: int = 0               # DFT modulus for the Laurent route
    degree: int = 2              # random Laurent exponent window


def _load_or_generate(cfg: RunConfig, args):
    spec = algebra_from_descriptor(cfg.algebra)
    if args.input:
        A = read_matrix(args.input)
        if A.spec != spec:
            raise AlgebraError(
                f"file algebra {A.spec.descriptor} does not match --algebra "
                f"{spec.descriptor}")
        return A
    if args.random:
        m, n = args.random
        rng = np.random.default_rng(cfg.seed)
        return random_matrix(spec, m, n, rng, degree=cfg.degree)
    raise AlgebraError("provide --input FILE or --random M N")


def _run_engine(cfg: RunConfig, A: AlgMatrix):
    """Returns (report, representation_or_None, matrix_in_engine_domain).

    Laurent matrices take the representation route through the cyclic
    embedding; the factors stay in the cyclic algebra, where the
    reconstruction identity holds exactly (relabelling exponents back to
    the integers would break products that wrap around the modulus).
    """
    if cfg.method == "jacobi":
        if cfg.op == "qr":
            return aqr(A, beta=cfg.beta, norm=cfg.norm, eps=cfg.eps,
                       max_sweeps=cfg.max_sweeps, trim=cfg.trim), None, A
        return asvd(A, beta=cfg.beta, norm=cfg.norm, eps=cfg.eps,
                    max_iters=cfg.max_iters, max_sweeps=cfg.max_sweeps,
                    trim=cfg.trim), None, A

    if isinstance(A.spec, LaurentAlgebra):
        if not cfg.delta:
            raise AlgebraError("the wedderburn route over laurent(k) needs --delta")
        A = laurent_embed(A, cfg.delta)
    rep = representation_for(A.spec)
    if cfg.op == "qr":
        report = wqr(A, rep, eps=cfg.eps, max_sweeps=cfg.max_sweeps)
    else:
        report = wsvd(A, rep, eps=cfg.eps, max_iters=cfg.max_iters,
                      max_sweeps=cfg.max_sweeps)
    return report, rep, A


def _normalized_cost(report, rep) -> float:
    """Rotation count in source-algebra rotation units.

    A rotation over a block field costs dim(field)/dim(source) of a source
    rotation, so the representation route's count is scaled down by that
    ratio per block.
    """
    if rep is None:
        return float(report.rotations)
    d = rep.source.dim
    return sum(r * fd / d for r, fd in zip(report.block_rotations,
                                           rep.field_dims()))


@dataclass
class Contract:
    """Frobenius errors of a report's factors against its input."""
    reconstruction_error: float
    unitarity_error: float
    scale: float

    @property
    def violated(self) -> bool:
        # a NaN error fails the comparison and so counts as a violation
        return not (self.reconstruction_error <= 1e-6 * self.scale)


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
    unit = float(np.max([
        (X.herm() @ X - AlgMatrix.identity(X.spec, X.m)).frob()
        for X in unitary]))
    return Contract((recon - A).frob(), unit, max(A.frob(), 1e-300))


def cmd_decompose(args) -> int:
    cfg = args.config
    A0 = _load_or_generate(cfg, args)
    report, rep, A = _run_engine(cfg, A0)
    if A.spec != A0.spec:
        print(f"note: {A0.spec.descriptor} input embedded into "
              f"{A.spec.descriptor} for the representation route")

    prefix = args.output_prefix
    write_matrix(f"{prefix}.A.json", A)
    names = (("q", "Q"), ("r", "R")) if cfg.op == "qr" else \
        (("u", "U"), ("d", "D"), ("v", "V"))
    for attr, tag in names:
        write_matrix(f"{prefix}.{tag}.json", getattr(report, attr))

    c = check_contract(report, A)

    print(report.summary())
    print(f"reconstruction_error={c.reconstruction_error:.6e} "
          f"(relative {c.reconstruction_error / c.scale:.6e})")
    print(f"unitarity_error={c.unitarity_error:.6e}")
    if cfg.method == "wedderburn":
        mid = report.r if cfg.op == "qr" else report.d
        labels = diagonal_support_labels(mid)
        print(f"diagonal_support={len(labels)} of {A.spec.dim} basis labels")
    print(f"factors written to {prefix}.*.json")
    if c.violated:
        print("error: reconstruction residual violates the contract",
              file=sys.stderr)
        return EXIT_RESIDUAL
    return EXIT_OK


def cmd_sweep_eps(args) -> int:
    cfg = args.config
    A = _load_or_generate(cfg, args)
    eps_list = [float(x) for x in args.eps_list.split(",")]
    methods = args.methods.split(",")

    rows = []
    for eps in eps_list:
        for method in methods:
            c = RunConfig(**{**cfg.__dict__, "eps": eps, "method": method})
            report, rep, B = _run_engine(c, A)
            contract = check_contract(report, B)
            rows.append({
                "epsilon": eps,
                "method": method,
                "rotations": report.rotations,
                "sweeps": report.sweeps,
                "qrd_calls": report.qrd_calls,
                "normalized_cost": _normalized_cost(report, rep),
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
    p.add_argument("--max-sweeps", type=int, default=200)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--trim", type=float, default=0.0,
                   help="drop coefficients below TRIM * (entry max) after "
                        "each rotation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=int, default=0,
                   help="cyclic modulus for the wedderburn route over laurent(k)")
    p.add_argument("--degree", type=int, default=2,
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

    p = sub.add_parser("sweep-eps", help="rotation counts vs tolerance (CSV)")
    _add_common(p)
    p.add_argument("--eps-list", required=True,
                   help="comma-separated tolerances")
    p.add_argument("--methods", default="jacobi,wedderburn")
    p.add_argument("--output", help="CSV path (stdout if omitted)")
    p.set_defaults(func=cmd_sweep_eps)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("algebra")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "algebra") and args.command != "verify":
        args.config = RunConfig(
            algebra=args.algebra, op=args.op, method=args.method,
            eps=args.eps, norm=args.norm, beta=args.beta,
            max_sweeps=args.max_sweeps, max_iters=args.max_iters,
            trim=args.trim, seed=args.seed, delta=args.delta,
            degree=args.degree)
    try:
        return args.func(args)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
