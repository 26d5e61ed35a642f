"""The three workloads: seeded inputs and fixed sets of operations.

Every workload fills the same five sets, one per timed end-to-end metric:

* ``rot_qr_s`` / ``rot_svd_s`` -- the rotation engine (``aqr`` / ``asvd``
  with ``beta="basis"``, ``norm="inf"``);
* ``rep_qr_s`` / ``rep_svd_s`` -- the representation engine (``wqr`` /
  ``wsvd``);
* ``cli_s`` -- ``algdecomp decompose`` through ``cli.main`` on matrix
  files written during set-up.

Every end-to-end metric so exists on every workload, and a change aimed at
one layer can be seen to leave the others alone.

QR inputs are Gaussian.  SVD inputs are built with a prescribed spectrum,
A = P [S; 0] W^H with P, W random unitary and S real (for Laurent
matrices P is paraunitary).  The unshifted alternating-QR SVD converges at
the ratio of neighbouring singular values, so on plain Gaussian input its
cost varies several-fold between seeds and some seeds never converge
(see ``FOUND`` in CHANGES.md); a prescribed spectrum keeps the work per
seed steady and every operation convergent.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from algdecomp import catalog, cli, jacobi, matio, wedderburn
from algdecomp.core import AlgMatrix, Element

import oracle

# round-off tolerance of the checks: max-abs errors relative to the input's
# largest singular value (README.md)
TOL = 1e-9
DELTA = 32               # modulus of the Laurent frequency route


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns its problems."""
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    sets: dict                                  # metric -> list[Op]
    specs: list = field(default_factory=list)   # finite specs to warm up


# -- inputs -------------------------------------------------------------------

def rngs(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def random_unitary(spec, m, rng) -> AlgMatrix:
    """A product of 4 m^2 plane rotations G(theta, b, i, j) with random
    angles, planes and unitary basis elements b."""
    U = AlgMatrix.identity(spec, m)
    labels = spec.labels
    for _ in range(4 * m * m):
        j, i = sorted(int(x) for x in rng.choice(m, size=2, replace=False))
        b = spec.basis_element(labels[int(rng.integers(len(labels)))])
        U = jacobi.apply_givens_left(
            U, jacobi.GivensParams(float(rng.uniform(0, 2 * math.pi)), b, i, j))
    return U


def singular_values(n: int) -> list[float]:
    """3, 1, 1/3, ...: neighbouring ratio 1/3."""
    return [3.0 ** (1 - k) for k in range(n)]


def prescribed(spec, m, n, rng) -> AlgMatrix:
    """P [S; 0] W^H over a finite algebra."""
    P = random_unitary(spec, m, rng)
    W = random_unitary(spec, n, rng)
    S = AlgMatrix.zeros(spec, m, n)
    for k, s in enumerate(singular_values(n)):
        S.entries[k][k] = spec.scalar(s)
    return P @ S @ W.herm()


def paraunitary(rng, sigma=(1.0, 0.3), m=3) -> AlgMatrix:
    """A(z) = Q0 E(v1, z) E(v2, 1/z) [S; 0] W^T over laurent(1).

    E(v, z) = I - v v^T + v v^T z is an elementary paraunitary factor, Q0
    and W are constant orthogonal and S = diag(sigma), so A has degree 1
    and the singular values ``sigma`` at every point of the unit circle.
    """
    def factor(shift):
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        P = np.outer(v, v)
        return {0: np.eye(m) - P, shift: P}

    poly = {0: np.eye(m)}
    for f in (factor(1), factor(-1)):
        out = {}
        for a, X in poly.items():
            for b, Y in f.items():
                out[a + b] = out.get(a + b, 0) + X @ Y
        poly = out
    Q0, _ = np.linalg.qr(rng.standard_normal((m, m)))
    # W turns the singular directions by at most pi/4, so the first column
    # stays the larger one.  When it is the smaller one, asvd's supports
    # grow past 1000 terms and one SVD can run for minutes (CHANGES.md,
    # FOUND); with W unrestricted that is about one input in 600.
    theta = rng.uniform(-np.pi / 4, np.pi / 4)
    c, s = np.cos(theta), np.sin(theta)
    W = np.array([[c, -s], [s, c]]) * rng.choice([-1.0, 1.0], size=2)
    S = np.zeros((m, 2))
    S[:2, :2] = np.diag(sigma)
    coeffs = {e: Q0 @ X @ S @ W.T for e, X in poly.items()}
    spec = catalog.laurent(1)
    return AlgMatrix(spec, [[Element(spec, {(e,): coeffs[e][i, j]
                                             for e in coeffs})
                             for j in range(2)] for i in range(m)])


# -- judging outputs ----------------------------------------------------------

class Judge:
    """Checks outputs through a view of the algebra built apart from it.

    ``make_rep`` builds the benchmark's own regular representation (finite
    algebras); otherwise grids are evaluated at the ``roots``-th roots of
    unity, or, when none are given, at enough of them to pin down every
    product a check forms.  The direct Laurent route drops coefficients at
    or below ``trim`` times an entry's largest one; each dropped
    coefficient moves an evaluated entry by at most that much, so the
    tolerance grows by ``2 * trim`` per dropped coefficient.
    """

    def __init__(self, tol, make_rep=None, roots=None, trim=0.0):
        self.tol, self.roots, self.trim = tol, roots, trim
        self._make_rep = make_rep

    @functools.cached_property
    def rep(self) -> oracle.RegularRep:
        return self._make_rep()

    def _arrays(self, *grids, products=()):
        if self._make_rep is not None:
            return [self.rep.lift(g) for g in grids]
        n = self.roots or oracle.faithful_roots(*grids, *products)
        return [oracle.evaluate(g, n) for g in grids]

    def qr(self, A: AlgMatrix, eps: float):
        a = functools.cache(lambda: oracle.grid_of(A))

        def check(q, r, trimmed=0):
            arrays = self._arrays(a(), q, r, products=(q,))
            return oracle.check_qr(*arrays, r, eps,
                                   self.tol + 2 * self.trim * trimmed)
        return check

    def svd(self, A: AlgMatrix, eps: float):
        a = functools.cache(lambda: oracle.grid_of(A))

        def check(u, d, v, trimmed=0):
            arrays = self._arrays(a(), u, d, v, products=(u, v))
            return oracle.check_svd(*arrays, d, eps,
                                    self.tol + 2 * self.trim * trimmed)
        return check


def engine_op(call, factors: str, check) -> Op:
    """An engine call whose report's factors (``"qr"`` or ``"udv"``) are
    handed to ``check`` as label-string grids."""
    return Op(call, lambda out: check(
        *(oracle.grid_of(getattr(out, f)) for f in factors),
        trimmed=out.trimmed))


def rot_qr(A, eps, trim=0.0):
    return lambda: jacobi.aqr(A, beta="basis", norm="inf", eps=eps, trim=trim)


def rot_svd(A, eps, trim=0.0):
    return lambda: jacobi.asvd(A, beta="basis", norm="inf", eps=eps, trim=trim)


def rep_qr(A, rep, embed=False):
    if embed:
        return lambda: wedderburn.wqr(wedderburn.laurent_embed(A, DELTA), rep,
                                      eps=0.0)
    return lambda: wedderburn.wqr(A, rep, eps=0.0)


def rep_svd(A, rep, eps, embed=False):
    if embed:
        return lambda: wedderburn.wsvd(wedderburn.laurent_embed(A, DELTA), rep,
                                       eps=eps)
    return lambda: wedderburn.wsvd(A, rep, eps=eps)


class CliCall:
    """``algdecomp decompose`` on a matrix file written at set-up."""

    def __init__(self, workdir, tag, A, op, method, eps, extra=()):
        self.prefix = f"{workdir}/{tag}"
        matio.write_matrix(f"{self.prefix}.in.json", A)
        self.argv = ["decompose", "--algebra", A.spec.descriptor, "--op", op,
                     "--method", method, "--eps", repr(eps),
                     "--input", f"{self.prefix}.in.json",
                     "--output-prefix", self.prefix, *extra]
        self.factors = "QR" if op == "qr" else "UDV"

    def __call__(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(self.argv)
        return code, sink.getvalue()


def cli_op(call: CliCall, check) -> Op:
    """Exit code 0, then the factor files read back and checked."""
    def run_check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}: {text.strip()[-300:]}"]
        return check(*(oracle.read_grid(f"{call.prefix}.{f}.json")[1]
                       for f in call.factors))
    return Op(call, run_check)


# -- the workloads ------------------------------------------------------------
#
# The counts below fix each set; they were chosen so that a set takes about
# a second or more and its cost varies little between seeds (README.md).

ROT_FLAGS = ("--beta", "basis", "--norm", "inf")


def cl41_rotation(seed: int, workdir: str) -> Workload:
    spec = catalog.clifford(4, 1)
    rep = wedderburn.rep_cl41()
    judge = Judge(TOL, make_rep=lambda: oracle.clifford_rep(4, 1))
    rq, rs = rngs(seed, 1), rngs(seed, 2)
    qr_in = [catalog.random_matrix(spec, 3, 2, rq) for _ in range(80)]
    svd_in = [prescribed(spec, 3, 2, rs) for _ in range(6)]
    cli = [(CliCall(workdir, f"qr{k}", A, "qr", "jacobi", 1e-10, ROT_FLAGS), A)
           for k, A in enumerate(qr_in[:6])]
    return Workload(specs=[spec], sets={
        "rot_qr_s": [engine_op(rot_qr(A, 1e-10), "qr", judge.qr(A, 1e-10))
                     for A in qr_in[:12]],
        "rot_svd_s": [engine_op(rot_svd(A, 1e-6), "udv", judge.svd(A, 1e-6))
                      for A in svd_in[:6]],
        "rep_qr_s": [engine_op(rep_qr(A, rep), "qr", judge.qr(A, 0.0))
                     for A in qr_in],
        "rep_svd_s": [engine_op(rep_svd(A, rep, 1e-10), "udv",
                                judge.svd(A, 1e-10)) for A in svd_in],
        "cli_s": [cli_op(call, judge.qr(A, 1e-10)) for call, A in cli],
    })


REP_QR_SHAPES = ((3, 2), (4, 3), (5, 3), (6, 4))
REP_SVD_SHAPES = ((3, 2), (4, 3))
# rotation-engine QRs and SVDs on the small catalog algebras, by dimension:
# quadquat (16) and biquat (8).  One 3x2 QR's or SVD's cost varies by
# 15-25 % between inputs, so the sets are large enough to keep their time
# steady between seeds.
ROT_COUNTS = {16: (16, 14), 8: (24, 10)}


def rep_blocks(seed: int, workdir: str) -> Workload:
    catalog_reps = [
        (wedderburn.rep_cl41(), lambda: oracle.clifford_rep(4, 1)),
        (wedderburn.rep_quadquat(), oracle.quadquat_rep),
        (wedderburn.rep_biquat(), oracle.biquat_rep),
        (wedderburn.rep_cyclic_dft(2, 8), lambda: oracle.cyclic_rep(2, 8)),
    ]
    sets = {k: [] for k in ("rot_qr_s", "rot_svd_s", "rep_qr_s", "rep_svd_s",
                            "cli_s")}
    for t, (rep, orc) in enumerate(catalog_reps):
        spec, judge = rep.source, Judge(TOL, make_rep=orc)
        rq, rs = rngs(seed, 10 + t), rngs(seed, 20 + t)
        qr_in = [catalog.random_matrix(spec, m, n, rq)
                 for m, n in REP_QR_SHAPES * 2]
        svd_in = [prescribed(spec, m, n, rs) for m, n in REP_SVD_SHAPES]
        sets["rep_qr_s"] += [engine_op(rep_qr(A, rep), "qr", judge.qr(A, 0.0))
                             for A in qr_in]
        sets["rep_svd_s"] += [engine_op(rep_svd(A, rep, 1e-10), "udv",
                                        judge.svd(A, 1e-10)) for A in svd_in]
        cli = [("qr", qr_in[0], 0.0)]
        if spec.dim <= 32:
            cli.append(("svd", svd_in[0], 1e-10))
        for op, A, eps in cli:
            call = CliCall(workdir, f"{op}{t}", A, op, "wedderburn", eps)
            sets["cli_s"].append(cli_op(call, getattr(judge, op)(A, eps)))
        if spec.dim in ROT_COUNTS:
            # the rotation engine on the small catalog algebras
            n_qr, n_svd = ROT_COUNTS[spec.dim]
            for A in [catalog.random_matrix(spec, 3, 2, rq)
                      for _ in range(n_qr)]:
                sets["rot_qr_s"].append(engine_op(
                    rot_qr(A, 1e-10), "qr", judge.qr(A, 1e-10)))
            for A in [prescribed(spec, 3, 2, rs) for _ in range(n_svd)]:
                sets["rot_svd_s"].append(engine_op(
                    rot_svd(A, 1e-6), "udv", judge.svd(A, 1e-6)))
    specs = [rep.source for rep, _ in catalog_reps]
    return Workload(specs=specs, sets=sets)


LAURENT_EPS = 1e-3
LAURENT_TRIM = 1e-6
FREQ_EPS = 1e-10


def laurent_paraunitary(seed: int, workdir: str) -> Workload:
    rep = wedderburn.rep_cyclic_dft(1, DELTA)
    ra = rngs(seed, 3)
    inputs = [paraunitary(ra) for _ in range(200)]
    eps, trim = LAURENT_EPS, LAURENT_TRIM
    direct = Judge(TOL, trim=trim)
    freq = Judge(TOL, roots=DELTA)
    flags = ("--delta", str(DELTA))
    cli = []
    for k, A in enumerate(inputs[:2]):
        cli += [cli_op(CliCall(workdir, f"qr{k}", A, "qr", "wedderburn", 0.0,
                               flags), freq.qr(A, 0.0)),
                cli_op(CliCall(workdir, f"svd{k}", A, "svd", "wedderburn",
                               FREQ_EPS, flags), freq.svd(A, FREQ_EPS))]
    return Workload(specs=[rep.source], sets={
        "rot_qr_s": [engine_op(rot_qr(A, eps, trim), "qr", direct.qr(A, eps))
                     for A in inputs],
        "rot_svd_s": [engine_op(rot_svd(A, eps, trim), "udv",
                                direct.svd(A, eps)) for A in inputs],
        "rep_qr_s": [engine_op(rep_qr(A, rep, embed=True), "qr",
                               freq.qr(A, 0.0)) for A in inputs[:30]],
        "rep_svd_s": [engine_op(rep_svd(A, rep, FREQ_EPS, embed=True), "udv",
                                freq.svd(A, FREQ_EPS)) for A in inputs[:6]],
        "cli_s": cli,
    })


WORKLOADS = {
    "cl41-rotation": cl41_rotation,
    "rep-blocks": rep_blocks,
    "laurent-paraunitary": laurent_paraunitary,
}
