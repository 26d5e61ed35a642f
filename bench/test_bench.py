"""Tests of the benchmark's own checks and span arithmetic.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from algdecomp import (AlgMatrix, Element, aqr, asvd, biquat, clifford,
                       cyclic, laurent, laurent_embed, quadquat,
                       random_element, random_matrix, rep_biquat,
                       rep_cyclic_dft, wqr, wsvd, write_matrix)

import hostspeed
import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


# -- independent representations ----------------------------------------------

def test_blade_product_by_bubble_sort():
    # cl(4,1): g1..g4 square to +1, g5 to -1; distinct generators anticommute
    assert oracle.blade_product(4, (1,), (1,)) == (1, ())
    assert oracle.blade_product(4, (5,), (5,)) == (-1, ())
    assert oracle.blade_product(4, (2,), (1,)) == (-1, (1, 2))
    assert oracle.blade_product(4, (1, 2), (1, 2)) == (-1, ())
    assert oracle.blade_product(4, (1, 5), (1, 5)) == (1, ())


@pytest.mark.parametrize("spec, make", [
    (clifford(4, 1), lambda: oracle.clifford_rep(4, 1)),
    (quadquat(), oracle.quadquat_rep),
    (biquat(), oracle.biquat_rep),
    (cyclic(2, 8), lambda: oracle.cyclic_rep(2, 8)),
])
def test_regular_rep_is_multiplicative_and_matches_the_algebra(spec, make):
    rep = make()
    rng = np.random.default_rng(0)
    a, b = random_element(spec, rng), random_element(spec, rng)
    la, lb = (rep.lift(oracle.grid_of(AlgMatrix(spec, [[x]]))) for x in (a, b))
    lab = rep.lift(oracle.grid_of(AlgMatrix(spec, [[a * b]])))
    assert np.abs(la @ lb - lab).max() <= 1e-12
    # the involution is the transpose
    lc = rep.lift(oracle.grid_of(AlgMatrix(spec, [[a.conj()]])))
    assert np.abs(la.T - lc).max() <= 1e-14


# -- the checks catch wrong output --------------------------------------------

def _perturb(X: AlgMatrix, i, j, delta=1e-3) -> AlgMatrix:
    Y = X.copy()
    Y[i, j] = Y[i, j] + X.spec.scalar(delta)
    return Y


def test_finite_qr_check_passes_and_catches_faults():
    spec = clifford(4, 1)
    judge = workloads.Judge(1e-9, make_rep=lambda: oracle.clifford_rep(4, 1))
    A = random_matrix(spec, 3, 2, np.random.default_rng(1))
    out = aqr(A, beta="basis", norm="inf", eps=1e-10)
    check = judge.qr(A, 1e-10)
    g = oracle.grid_of
    q, r = g(out.q), g(out.r)
    assert check(q, r) == []
    bad_q = check(g(_perturb(out.q, 0, 1)), r)
    assert any("unitarity" in p for p in bad_q)
    bad_r = check(q, g(_perturb(out.r, 2, 1)))
    assert any("below-diagonal" in p for p in bad_r)
    assert any("reconstruction" in p for p in bad_r)
    nan_r = g(out.r)
    nan_r[0][0] = {"1": float("nan")}
    assert check(q, nan_r)


def test_exact_qr_is_held_to_round_off():
    spec = biquat()
    judge = workloads.Judge(1e-9, make_rep=oracle.biquat_rep)
    A = random_matrix(spec, 4, 3, np.random.default_rng(8))
    out = wqr(A, rep_biquat(), eps=0.0)
    check = judge.qr(A, 0.0)
    assert check(oracle.grid_of(out.q), oracle.grid_of(out.r)) == []
    bad = check(oracle.grid_of(out.q), oracle.grid_of(_perturb(out.r, 3, 0, 1e-8)))
    assert any("below-diagonal" in p for p in bad)


def test_finite_svd_check_compares_spectra():
    spec = quadquat()
    judge = workloads.Judge(1e-9, make_rep=oracle.quadquat_rep)
    A = workloads.prescribed(spec, 3, 2, np.random.default_rng(2))
    out = asvd(A, beta="basis", norm="inf", eps=1e-6)
    check = judge.svd(A, 1e-6)
    g = oracle.grid_of
    u, d, v = g(out.u), g(out.d), g(out.v)
    assert check(u, d, v) == []
    scaled = g(AlgMatrix(spec, [[e * 1.01 for e in row]
                                for row in out.d.entries]))
    assert any("singular values" in p for p in check(u, scaled, v))


def test_prescribed_inputs_have_the_prescribed_spectrum():
    spec = biquat()
    rep = oracle.biquat_rep()
    A = workloads.prescribed(spec, 4, 3, np.random.default_rng(3))
    s = np.linalg.svd(rep.lift(oracle.grid_of(A)), compute_uv=False)
    want = np.repeat(workloads.singular_values(3), spec.dim)
    assert np.allclose(np.sort(s), np.sort(want), atol=1e-12)


def test_paraunitary_inputs_have_constant_singular_values():
    A = workloads.paraunitary(np.random.default_rng(4), sigma=(1.0, 0.3))
    vals = oracle.evaluate(oracle.grid_of(A), 16)
    s = np.linalg.svd(vals, compute_uv=False)
    assert np.allclose(s, [1.0, 0.3], atol=1e-12)


def test_circle_checks_on_both_laurent_routes():
    A = workloads.paraunitary(np.random.default_rng(5))
    out = asvd(A, beta="basis", norm="inf", eps=1e-3, trim=1e-6)
    g = oracle.grid_of
    u, d, v = g(out.u), g(out.d), g(out.v)
    direct = workloads.Judge(1e-9, trim=1e-6).svd(A, 1e-3)
    assert direct(u, d, v, trimmed=out.trimmed) == []
    flipped = [[{s: -c for s, c in e.items()} for e in row] for row in v]
    assert direct(u, d, flipped, trimmed=out.trimmed)

    rep = rep_cyclic_dft(1, 32)
    out = wsvd(laurent_embed(A, 32), rep, eps=1e-10)
    freq = workloads.Judge(1e-9, roots=32)
    assert freq.svd(A, 1e-10)(g(out.u), g(out.d), g(out.v)) == []


def test_evaluation_at_roots_of_unity():
    spec = laurent(1)
    e = Element(spec, {(-3,): 0.5, (0,): -2.0, (4,): 1e-3})
    grid = oracle.grid_of(AlgMatrix(spec, [[e]]))
    n = oracle.faithful_roots(grid)
    assert n >= 8
    z = np.exp(2j * np.pi * np.arange(n) / n)
    direct = 0.5 * z ** -3 - 2.0 + 1e-3 * z ** 4
    assert np.allclose(oracle.evaluate(grid, n)[:, 0, 0], direct)


def test_read_grid_matches_grid_of(tmp_path):
    A = random_matrix(biquat(), 2, 2, np.random.default_rng(6))
    write_matrix(tmp_path / "a.json", A)
    algebra, grid = oracle.read_grid(tmp_path / "a.json")
    assert algebra == "biquat"
    assert grid == oracle.grid_of(A)


# -- span arithmetic ----------------------------------------------------------

def test_covered_merges_overlaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 1), (2, 3)]) == 2.0
    assert spans.covered([(0, 2), (1, 3)]) == 3.0
    assert spans.covered([(0, 4), (1, 2), (3, 4)]) == 4.0


def test_self_time_subtracts_children_clipped_to_the_parent():
    parent = spans.Span(0, "p", 0.0, 10.0)
    kids = [spans.Span(1, "a", 1.0, 3.0, 0), spans.Span(2, "b", 2.0, 4.0, 0),
            spans.Span(3, "c", 9.0, 12.0, 0)]
    assert spans.self_time(parent, kids) == pytest.approx(10 - 3 - 1)


def _span(tree, name, start, end, parent=None, **attrs):
    s = spans.Span(len(tree), name, start, end, parent, attrs)
    tree.append(s)
    return s.id


def test_layer_metrics_on_a_synthetic_round():
    t = []
    op = _span(t, "rot_svd_s", 0, 10)
    sv = _span(t, "asvd", 0, 10, op, rotations=30, qrd_calls=2, sweeps=3,
               trimmed=5, max_support=7)
    _span(t, "aqr", 1, 4, sv, rotations=20, sweeps=2)
    _span(t, "aqr", 5, 7, sv, rotations=10, sweeps=1)
    _span(t, "matmul", 8, 9, sv)
    cli = _span(t, "cli_s", 10, 20)
    main = _span(t, "cli.main", 10, 20, cli)
    _span(t, "read_matrix", 10, 11, main)
    w = _span(t, "wqr", 11, 15, main, rotations=4)
    _span(t, "lift", 11, 12, w)
    _span(t, "aqr", 12, 13, w, rotations=4)
    _span(t, "unlift", 13, 14, w)
    _span(t, "write_matrix", 15, 16, main, bytes=100)
    _span(t, "matmul", 16, 18, main)
    m = {k: v for k, (v, _) in spans.layer_metrics(t).items()}
    assert m["jacobi.rotations"] == 30
    assert m["jacobi.qr_calls"] == 2
    assert m["jacobi.sweeps"] == 3
    assert m["jacobi.aqr_s"] == 5
    assert m["jacobi.asvd_self_s"] == 5          # 10 - the two aqr calls
    assert m["jacobi.us_per_rotation"] == pytest.approx(1e6 * 6 / 34)
    assert m["jacobi.trimmed"] == 5
    assert m["jacobi.max_support"] == 7
    assert m["core.matmul_s"] == 3
    assert m["wedderburn.lift_s"] == m["wedderburn.unlift_s"] == 1
    assert m["wedderburn.block_s"] == 1
    assert m["wedderburn.block_rotations"] == 4
    assert m["matio.read_s"] == m["matio.write_s"] == 1
    assert m["matio.bytes_written"] == 100
    assert m["cli.self_s"] == 10 - 1 - 4 - 1 - 2


def test_tracer_patches_where_names_are_looked_up_and_restores():
    from algdecomp import cli, jacobi, wedderburn
    originals = (jacobi.aqr, wedderburn.aqr, cli.wqr, AlgMatrix.__matmul__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        A = random_matrix(clifford(0, 2), 2, 2, np.random.default_rng(7))
        op = tracer.open("rot_svd_s")
        jacobi.asvd(A, eps=1e-8)
        tracer.close(op)
    finally:
        tracer.uninstall()
    assert (jacobi.aqr, wedderburn.aqr, cli.wqr,
            AlgMatrix.__matmul__) == originals
    by_id = {s.id: s for s in tracer.spans}
    svd = [s for s in tracer.spans if s.name == "asvd"]
    inner = [s for s in tracer.spans if s.name == "aqr"]
    assert len(svd) == 1 and by_id[svd[0].parent].name == "rot_svd_s"
    assert len(inner) == svd[0].attrs["qrd_calls"]
    assert all(s.parent == svd[0].id for s in inner)


# -- host-speed scaling -------------------------------------------------------

def test_scaled_divides_by_the_mean_calibration():
    ref = hostspeed.REF_S
    assert hostspeed.scaled(1.0, [ref, ref]) == pytest.approx(1.0)
    # a host twice as slow takes twice as long for the loop and the operation
    assert hostspeed.scaled(2.0, [2 * ref] * 3) == pytest.approx(1.0)
    assert hostspeed.scaled(3.0, [ref, 2 * ref]) == pytest.approx(2.0)


def test_reference_loop_multiplies_blades_by_their_table():
    # two generators anticommute; g1 g2 g1 g2 = -1
    assert hostspeed._TABLE[(1,), (2,)] == (1.0, (1, 2))
    assert hostspeed._TABLE[(2,), (1,)] == (-1.0, (1, 2))
    assert hostspeed._TABLE[(1, 2), (1, 2)] == (-1.0, ())
    assert len(hostspeed.reference_loop()) == 32


def test_set_time_per_round_sums_its_operations():
    import worker
    assert worker.per_round([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]) == [
        11.0, 22.0, 33.0]


# -- the launcher -------------------------------------------------------------

def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "cl41-rotation", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_launcher_and_worker_agree_on_workload_names():
    import run
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
