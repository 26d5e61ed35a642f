"""Matrix file format and command-line interface."""

import csv
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from algdecomp import (AlgMatrix, Element, MatrixFileError, biquat, clifford,
                       cyclic, laurent, random_matrix, read_matrix,
                       write_matrix)
from algdecomp.catalog import algebra_from_descriptor
from algdecomp import cli
from algdecomp.cli import (EXIT_CONVERGENCE, EXIT_FILE, EXIT_OK, EXIT_OUTPUT,
                           EXIT_RESIDUAL, EXIT_SPEC, EXIT_USAGE,
                           check_contract, main)
from algdecomp.matio import matrix_from_dict


# -- file format ------------------------------------------------------------------

@pytest.mark.parametrize("spec,degree", [
    (clifford(4, 1), 0), (laurent(2), 2), (biquat(), 0), (clifford(0, 0), 0),
])
def test_round_trip_exact(tmp_path, spec, degree):
    A = random_matrix(spec, 3, 2, np.random.default_rng(0), degree=max(degree, 1))
    path = tmp_path / "m.json"
    write_matrix(path, A)
    B = read_matrix(path)
    assert B.spec == A.spec
    assert (B - A).frob() == 0.0
    write_matrix(tmp_path / "m2.json", B)
    assert (tmp_path / "m2.json").read_bytes() == path.read_bytes()


def test_zero_entries_omitted(tmp_path):
    spec = clifford(1, 0)
    A = AlgMatrix.zeros(spec, 2, 2)
    A[1, 0] = spec.scalar(2.0)
    path = tmp_path / "m.json"
    write_matrix(path, A)
    doc = json.loads(path.read_text())
    assert doc["entries"] == [[1, 0, [["1", 2.0]]]]
    assert (read_matrix(path) - A).frob() == 0.0


@pytest.mark.parametrize("doc", [
    {"format": "other/9", "algebra": "real", "m": 1, "n": 1, "entries": []},
    {"format": "algdecomp-mat/1", "algebra": "bogus", "m": 1, "n": 1,
     "entries": []},
    {"format": "algdecomp-mat/1", "algebra": "real", "m": 1, "n": 1,
     "entries": [[0, 0, [["g7", 1.0]]]]},
    {"format": "algdecomp-mat/1", "algebra": "real", "m": 1, "n": 1,
     "entries": [[2, 0, [["1", 1.0]]]]},
    {"format": "algdecomp-mat/1", "algebra": "real", "m": 1, "n": 1,
     "entries": [[0, 0, [["1", 1.0], ["1", 2.0]]]]},
    # these four were once read: an IndexError traceback, 5.0 written to
    # both (1, 0) and (1, 1), m read as 1, the second entry kept
    {"format": "algdecomp-mat/1", "algebra": "real", "m": 1, "n": 1,
     "entries": [[0.5, 0, [["1", 1.0]]]]},
    {"format": "algdecomp-mat/1", "algebra": "real", "m": 2, "n": 2,
     "entries": [[True, 1, [["1", 5.0]]]]},
    {"format": "algdecomp-mat/1", "algebra": "real", "m": 1.7, "n": 1,
     "entries": []},
    {"format": "algdecomp-mat/1", "algebra": "real", "m": 1, "n": 1,
     "entries": [[0, 0, [["1", 1.0]]], [0, 0, [["1", 2.0]]]]},
])
def test_malformed_documents_rejected(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MatrixFileError):
        read_matrix(path)


@pytest.mark.parametrize("desc", ["real", "complex", "quat", "cl(4,1)",
                                  "quadquat", "biquat", "cyclic(2,4)"])
def test_label_names_agree_with_the_parser(desc):
    # the reader looks canonical names up instead of parsing them
    spec = algebra_from_descriptor(desc)
    by_name = spec.layout().by_name
    assert len(by_name) == spec.dim
    assert all(spec.parse_label(s) == lab for s, lab in by_name.items())


def test_reader_parses_only_other_spellings(monkeypatch):
    spec, parsed = cyclic(1, 8), []
    parse = type(spec).parse_label
    monkeypatch.setattr(type(spec), "parse_label",
                        lambda self, s: parsed.append(s) or parse(self, s))
    doc = {"format": "algdecomp-mat/1", "algebra": "cyclic(1,8)", "m": 1,
           "n": 1, "entries": [[0, 0, [["1", 1.0], ["z1^9", 2.0]]]]}
    assert matrix_from_dict(doc)[0, 0] == Element(spec, {(0,): 1.0, (1,): 2.0})
    assert parsed == ["z1^9"]
    doc["entries"][0][2].append(["z1^1", 3.0])  # z1^9 spelled canonically
    with pytest.raises(MatrixFileError, match="duplicate label 'z1\\^1'"):
        matrix_from_dict(doc)


def test_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json{")
    with pytest.raises(MatrixFileError):
        read_matrix(path)


# -- CLI -----------------------------------------------------------------------------

def run(args):
    return main(args)


def test_decompose_random_qr(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    code = run(["decompose", "--algebra", "cl(4,1)", "--op", "qr",
                "--method", "jacobi", "--random", "3", "2", "--seed", "7",
                "--eps", "1e-10", "--output-prefix", prefix])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "rotations=" in text
    for tag in ("A", "Q", "R"):
        assert (tmp_path / f"out.{tag}.json").exists()
    A = read_matrix(f"{prefix}.A.json")
    Q = read_matrix(f"{prefix}.Q.json")
    R = read_matrix(f"{prefix}.R.json")
    assert (Q @ R - A).frob() <= 1e-9 * A.frob()


def test_decompose_identity_input(tmp_path, capsys):
    spec = clifford(2, 0)
    path = tmp_path / "I.json"
    write_matrix(path, AlgMatrix.identity(spec, 3))
    code = run(["decompose", "--algebra", "cl(2,0)", "--op", "qr",
                "--input", str(path), "--eps", "1e-10",
                "--output-prefix", str(tmp_path / "I_out")])
    assert code == EXIT_OK
    assert "rotations=0" in capsys.readouterr().out


def test_contract_violation_exits_6_after_writing(tmp_path, capsys,
                                                  monkeypatch):
    # a report whose R does not reconstruct A: the factors are still
    # written, then one error line and exit 6
    aqr = cli.aqr

    def perturbed(A, **kw):
        rep = aqr(A, **kw)
        rep.r = rep.r + rep.r
        return rep
    monkeypatch.setattr(cli, "aqr", perturbed)
    prefix = tmp_path / "bad"
    code = run(["decompose", "--algebra", "quat", "--random", "3", "2",
                "--output-prefix", str(prefix)])
    assert code == EXIT_RESIDUAL
    assert capsys.readouterr().err == \
        "error: reconstruction residual violates the contract\n"
    A, Q, R = (read_matrix(f"{prefix}.{t}.json") for t in "AQR")
    assert (Q @ R - A - A).frob() <= 1e-12 * A.frob()


def test_decompose_deterministic(tmp_path):
    args = ["decompose", "--algebra", "quadquat", "--op", "qr", "--method",
            "wedderburn", "--random", "2", "2", "--seed", "5", "--eps", "0"]
    run(args + ["--output-prefix", str(tmp_path / "a")])
    run(args + ["--output-prefix", str(tmp_path / "b")])
    for tag in ("A", "Q", "R"):
        assert (tmp_path / f"a.{tag}.json").read_bytes() == \
            (tmp_path / f"b.{tag}.json").read_bytes()


def test_decompose_svd_wedderburn(tmp_path, capsys):
    code = run(["decompose", "--algebra", "biquat", "--op", "svd",
                "--method", "wedderburn", "--random", "2", "2", "--seed", "3",
                "--eps", "1e-10", "--output-prefix", str(tmp_path / "s")])
    assert code == EXIT_OK
    for tag in ("U", "D", "V"):
        assert (tmp_path / f"s.{tag}.json").exists()


def test_decompose_laurent_dft_route(tmp_path, capsys):
    code = run(["decompose", "--algebra", "laurent(1)", "--op", "svd",
                "--method", "wedderburn", "--random", "2", "2", "--seed", "4",
                "--degree", "1", "--delta", "8", "--eps", "1e-8",
                "--output-prefix", str(tmp_path / "l")])
    assert code == EXIT_OK
    assert "embedded into cyclic(1,8)" in capsys.readouterr().out
    # factors stay in the cyclic algebra, where U D V^H = embed(A) holds
    A = read_matrix(str(tmp_path / "l.A.json"))
    U = read_matrix(str(tmp_path / "l.U.json"))
    D = read_matrix(str(tmp_path / "l.D.json"))
    V = read_matrix(str(tmp_path / "l.V.json"))
    assert D.spec == cyclic(1, 8)
    assert (U @ D @ V.herm() - A).frob() <= 1e-7 * A.frob()


def test_exit_code_file_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{broken")
    code = run(["decompose", "--algebra", "real", "--input", str(path)])
    assert code == EXIT_FILE


def test_exit_code_fractional_index(tmp_path, capsys):
    # an entry index of 0.5 once ended in an IndexError traceback (exit 1)
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "format": "algdecomp-mat/1", "algebra": "real", "m": 1, "n": 1,
        "entries": [[0.5, 0, [["1", 1.0]]]]}))
    code = run(["decompose", "--algebra", "real", "--input", str(path),
                "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_FILE and _one_error_line(capsys)


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.count("\n") == 1 and err.startswith("error: ")


def _coefficient_file(c: str) -> str:
    return ('{"format": "algdecomp-mat/1", "algebra": "real", "m": 1, "n": 1, '
            '"entries": [[0, 0, [["1", ' + c + ']]]]}')


@pytest.mark.parametrize("text,message", [
    ("[" * 200_000 + "]" * 200_000, "maximum recursion depth"),
    (_coefficient_file("1" + "0" * 400), "int too large to convert to float"),
    (_coefficient_file("1" + "0" * 5000), "Exceeds the limit (4300 digits)"),
    (_coefficient_file("true"), "coefficient True is not a number"),
    (_coefficient_file('"1.5"'), "coefficient '1.5' is not a number"),
], ids=["deep", "huge-int", "past-4300-digits", "true", "string"])
def test_exit_code_malformed_file(tmp_path, capsys, text, message):
    # the first three once ended in a RecursionError, an OverflowError and a
    # ValueError traceback (exit 1); true and "1.5" were read as numbers
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = run(["decompose", "--algebra", "real", "--input", str(path),
                "--output-prefix", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert (code, err.count("\n"), err[:7]) == (EXIT_FILE, 1, "error: ")
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("name", ["missing.json", ".", "latin1.json"],
                         ids=["missing", "directory", "not-utf8"])
def test_exit_code_unreadable_input(tmp_path, capsys, name):
    # FileNotFoundError, IsADirectoryError and UnicodeDecodeError once ended
    # in a traceback with exit 1
    (tmp_path / "latin1.json").write_bytes(b'{"format": "\xe9"}')
    code = run(["decompose", "--algebra", "real", "--input",
                str(tmp_path / name), "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_FILE and _one_error_line(capsys)


DECOMPOSE = ["decompose", "--algebra", "quat", "--random", "2", "2",
             "--output-prefix"]
SWEEP = ["sweep-eps", "--algebra", "quat", "--random", "2", "2",
         "--methods", "jacobi", "--eps-list", "1e-3", "--output"]


@pytest.mark.parametrize("args,target,computed", [
    (DECOMPOSE, "missing/x", False), (SWEEP, "missing/s.csv", False),
    (DECOMPOSE, "x", True), (SWEEP, "s.csv", True),
], ids=["decompose-missing-dir", "sweep-missing-dir", "decompose-to-dir",
        "sweep-to-dir"])
def test_exit_code_unwritable_output(tmp_path, capsys, monkeypatch, args,
                                     target, computed):
    # these once ended in a traceback with exit 1, after the computation; a
    # missing directory now fails before it, a file that is a directory
    # (x.A.json, s.csv) when it is written
    ran = []
    engine = cli._run_engine
    monkeypatch.setattr(cli, "_run_engine",
                        lambda *a: ran.append(a) or engine(*a))
    (tmp_path / "x.A.json").mkdir()
    (tmp_path / "s.csv").mkdir()
    code = run([*args, str(tmp_path / target)])
    assert code == EXIT_OUTPUT and _one_error_line(capsys)
    assert bool(ran) == computed


@pytest.mark.parametrize("algebra,label", [("quat", "g1"), ("cl(4,1)", "g2")])
def test_exit_code_non_finite_input(tmp_path, capsys, algebra, label):
    # a NaN below the diagonal once gave exit 0 over quat and a KeyError
    # from beta_basis over cl(4,1)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "format": "algdecomp-mat/1", "algebra": algebra, "m": 2, "n": 2,
        "entries": [[0, 0, [["1", 1.0]]],
                    [1, 0, [["1", 0.5], [label, float("nan")]]],
                    [1, 1, [["1", 2.0]]]]}))
    code = run(["decompose", "--algebra", algebra, "--input", str(path),
                "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_FILE
    assert "non-finite" in capsys.readouterr().err


def test_exit_code_spec_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    write_matrix(path, AlgMatrix.identity(clifford(2, 0), 2))
    code = run(["decompose", "--algebra", "quat", "--input", str(path)])
    assert code == EXIT_SPEC
    # wedderburn without a cataloged representation
    code = run(["decompose", "--algebra", "cl(3,0)", "--method", "wedderburn",
                "--random", "2", "2"])
    assert code == EXIT_SPEC
    # laurent wedderburn without --delta
    code = run(["decompose", "--algebra", "laurent(1)", "--method",
                "wedderburn", "--random", "2", "2"])
    assert code == EXIT_SPEC


@pytest.mark.parametrize("args", [
    ["--algebra", "cyclic(1,100000000)", "--random", "2", "2"],
    ["--algebra", "cyclic(17,2)", "--random", "2", "2"],
])
def test_exit_code_oversized_cyclic_algebra(tmp_path, capsys, args):
    # a cyclic algebra past 2^16 basis elements once built its labels until
    # memory ran out; it is refused before any label is built
    code = run(["decompose", *args, "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_SPEC
    assert "delta^kappa <= 2^16" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("delta,message", [
    ("7", "delta=7 is odd"), ("9", "delta=9 is odd"),
    ("4", "delta=4 too small for exponents up to 2; need even delta >= 6"),
    # past 2^16 basis elements: refused before any label is built
    ("100000000", "supports delta^kappa <= 2^16"),
])
def test_exit_code_bad_delta(tmp_path, capsys, delta, message):
    # an odd delta was once reported as too small, 7 and 9 included
    code = run(["decompose", "--algebra", "laurent(1)", "--method",
                "wedderburn", "--random", "2", "2", "--delta", delta,
                "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_SPEC
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and ("small" in err) == ("small" in message)


@pytest.mark.parametrize("args", [
    ["--algebra", "quat", "--random", "3", "2", "--eps", "nan"],
    ["--algebra", "quat", "--random", "3", "2", "--eps", "-1"],
    ["--algebra", "quat", "--random", "3", "2", "--op", "svd", "--eps", "0"],
    ["--algebra", "quat", "--random", "3", "2", "--method", "wedderburn",
     "--eps", "nan"],
    ["--algebra", "cl(2,1)", "--random", "3", "2", "--trim", "2"],
    ["--algebra", "laurent(1)", "--random", "3", "2", "--op", "svd",
     "--trim", "1"],
    ["--algebra", "cl(2,1)", "--random", "3", "2", "--trim", "nan"],
    ["--algebra", "cl(2,1)", "--random", "3", "2", "--trim", "-1"],
    ["--algebra", "cl(4,1)", "--random", "3", "2", "--eps", "inf"],
    ["--algebra", "cl(4,1)", "--random", "3", "2", "--op", "svd", "--eps",
     "inf"],
    ["--algebra", "quat", "--random", "3", "2", "--method", "wedderburn",
     "--op", "svd", "--eps", "inf"],
])
def test_exit_code_bad_tolerance(tmp_path, capsys, args):
    # eps=nan once ran to the iteration budget (exit 5), trim >= 1 gave
    # Q = R = 0 with exit 0, and eps=inf ran no sweep with exit 0
    code = run(["decompose", *args, "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_SPEC
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args,message", [
    (["sweep-eps", "--algebra", "quat", "--random", "2", "2",
      "--eps-list", "1e-3", "--methods", "jacobi,bogus"], "--methods"),
    (["sweep-eps", "--algebra", "quat", "--random", "2", "2",
      "--eps-list", ""], "--eps-list"),
    (["sweep-eps", "--algebra", "quat", "--random", "2", "2",
      "--eps-list", "1e-3,abc"], "--eps-list"),
    (["decompose", "--algebra", "laurent(1)", "--random", "2", "2",
      "--degree", "-1"], "--degree"),
    (["verify", "cl(1,0)", "--trials", "-3"], "--trials"),
    (["verify", "cl(1,0)", "--trials", "0"], "--trials"),
    (["decompose", "--algebra", "quat", "--random", "3", "2", "--seed", "-1"],
     "--seed"),
    (["sweep-eps", "--algebra", "quat", "--random", "2", "2",
      "--eps-list", "1e-3", "--seed", "-1"], "--seed"),
    (["verify", "cl(1,0)", "--seed", "-1"], "--seed"),
])
def test_exit_code_bad_argument(tmp_path, capsys, args, message):
    # these once ran the representation route under the name "bogus"
    # (exit 0), ended in a ValueError traceback (exit 1; a negative --seed
    # too), decomposed an all-zero matrix (exit 0), or ran no random check
    # and passed (exit 0)
    with pytest.raises(SystemExit) as exc:
        run([*args, "--output-prefix" if args[0] == "decompose" else "--output",
             str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_exit_code_convergence(tmp_path, capsys):
    code = run(["decompose", "--algebra", "cl(2,0)", "--op", "svd",
                "--random", "3", "3", "--seed", "2", "--eps", "1e-12",
                "--max-iters", "1",
                "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_CONVERGENCE


def _scaled_copy(path, out, power):
    """The matrix file ``path`` with every coefficient times 2^power."""
    doc = json.loads(path.read_text())
    for entry in doc["entries"]:
        for pair in entry[2]:
            pair[1] = math.ldexp(pair[1], power)
    out.write_text(json.dumps(doc))


def _relative_error(capsys) -> str:
    line, = [t for t in capsys.readouterr().out.splitlines()
             if t.startswith("reconstruction_error=")]
    return line.split("relative ")[1].rstrip(")")


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_rotation_svd_with_trim_meets_the_contract(tmp_path, capsys, seed):
    # asvd once trimmed the whole product U @ Q again after every QR call,
    # which left a relative reconstruction error of 2.3e-5 to 3.0e-5 on
    # these inputs (exit 6); seed 2 runs out of QR calls (exit 5)
    code = run(["decompose", "--algebra", "quadquat", "--op", "svd",
                "--method", "jacobi", "--random", "4", "3", "--seed", str(seed),
                "--eps", "1e-6", "--trim", "1e-6",
                "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_OK
    assert float(_relative_error(capsys)) <= 1e-6


def _scaled_run(tmp_path, capsys, algebra, op, power, eps) -> str:
    """The printed relative error of the rotation engine's ``op`` on the
    3x2 seed-3 input over ``algebra`` with every coefficient and ``eps``
    times 2^power, under -W error (asserting exit 0)."""
    run(["decompose", "--algebra", algebra, "--random", "3", "2", "--seed",
         "3", "--output-prefix", str(tmp_path / "a")])
    _scaled_copy(tmp_path / "a.A.json", tmp_path / "s.json", power)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["decompose", "--algebra", algebra, "--method", "jacobi",
                    "--op", op, "--input", str(tmp_path / "s.json"), "--eps",
                    repr(math.ldexp(eps, power)),
                    "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_OK
    return _relative_error(capsys)


def test_relative_error_of_a_huge_input(tmp_path, capsys):
    # frob once squared unscaled coefficients, so ||A||_F overflowed past
    # about 1e154 and the relative error read 0; eps is absolute, so it is
    # scaled with A, and the scaled run does the same work
    runs = [_scaled_run(tmp_path, capsys, "cl(4,1)", "qr", power, 1e-10)
            for power in (0, 530)]
    assert runs[0] == runs[1] and float(runs[0]) > 0.0
    # the contract check multiplies Laurent factors by FFT, which overflows
    # here ("overflow encountered in irfft") unless each operand is scaled
    # by its power of two; at eps 1e-10 this SVD's supports grow for
    # minutes, so it runs at 1e-3
    for op, eps in (("qr", 1e-10), ("svd", 1e-3)):
        assert float(_scaled_run(tmp_path, capsys, "laurent(1)", op, 1021,
                                 eps)) <= 1e-13


def _huge_quaternion_run(tmp_path, capsys, method, op, power=530,
                         extra=()) -> int:
    # quat 3x2 seed 3 scaled by 2^power (2^530 is about 3.5e159), run under
    # -W error
    run(["decompose", "--algebra", "quat", "--random", "3", "2", "--seed", "3",
         "--output-prefix", str(tmp_path / "a")])
    capsys.readouterr()
    _scaled_copy(tmp_path / "a.A.json", tmp_path / "big.json", power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(["decompose", "--algebra", "quat", "--method", method,
                    "--op", op, "--input", str(tmp_path / "big.json"),
                    "--output-prefix", str(tmp_path / "x"), *extra])


@pytest.mark.parametrize("method,op", [("jacobi", "qr"), ("jacobi", "svd")])
def test_huge_quaternion_input_decomposes_without_a_warning(tmp_path, capsys,
                                                            method, op):
    # the 2-norms of aqr once squared unscaled coefficients: numpy warned
    # "overflow encountered in multiply", then a non-finite pivot raised
    # (exit 5); aqr now holds R scaled by a power of two, so with eps scaled
    # alike the run takes the unscaled run's steps
    errors = []
    for power in (0, 530):
        eps = repr(math.ldexp(1e-10, power))
        assert _huge_quaternion_run(tmp_path, capsys, method, op, power,
                                    ("--eps", eps)) == EXIT_OK
        errors.append(_relative_error(capsys))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("op", ["qr", "svd"])
def test_huge_quaternion_input_decomposes_through_the_representation(
        tmp_path, capsys, op):
    # an H block's QR is aqr, which holds R scaled by a power of two, so no
    # pivot norm overflows
    assert _huge_quaternion_run(tmp_path, capsys, "wedderburn", op) == EXIT_OK
    assert float(_relative_error(capsys)) <= 1e-14


@pytest.mark.parametrize("op,power,code", [
    ("qr", 1021, EXIT_CONVERGENCE), ("svd", 1021, EXIT_CONVERGENCE),
    ("qr", -1070, EXIT_OK), ("svd", -1070, EXIT_OK)])
def test_representation_at_the_ends_of_the_float_range(tmp_path, capsys, op,
                                                       power, code):
    # cl(4,1) 3x2 seed 3 scaled by 2^1021: the lifted C block's R passes the
    # float range, and the QR's phase fix once divided inf by inf, a numpy
    # warning that escaped -W error as a traceback (exit 1); the rotation
    # engine on the same file exits 5 as well.  Scaled by 2^-1070 (subnormal
    # coefficients) the phase fix overflowed dividing by a subnormal |d_k|,
    # again a traceback; both runs there meet the contract (its 1e-300 floor)
    run(["decompose", "--algebra", "cl(4,1)", "--random", "3", "2", "--seed",
         "3", "--output-prefix", str(tmp_path / "a")])
    _scaled_copy(tmp_path / "a.A.json", tmp_path / "s.json", power)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["decompose", "--algebra", "cl(4,1)", "--method",
                    "wedderburn", "--op", op, "--input",
                    str(tmp_path / "s.json"),
                    "--output-prefix", str(tmp_path / "x")]) == code
    if code == EXIT_CONVERGENCE:
        assert capsys.readouterr().err == (
            "error: block 0 ('C', 4): non-finite factor\n")


@pytest.mark.parametrize("algebra", ["quat", "complex"])
@pytest.mark.parametrize("entries", [[[0, 0, [["1", 1.0]]],
                                      [1, 0, [["g1", 1e-170]]]],
                                     [[0, 0, [["g1", 1e200]]],
                                      [1, 0, [["1", 1.0]]]]])
def test_division_beta_outside_the_float_range(tmp_path, capsys, algebra,
                                               entries):
    # beta_division once squared unscaled coefficients: the tiny entry gave
    # a ZeroDivisionError traceback (exit 1), the huge one b = 0 and a Q
    # with unitarity error 1
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"format": "algdecomp-mat/1",
                                "algebra": algebra, "m": 2, "n": 1,
                                "entries": entries}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["decompose", "--algebra", algebra, "--norm", "inf",
                    "--eps", "0", "--input", str(path),
                    "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_OK
    line, = [t for t in capsys.readouterr().out.splitlines()
             if t.startswith("unitarity_error=")]
    assert float(line.split("=")[1]) <= 1e-15


def test_smallest_eps_decomposes(tmp_path, capsys):
    # the rotation budget once overflowed here: a traceback and exit 1
    code = run(["decompose", "--algebra", "cl(4,1)", "--random", "3", "2",
                "--eps", "1e-308", "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_OK
    assert "rotations=34270 " in capsys.readouterr().out


def test_sweep_csv_columns_and_trends(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep-eps", "--algebra", "cl(4,1)", "--op", "qr",
                "--random", "3", "2", "--seed", "7",
                "--eps-list", "1e-2,1e-6,1e-10", "--output", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == [
        "epsilon", "method", "rotations", "sweeps", "qrd_calls",
        "wall_time_s", "reconstruction_error", "unitarity_error"]
    jac = [r for r in rows if r["method"] == "jacobi"]
    wed = [r for r in rows if r["method"] == "wedderburn"]
    # tighter tolerance never costs fewer rotations
    counts = [int(r["rotations"]) for r in jac]
    assert counts == sorted(counts)
    # exact block termination is tolerance-independent
    assert len({r["rotations"] for r in wed}) == 1
    # the representation route is faster (about 0.6 ms against 32 ms)
    j10 = next(r for r in jac if float(r["epsilon"]) == 1e-10)
    w10 = next(r for r in wed if float(r["epsilon"]) == 1e-10)
    assert float(w10["wall_time_s"]) < float(j10["wall_time_s"])


def test_sweep_builds_each_representation_once(tmp_path, monkeypatch):
    from algdecomp import wedderburn
    built = []
    init = wedderburn.Representation.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(wedderburn.Representation, "__init__", counting)
    wedderburn.representation_for.cache_clear()
    code = run(["sweep-eps", "--algebra", "cyclic(2,8)", "--op", "qr",
                "--random", "2", "2", "--methods", "wedderburn",
                "--eps-list", "1e-2,1e-6,1e-10",
                "--output", str(tmp_path / "sweep.csv")])
    assert code == EXIT_OK
    assert built == [cyclic(2, 8)]


def _svd_report(u, d, v):
    return SimpleNamespace(kind="svd", u=u, d=d, v=v)


def test_contract_counts_both_unitary_factors():
    spec = clifford(1, 0)
    I = AlgMatrix.identity(spec, 2)
    V = AlgMatrix(spec, [[spec.scalar(2.0), spec.zero()],
                         [spec.zero(), spec.scalar(2.0)]])
    c = check_contract(_svd_report(I, I, V), I)
    # V^H V - I = 3 I, Frobenius norm 3 sqrt(2); U alone would give 0
    assert c.unitarity_error == pytest.approx(3 * np.sqrt(2))
    assert c.reconstruction_error == pytest.approx(np.sqrt(2))
    assert c.violated


def test_contract_past_the_float_range():
    # ||A||_F of this finite A passes the float range (about 2.1e308): the
    # contract once compared with 1e-6 ||A||_F = inf, so the inf error of
    # D = -A counted as met; both norms are now taken on A and the error
    # scaled by one power of two
    spec = clifford(1, 0)
    I = AlgMatrix.identity(spec, 2)

    def diag(x):
        return AlgMatrix(spec, [[spec.scalar(x), spec.zero()],
                                [spec.zero(), spec.scalar(x)]])
    A = diag(1.5e308)
    assert A.frob() == math.inf
    c = check_contract(_svd_report(I, A, I), A)
    assert not c.violated and c.relative == 0.0
    c = check_contract(_svd_report(I, -A, I), A)
    assert c.reconstruction_error == math.inf and c.violated
    assert c.relative == 2.0
    c = check_contract(_svd_report(I, diag(0.75e308), I), A)
    assert math.isfinite(c.reconstruction_error) and c.violated
    assert c.relative == 0.5


def test_contract_nan_error_is_a_violation():
    spec = clifford(1, 0)
    I = AlgMatrix.identity(spec, 2)
    D = AlgMatrix.identity(spec, 2)
    D[0, 0] = Element._make(spec, {0: float("nan")})
    c = check_contract(_svd_report(I, D, I), I)
    assert np.isnan(c.reconstruction_error)
    assert c.violated
    assert not check_contract(_svd_report(I, I, I), I).violated


def test_verify_command(capsys):
    assert run(["verify", "cl(3,1)"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "associativity" in out and "pass" in out
    assert run(["verify", "quadquat"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "representation" in out
    assert run(["verify", "real"]) == EXIT_OK
    capsys.readouterr()
    assert run(["verify", "nonsense"]) == EXIT_SPEC
