"""Matrix file format and command-line interface."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest
from algdecomp import (AlgMatrix, Element, MatrixFileError, biquat, clifford,
                       cyclic, laurent, random_matrix, read_matrix,
                       write_matrix)
from algdecomp.cli import (EXIT_CONVERGENCE, EXIT_FILE, EXIT_OK, EXIT_SPEC,
                           check_contract, main)


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
])
def test_malformed_documents_rejected(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MatrixFileError):
        read_matrix(path)


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


def test_exit_code_convergence(tmp_path, capsys):
    code = run(["decompose", "--algebra", "cl(2,0)", "--op", "svd",
                "--random", "3", "3", "--seed", "2", "--eps", "1e-12",
                "--max-iters", "1",
                "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_CONVERGENCE


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
        "normalized_cost", "reconstruction_error", "unitarity_error"]
    jac = [r for r in rows if r["method"] == "jacobi"]
    wed = [r for r in rows if r["method"] == "wedderburn"]
    # tighter tolerance never costs fewer rotations
    counts = [int(r["rotations"]) for r in jac]
    assert counts == sorted(counts)
    # exact block termination is tolerance-independent
    assert len({r["rotations"] for r in wed}) == 1
    # the representation route wins after cost normalisation
    j10 = next(r for r in jac if float(r["epsilon"]) == 1e-10)
    w10 = next(r for r in wed if float(r["epsilon"]) == 1e-10)
    assert float(w10["normalized_cost"]) < float(j10["normalized_cost"])


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
