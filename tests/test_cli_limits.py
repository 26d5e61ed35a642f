"""Command-line edges: inputs too large to hold, and how often one
decomposition turns a matrix between element grids and coefficient arrays.

No test here asks for a huge array: whether the host refuses one depends on
its overcommit setting, so the allocation is made to raise MemoryError.
"""

import json
import time

import numpy as np
import pytest
from algdecomp import (AlgMatrix, UnsupportedOperationError, aqr, clifford,
                       random_matrix, write_matrix)
from algdecomp.cli import EXIT_FILE, EXIT_OK, EXIT_SPEC, main


def _refuse(*args, **kwargs):
    raise MemoryError("refused")


def test_oversized_matrix_file_is_a_file_error(tmp_path, capsys, monkeypatch):
    # the allocation once escaped as numpy's _ArrayMemoryError, a traceback
    # and exit 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"format": "algdecomp-mat/1",
                                "algebra": "cl(4,1)", "m": 1000000,
                                "n": 1000000, "entries": []}))
    monkeypatch.setattr(AlgMatrix, "zeros", _refuse)
    code = main(["decompose", "--algebra", "cl(4,1)", "--input", str(path),
                 "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_FILE
    assert "1000000x1000000 matrix does not fit in memory" in capsys.readouterr().err


class _RefusingRng:
    standard_normal = staticmethod(_refuse)


def test_oversized_random_matrix_is_a_spec_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _RefusingRng())
    code = main(["decompose", "--algebra", "cl(4,1)", "--random", "1000000",
                 "1000000", "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_SPEC
    assert "does not fit in memory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_decompose_writes_factors_from_their_arrays(tmp_path, capsys,
                                                    conversions):
    path = tmp_path / "a.json"
    write_matrix(path, random_matrix(clifford(4, 1), 3, 2,
                                     np.random.default_rng(0)))
    conversions[:] = [0, 0]
    args = ["decompose", "--algebra", "cl(4,1)", "--output-prefix",
            str(tmp_path / "x")]
    assert main(args + ["--random", "3", "2"]) == EXIT_OK
    assert conversions == [0, 0]
    # the reader writes each entry into A's array, and Q and R are written
    # from theirs: no grid either way
    assert main(args + ["--input", str(path)]) == EXIT_OK
    assert conversions == [0, 0]


def test_structure_tables_are_refused_past_dim_4096(tmp_path, capsys):
    # cl(13,0)'s tables would hold 2^26 entries (cl(16,0)'s 2^32, which
    # only exhausted memory): the rotation raises before allocating them
    A = random_matrix(clifford(13, 0), 2, 1, np.random.default_rng(0))
    t0 = time.perf_counter()
    with pytest.raises(UnsupportedOperationError, match="2\\^12"):
        aqr(A)
    assert time.perf_counter() - t0 < 1.0
    code = main(["decompose", "--algebra", "cl(13,0)", "--random", "2", "1",
                 "--output-prefix", str(tmp_path / "x")])
    assert code == EXIT_SPEC
    assert "past dim 2^12" in capsys.readouterr().err


def test_laurent_windows_are_refused_past_2_21_slots(tmp_path, capsys):
    # a window builds all its labels up front: z1^1000000000 once exhausted
    # memory, from a file and from --degree alike
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"format": "algdecomp-mat/1",
                                "algebra": "laurent(1)", "m": 1, "n": 1,
                                "entries": [[0, 0, [["z1^1000000000", 1.0]]]]}))
    args = ["decompose", "--algebra", "laurent(1)", "--output-prefix",
            str(tmp_path / "x")]
    assert main(args + ["--input", str(path)]) == EXIT_FILE
    assert main(args + ["--random", "1", "1", "--degree", "1000000000"]) \
        == EXIT_SPEC
    assert capsys.readouterr().err.count("past 2^21 slots") == 2
