"""Line-oriented JSON serialization for algebra-valued matrices.

One document per matrix:

    {"format": "algdecomp-mat/1",
     "algebra": "cl(4,1)",
     "m": 3, "n": 2,
     "entries": [[0, 0, [["1", 0.25], ["g1g2", -1.5]]], ...]}

Entries are sorted by (row, col) with coefficients in canonical label
order; omitted entries are zero.  Floats round-trip exactly through
``repr``, so write(read(file)) is byte-identical for well-formed files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import AlgebraError, AlgMatrix, Element
from .catalog import algebra_from_descriptor

FORMAT = "algdecomp-mat/1"


class MatrixFileError(AlgebraError):
    """Malformed matrix file."""


def matrix_to_dict(X: AlgMatrix) -> dict:
    spec = X.spec
    lay = spec.layout(X)
    names = [spec.label_str(lab) for lab in lay.labels]
    entries = []
    for i, row in enumerate(X._array(lay).tolist()):
        for j, v in enumerate(row):
            pairs = [[names[t], c] for t, c in enumerate(v) if c != 0.0]
            if pairs:
                entries.append([i, j, pairs])
    return {"format": FORMAT, "algebra": spec.descriptor,
            "m": X.m, "n": X.n, "entries": entries}


def matrix_from_dict(doc: dict) -> AlgMatrix:
    try:
        if doc["format"] != FORMAT:
            raise MatrixFileError(f"unsupported format {doc.get('format')!r}")
        spec = algebra_from_descriptor(doc["algebra"])
        m, n = doc["m"], doc["n"]
        if not type(m) is type(n) is int:  # JSON integers: no float, no bool
            raise MatrixFileError(f"size {m!r}x{n!r} is not two integers")
        out = AlgMatrix.zeros(spec, m, n)
        named = spec.layout().by_name if spec.dim else {}  # Laurent: parse all
        seen = set()
        for i, j, pairs in doc["entries"]:
            if not (type(i) is type(j) is int and 0 <= i < m and 0 <= j < n):
                raise MatrixFileError(f"no entry ({i!r},{j!r}) in {m}x{n}")
            if (i, j) in seen:
                raise MatrixFileError(f"repeated entry ({i},{j})")
            seen.add((i, j))
            coeffs = {}
            for lab_s, c in pairs:
                lab = named[lab_s] if lab_s in named else spec.parse_label(lab_s)
                if lab in coeffs:
                    raise MatrixFileError(f"duplicate label {lab_s!r} at ({i},{j})")
                coeffs[lab] = float(c)
            out[i, j] = Element(spec, coeffs)
        return out
    except MatrixFileError:
        raise
    except MemoryError as exc:
        raise MatrixFileError(f"a {doc['m']}x{doc['n']} matrix does not fit "
                              f"in memory") from exc
    except (KeyError, TypeError, ValueError, AlgebraError) as exc:
        raise MatrixFileError(f"malformed matrix file: {exc}") from exc


def write_matrix(path, X: AlgMatrix) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(X)) + "\n")


def read_matrix(path) -> AlgMatrix:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixFileError(f"cannot read input: {exc}") from exc
    return matrix_from_dict(doc)
