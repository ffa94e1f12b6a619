"""JSON encodings for states, operators, graphs, and certificates.

Density matrices: {"m": int, "n": int, "matrix": [[[re, im], ...], ...]}
row-major.  The exact-rational form marks itself with "rational": true
and encodes each scalar part as {"num": "<int>", "den": "<int>"} strings
so arbitrary-precision integers survive the trip; any spelling of a ratio
reads (unreduced, negative denominator), and instance files write every
entry over the least common denominator of rho.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import Array, DensityMatrix
from .qsep import (
    BitWidthError,
    ExactMatrix,
    QsepCertificate,
    QsepInstance,
    bits_required,
    exact_matrix,
)


class InputFormatError(ValueError):
    """Input file is malformed."""


def matrix_to_json(mat: Array) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def matrix_from_json(obj) -> Array:
    try:
        cells = np.array(obj)  # one C pass; a ragged nesting raises ValueError
    except ValueError as exc:
        raise InputFormatError(f"bad matrix encoding: {exc}") from exc
    if cells.dtype.kind not in "biuf" or cells.ndim != 3 or cells.shape[2] != 2:
        raise InputFormatError("bad matrix encoding: rows of [re, im] number pairs expected")
    mat = cells.astype(float).view(complex)[..., 0]  # each [re, im] pair as one complex
    if mat.shape[0] != mat.shape[1]:
        raise InputFormatError(f"matrix must be square, got shape {mat.shape}")
    return mat


def _fraction_to_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _ratio_from_json(obj) -> tuple[int, int]:
    """A scalar {"num": a, "den": b} as the integers (a, b), b nonzero."""
    try:
        num, den = int(obj["num"]), int(obj["den"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad rational scalar: {exc}") from exc
    if den == 0:
        raise InputFormatError("bad rational scalar: zero denominator")
    return num, den


def density_to_json(rho: DensityMatrix) -> dict:
    return {"m": rho.m, "n": rho.n, "matrix": matrix_to_json(rho.mat)}


def header_from_json(obj) -> tuple[int, int, object]:
    """(m, n, matrix) of a {"m", "n", "matrix"} file, the matrix as JSON gives it."""
    try:
        return int(obj["m"]), int(obj["n"]), obj["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"JSON needs m, n and matrix: {exc}") from exc


def density_from_json(obj) -> DensityMatrix:
    if isinstance(obj, dict) and obj.get("rational"):
        exact, m, n = rational_density_from_json(obj)
        den = exact.den  # int / int rounds correctly, as float(Fraction) does
        try:
            mat = np.array([[complex(re / den, im / den) for re, im in row] for row in exact.rows])
        except OverflowError as exc:
            raise InputFormatError(f"rational entry too large for a float: {exc}") from exc
    else:
        m, n, matrix = header_from_json(obj)
        mat = matrix_from_json(matrix)
    try:
        return DensityMatrix.make(m, n, mat)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def rational_density_from_json(obj) -> tuple[ExactMatrix, int, int]:
    """(matrix, m, n) of an exact-rational file, read with no `Fraction` per scalar."""
    m, n, matrix = header_from_json(obj)
    try:
        ratios = [[(_ratio_from_json(z["re"]), _ratio_from_json(z["im"])) for z in row]
                  for row in matrix]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad complex rational: {exc}") from exc
    return exact_matrix(ratios), m, n


def qsep_instance_to_json(inst: QsepInstance) -> dict:
    den = str(inst.rho.den)  # every entry of rho over its common denominator
    return {
        "m": inst.m,
        "n": inst.n,
        "rational": True,
        "matrix": [[{"re": {"num": str(re), "den": den}, "im": {"num": str(im), "den": den}}
                    for re, im in row] for row in inst.rho.rows],
        "delta_p": _fraction_to_json(inst.delta_p),
        "eps_prime": _fraction_to_json(inst.eps_prime),
        "delta_prime": _fraction_to_json(inst.delta_prime),
    }


def qsep_instance_from_json(obj) -> QsepInstance:
    mat, m, n = rational_density_from_json(obj)
    try:
        return QsepInstance(
            m,
            n,
            mat,
            delta_p=Fraction(*_ratio_from_json(obj["delta_p"])),
            eps_prime=Fraction(*_ratio_from_json(obj["eps_prime"])),
            delta_prime=Fraction(*_ratio_from_json(obj["delta_prime"])),
        )
    except KeyError as exc:
        raise InputFormatError(f"instance JSON missing field: {exc}") from exc


def qsep_certificate_to_json(cert: QsepCertificate) -> dict:
    """The certificate's integers over 2^p, each ratio in lowest terms: the
    inverse of `qsep_certificate_from_json`."""

    def scalar(q: int) -> dict:
        k = min(cert.p, (q & -q).bit_length() - 1) if q else cert.p  # 2^k divides q
        return {"num": str(q >> k), "den": str(1 << (cert.p - k))}

    def vector(v) -> list:
        return [{"re": scalar(re), "im": scalar(im)} for re, im in v]

    terms = [{"weight": scalar(w), "alpha": vector(a), "beta": vector(b)}
             for w, a, b in cert.scaled]
    return {"m": cert.m, "n": cert.n, "terms": terms}


def qsep_certificate_from_json(obj, inst: QsepInstance) -> QsepCertificate:
    """The certificate `obj` as integers over 2^p, p = bits_required(inst.delta_p).

    A scalar {"num": a, "den": b} becomes q with divmod(a << p, b) == (q, 0),
    else BitWidthError, as is a q outside [-2^p, 2^p] (`QsepCertificate`
    refuses it); no `Fraction` is built.  A file that
    does not read as a certificate (a missing or mistyped field, a zero
    denominator, a negative weight, or vectors and terms that do not match
    m and n) raises InputFormatError.
    """
    p = bits_required(inst.delta_p)

    def scaled(x) -> int:
        q, rest = divmod(int(x["num"]) << p, int(x["den"]))
        if rest:
            raise BitWidthError(f"{x['num']}/{x['den']} is not a {p}-bit dyadic")
        return q

    def vector(v) -> tuple[tuple[int, int], ...]:
        return tuple((scaled(x["re"]), scaled(x["im"])) for x in v)

    try:
        terms = tuple(
            (scaled(t["weight"]), vector(t["alpha"]), vector(t["beta"])) for t in obj["terms"]
        )
        return QsepCertificate(int(obj["m"]), int(obj["n"]), p, terms)
    except BitWidthError:
        raise
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad certificate JSON: {exc}") from exc


def graph_from_json(obj):
    """The graph of {"n", "edges"}; one too large for `verify_chain` is refused unbuilt."""
    from .gadgets import MAX_CHAIN_VERTICES, Graph

    try:
        n = int(obj["n"])
        if n <= MAX_CHAIN_VERTICES:
            return Graph.from_edges(n, [tuple(e) for e in obj["edges"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad graph JSON: {exc}") from exc
    raise InputFormatError(f"graph has {n} vertices, more than the {MAX_CHAIN_VERTICES} allowed")


def load_json(path: str | Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # a missing file, a directory, no permission
        raise InputFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON in {path}: {exc}") from exc


def dump_json(obj, path: str | Path) -> None:
    """One line of JSON with sorted keys, written by the C encoder."""
    text = json.dumps(obj, sort_keys=True) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc.strerror}") from exc
