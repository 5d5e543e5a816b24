"""LIBSVM sparse text format: parse and emit.

Line grammar is ``<label> (<index>:<value>)*`` with whitespace separation,
1-based strictly increasing indices per line, and ``#`` starting a comment
that runs to end of line.  The emitter prints values with ``repr`` so a
parse/emit round trip is bit exact on emitter output.

The parser reads its input once, splits each line into tokens, and then
works on whole arrays: labels, indices and values are each converted by one
numpy conversion (which accepts exactly what ``float`` and ``int`` accept),
and the grammar checks (one ``:`` per pair token, indices >= 1, strictly
increasing within a row) are array operations.  Only a rejected input is
walked again token by token, to name the first bad token and its line.
A ``Dataset`` keeps its rows in CSR form, so ``to_dense`` is one scatter.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import kernel
from .exceptions import InvariantViolation, ParseError, ValidationError

_COLON, _SPACE = ord(":"), ord(" ")


@dataclass
class Dataset:
    indptr: np.ndarray    # row i holds entries indptr[i]:indptr[i + 1]
    indices: np.ndarray   # 0-based feature indices, strictly increasing per row
    values: np.ndarray
    y: np.ndarray
    d: int                # feature count = max 1-based index seen

    @property
    def n(self):
        return self.y.size

    def to_dense(self):
        """The n x d float64 matrix; refused (ValidationError) when it would
        need more bytes than the kernel factor's cap."""
        cap = kernel._FACTOR_BYTES_CAP
        if 8 * self.n * self.d > cap:
            raise ValidationError(
                f"a dense {self.n} x {self.d} data matrix needs {8 * self.n * self.d} "
                f"bytes, over the cap of {cap} bytes (d is the largest "
                "feature index in the file)")
        X = np.zeros((self.n, self.d))
        X[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = self.values
        return X

    @staticmethod
    def from_dense(X, y):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        nonzero = X != 0
        rows, cols = np.nonzero(nonzero)
        indptr = np.zeros(X.shape[0] + 1, dtype=np.int64)
        np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
        return Dataset(indptr=indptr, indices=cols, values=X[rows, cols],
                       y=np.asarray(y, dtype=float), d=X.shape[1])


def _line_error(tokens, lineno):
    """The ParseError for the first bad token of one line, or None."""
    try:
        float(tokens[0])
    except ValueError:
        return ParseError(f"unparsable label {tokens[0]!r}", line=lineno)
    prev = 0
    for tok in tokens[1:]:
        if ":" not in tok:
            return ParseError(f"expected index:value, got {tok!r}", line=lineno)
        si, sv = tok.split(":", 1)
        try:
            i = int(si)
        except ValueError:
            return ParseError(f"unparsable index {si!r}", line=lineno)
        try:
            float(sv)
        except ValueError:
            return ParseError(f"unparsable value {sv!r}", line=lineno)
        if i <= prev:
            return ParseError(f"non-increasing index {i} after {prev}", line=lineno)
        if i > np.iinfo(np.int64).max:
            return ParseError(f"index {i} out of range", line=lineno)
        prev = i
    return None


def _first_error(lines):
    """The ParseError for the first bad token of a rejected input."""
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            err = _line_error(tokens, lineno)
            if err is not None:
                return err
    return InvariantViolation("LIBSVM input rejected, but no line holds a bad token")


def _one_colon_per_pair(text, n_pairs):
    """True when every space-separated token of ``text`` holds exactly one
    ':' -- that is, when ':' and ' ' alternate, starting and ending with ':'.
    (Equal counts are not enough: ``12 1:2:3`` has two colons for two tokens.)"""
    if not n_pairs:
        return True
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    seps = b[(b == _COLON) | (b == _SPACE)]
    return (seps.size == 2 * n_pairs - 1 and bool(np.all(seps[0::2] == _COLON))
            and bool(np.all(seps[1::2] == _SPACE)))


def parse_libsvm_lines(lines):
    """Parse LIBSVM lines (an iterable of strings, one per line) into a Dataset.

    Raises ParseError naming the first bad token and its 1-based line."""
    lines = list(lines)
    if any("#" in ln for ln in lines):
        rows = [ln.split("#", 1)[0].split() for ln in lines]
    else:
        rows = list(map(str.split, lines))
    rows = [r for r in rows if r]
    n_pairs = np.array([len(r) - 1 for r in rows], dtype=np.int64)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(n_pairs, out=indptr[1:])
    pairs = " ".join(chain.from_iterable(r[1:] for r in rows))
    try:
        if not _one_colon_per_pair(pairs, int(indptr[-1])):
            raise ValueError("pair token without exactly one ':'")
        fields = pairs.replace(" ", ":").split(":") if pairs else []
        y = np.array([r[0] for r in rows], dtype=float)
        idx = np.array(fields[0::2], dtype=np.int64)
        vals = np.array(fields[1::2], dtype=float)
        row_start = np.zeros(idx.size, dtype=bool)
        row_start[indptr[:-1][n_pairs > 0]] = True
        if not (np.all(idx >= 1) and np.all((np.diff(idx) > 0) | row_start[1:])):
            raise ValueError("index below 1 or not increasing")
    except (ValueError, OverflowError):
        raise _first_error(lines) from None
    d = int(idx.max()) if idx.size else 0
    return Dataset(indptr=indptr, indices=idx - 1, values=vals, y=y, d=d)


def parse_libsvm(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm_lines(fh.read().split("\n"))


def emit_libsvm_lines(ds: Dataset):
    pairs = list(map("{}:{!r}".format, (ds.indices + 1).tolist(), ds.values.tolist()))
    bounds = ds.indptr.tolist()
    return [" ".join([repr(label), *pairs[a:b]])
            for label, a, b in zip(ds.y.tolist(), bounds, bounds[1:])]


def emit_libsvm(ds: Dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for line in emit_libsvm_lines(ds):
            fh.write(line + "\n")
