import numpy as np
import pytest

from rankqp import kernel
from rankqp.exceptions import ParseError, ValidationError
from rankqp.libsvm_io import (Dataset, emit_libsvm_lines, parse_libsvm,
                              parse_libsvm_lines)


def test_basic_line():
    ds = parse_libsvm_lines(["+1 1:0.5 3:1.0"])
    assert ds.n == 1
    assert ds.y[0] == 1.0
    assert ds.d == 3
    X = ds.to_dense()
    assert np.array_equal(X, [[0.5, 0.0, 1.0]])


def test_label_only_line():
    ds = parse_libsvm_lines(["-1"])
    assert ds.y[0] == -1.0
    assert ds.indptr.tolist() == [0, 0]


def test_comments_and_blanks():
    ds = parse_libsvm_lines(["# header", "", "+1 1:2.0  # trailing", "   "])
    assert ds.n == 1
    assert ds.to_dense()[0, 0] == 2.0


def test_non_increasing_index_rejected():
    with pytest.raises(ParseError) as err:
        parse_libsvm_lines(["+1 3:1 2:1"])
    assert err.value.line == 1


def test_error_line_numbers():
    lines = ["+1 1:1.0", "+1 1:1.0", "-1 2:1 2:2"]
    with pytest.raises(ParseError) as err:
        parse_libsvm_lines(lines)
    assert err.value.line == 3


@pytest.mark.parametrize("bad", ["x 1:1", "+1 a:1", "+1 1:z", "+1 12", "+1 0:3"])
def test_malformed_tokens(bad):
    with pytest.raises(ParseError):
        parse_libsvm_lines([bad])


def test_index_beyond_int64_rejected():
    with pytest.raises(ParseError, match="out of range") as err:
        parse_libsvm_lines(["+1 1:1", "-1 1:1 99999999999999999999:2"])
    assert err.value.line == 2


def test_to_dense_refuses_huge_width():
    # The index fits int64, but a dense 2 x 10^12 matrix does not fit the
    # byte cap; the refusal names both dimensions.
    ds = parse_libsvm_lines(["+1 1:1 1000000000000:2", "-1 2:1"])
    with pytest.raises(ValidationError, match="2 x 1000000000000"):
        ds.to_dense()


def test_to_dense_reads_the_kernel_byte_cap(monkeypatch):
    # The cap is the kernel factor's, read when to_dense runs: lowering it
    # below a 2 x 3 matrix's 48 bytes refuses the matrix.
    ds = parse_libsvm_lines(["+1 1:1 3:2", "-1 2:1"])
    monkeypatch.setattr(kernel, "_FACTOR_BYTES_CAP", 40)
    with pytest.raises(ValidationError, match="needs 48 bytes, over the cap of 40"):
        ds.to_dense()


def test_round_trip_small(rng):
    X = rng.normal(size=(10, 5))
    X[rng.random(size=X.shape) < 0.4] = 0.0
    y = rng.choice([-1.0, 1.0], size=10)
    ds = Dataset.from_dense(X, y)
    lines = emit_libsvm_lines(ds)
    ds2 = parse_libsvm_lines(lines)
    assert emit_libsvm_lines(ds2) == lines
    assert np.array_equal(ds2.to_dense()[:, :5], X)


def test_round_trip_corpus_bit_exact(rng, tmp_path):
    # 1000 generated rows, canonical formatting, exact round trip
    n, d = 1000, 12
    X = rng.normal(size=(n, d)) * rng.lognormal(size=(n, d))
    X[rng.random(size=X.shape) < 0.5] = 0.0
    y = np.round(rng.normal(size=n), 6)
    ds = Dataset.from_dense(X, y)
    path = tmp_path / "corpus.svm"
    with open(path, "w") as fh:
        fh.write("\n".join(emit_libsvm_lines(ds)) + "\n")
    parsed = parse_libsvm(path)
    assert emit_libsvm_lines(parsed) == emit_libsvm_lines(ds)
    text2 = "\n".join(emit_libsvm_lines(parsed)) + "\n"
    assert text2 == open(path).read()


# -- differential test against a line-at-a-time reference ---------------------

def _reference_parse(lines):
    """The grammar one token at a time with float() and int(): (X, y, d)."""
    rows, labels, d = [], [], 0
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ParseError(f"unparsable label {tokens[0]!r}", line=lineno) from None
        row, prev = {}, 0
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ParseError(f"expected index:value, got {tok!r}", line=lineno)
            si, sv = tok.split(":", 1)
            try:
                i = int(si)
            except ValueError:
                raise ParseError(f"unparsable index {si!r}", line=lineno) from None
            try:
                row[i] = float(sv)
            except ValueError:
                raise ParseError(f"unparsable value {sv!r}", line=lineno) from None
            if i <= prev:
                raise ParseError(f"non-increasing index {i} after {prev}", line=lineno)
            prev = i
        rows.append(row)
        d = max(d, prev)
    X = np.zeros((len(rows), d))
    for r, row in enumerate(rows):
        for i, v in row.items():
            X[r, i - 1] = v
    return X, np.array(labels), d


_LABELS = ["+1", "-1", "0.25", "1_0", "nan", "inf", "+3", ".5", "١", "x", "1:2"]
_VALUES = ["0.5", "-2", "1e3", "nan", "-inf", "1_0", "+3", ".5", "-0", "z", ""]
_BAD_PAIRS = ["12", "1:2:3", ":5", "5:", "0:3", "3.0:1", "1e2:1", "a:1"]
_SEPS = [" ", "\t", "  ", " \t "]


def _fuzz_line(rng):
    kind = rng.integers(8)
    if kind == 0:
        return rng.choice(["", "   ", "\t", "# only a comment"])
    tokens = [str(rng.choice(_LABELS[:9] if rng.random() < 0.95 else _LABELS))]
    idx = np.sort(rng.choice(np.arange(1, 15), size=rng.integers(0, 6), replace=False))
    for i in idx:
        istr = "1_0" if i == 10 and rng.random() < 0.3 else ("+3" if i == 3 else str(i))
        value = _VALUES[rng.integers(len(_VALUES) - 2 if rng.random() < 0.97 else len(_VALUES))]
        tokens.append(f"{istr}:{value}")
    for _ in range(rng.integers(1, 3) if kind == 1 else 0):
        tokens.insert(int(rng.integers(1, len(tokens) + 1)), str(rng.choice(_BAD_PAIRS)))
    if kind == 2 and len(tokens) > 2:
        tokens[1], tokens[2] = tokens[2], tokens[1]
    line = "".join(tok + str(rng.choice(_SEPS)) for tok in tokens).rstrip()
    if rng.random() < 0.2:
        line = str(rng.choice(_SEPS)) + line
    if rng.random() < 0.2:
        line += " # trailing 1:2"
    return line


def _outcome(parse, arg):
    """("ok", X, y, d) or ("error", message, line)."""
    try:
        out = parse(arg)
    except ParseError as err:
        return "error", str(err), err.line
    if isinstance(out, Dataset):
        out = (out.to_dense(), out.y, out.d)
    return ("ok", *out)


def _assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got == want
    else:
        assert got[3] == want[3]
        assert np.array_equal(got[1], want[1], equal_nan=True)
        assert np.array_equal(got[2], want[2], equal_nan=True)


def test_parser_matches_line_reference_on_fuzzed_corpus(tmp_path):
    rng = np.random.default_rng(4242)
    # Hand-written traps first: colon counts that balance across tokens.
    docs = [[], ["+1 1:2:3 12"], ["+1 12 1:2:3"], ["+1 1:2:3", "-1 12"],
            ["-1 3:1 1:2:3 7"], ["+1 :5 5:"], ["+1 1_0:1 +3:2"]]
    docs += [[_fuzz_line(rng) for _ in range(rng.integers(1, 9))] for _ in range(600)]
    n_errors = 0
    for k, lines in enumerate(docs):
        end = "\r\n" if k % 2 else "\n"
        raw = [ln + end for ln in lines]  # as from a file opened with newline=""
        want = _outcome(_reference_parse, raw)
        n_errors += want[0] == "error"
        _assert_same(_outcome(parse_libsvm_lines, raw), want)
        path = tmp_path / f"doc{k}.svm"
        path.write_bytes("".join(raw).encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            want = _outcome(_reference_parse, list(fh))
        _assert_same(_outcome(parse_libsvm, path), want)
    assert 100 <= n_errors <= 500  # both outcomes are well represented
