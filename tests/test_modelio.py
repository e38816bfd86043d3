"""On-disk model formats: byte-exact round trips and parse diagnostics."""

import os
import pathlib
import subprocess
import sys as _sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.linalg

import tanmor.lti
from tanmor import modelio
from tanmor import (
    InvariantViolation,
    IoError,
    ParseError,
    StateSpace,
    UnsupportedFormat,
    detect_format,
    freq_sweep,
    load_model,
    save_model,
)
from tanmor.lti import IMAG_AXIS_RTOL

from helpers import random_stable


def assert_same_model(a, b):
    assert a.scalar_field == b.scalar_field
    assert (a.n, a.p, a.q) == (b.n, b.p, b.q)
    for key in "ABCD":
        npt.assert_array_equal(getattr(a, key), getattr(b, key))


class TestRoundTrip:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("fmt", ["dense", "mm"])
    def test_bit_exact(self, tmp_path, field, fmt):
        sys = random_stable(5, 2, 3, seed=0, field=field, feedthrough=True)
        target = tmp_path / "model"
        save_model(sys, target, format=fmt)
        back = load_model(target, format=fmt)
        assert_same_model(sys, back)

    def test_awkward_values_survive_dense(self, tmp_path):
        # Digits that expose short-precision writers.
        A = np.array([[-1.0 / 3.0, np.pi], [-np.e, -7.000000000000001]])
        sys = StateSpace(A, [[1e-300], [1.2345678901234567]], [[3.0, -0.1]])
        save_model(sys, tmp_path / "m.txt")
        back = load_model(tmp_path / "m.txt")
        assert_same_model(sys, back)

    def test_order_zero_round_trip(self, tmp_path):
        sys = StateSpace.constant(np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 3.0]]))
        for fmt in ("dense", "mm"):
            target = tmp_path / f"konst_{fmt}"
            save_model(sys, target, format=fmt)
            assert_same_model(sys, load_model(target, format=fmt))

    def test_mm_writes_four_files(self, tmp_path):
        sys = random_stable(3, 1, 2, seed=1)
        save_model(sys, tmp_path / "sys", format="mm")
        for key in "ABCD":
            assert (tmp_path / f"sys.{key}.mtx").exists()


class TestDenseParsing:
    def load_text(self, tmp_path, text):
        f = tmp_path / "model.txt"
        f.write_text(text)
        return load_model(f)

    def test_hand_written_with_comments(self, tmp_path):
        sys = self.load_text(
            tmp_path,
            """\
# a one-state example
name = little
A = -2.0   # the pole
B =
1.0
C = 3.0
""",
        )
        assert sys.n == 1
        assert sys.A[0, 0] == -2.0
        assert sys.C[0, 0] == 3.0
        assert not sys.D.any()

    def test_inline_and_block_rows_mix(self, tmp_path):
        sys = self.load_text(
            tmp_path,
            """\
A = -1.0 0.5
0.0 -3.0
B =
1.0
0.0
C = 1.0 0.0
""",
        )
        assert sys.n == 2
        npt.assert_array_equal(sys.A, [[-1.0, 0.5], [0.0, -3.0]])

    def test_complex_tokens(self, tmp_path):
        sys = self.load_text(
            tmp_path,
            """\
A = -1.0+2j
B = 1.0
C = 0.5-0.5J
""",
        )
        assert sys.scalar_field == "complex"
        assert sys.A[0, 0] == -1.0 + 2.0j
        assert sys.C[0, 0] == 0.5 - 0.5j

    def test_field_header_promotes(self, tmp_path):
        sys = self.load_text(
            tmp_path,
            """\
field = complex
A = -1.0
B = 1.0
C = 1.0
""",
        )
        assert sys.scalar_field == "complex"
        assert sys.A.dtype == np.complex128

    def test_missing_d_defaults_to_zero(self, tmp_path):
        sys = self.load_text(tmp_path, "A = -1.0\nB = 1.0\nC = 1.0\n")
        assert sys.D.shape == (1, 1)
        assert sys.D[0, 0] == 0.0

    @pytest.mark.parametrize(
        "text, match, line",
        [
            ("A = -1\nA = -2\nB = 1\nC = 1\n", "given twice", 2),
            ("n = 1\nn = 1\nA = -1\nB = 1\nC = 1\n", "header n given twice", 2),
            ("1.0 2.0\nA = -1\nB = 1\nC = 1\n", "outside any matrix", 1),
            ("A = -1\nB = 1\n", "matrix C is missing", None),
            ("A = -1\nB = one\nC = 1\n", "cannot parse number 'one'", 2),
            ("A = -1 0\n-2\nB = 1\nC = 1\n", "has 1 columns, expected 2", 2),
            ("field = rational\nA = -1\nB = 1\nC = 1\n", "must be 'real' or 'complex'", 1),
            ("field = real\nA = -1+1j\nB = 1\nC = 1\n", "declares field = real", None),
            ("n = two\nA = -1\nB = 1\nC = 1\n", "not an integer", 1),
            ("A =\nB = 1\nC = 1\n", "matrix A has no rows", None),
            ("n = 2\np = 1\nq = 1\nA =\nB = 1 1\nC = 1 1\n", "headers give it shape", None),
            ("n = 2\nA = -1\nB = 1\nC = 1\n", "header says n = 2 but A implies 1", 1),
        ],
    )
    def test_parse_failures(self, tmp_path, text, match, line):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        with pytest.raises(ParseError, match=match) as err:
            load_model(f)
        assert err.value.path == str(f)
        if line is not None:
            assert err.value.line == line

    def test_constructor_problems_surface_as_parse_errors(self, tmp_path):
        f = tmp_path / "shape.txt"
        f.write_text("A = -1\nB = 1\nC = 1 1\n")  # C wants two states
        with pytest.raises(ParseError):
            load_model(f)
        f2 = tmp_path / "nonfinite.txt"
        f2.write_text("A = nan\nB = 1\nC = 1\n")
        with pytest.raises(ParseError, match="finite"):
            load_model(f2)

    def test_imaginary_axis_pole_rejected(self, tmp_path):
        f = tmp_path / "osc.txt"
        f.write_text("A = 0 1\n-1 0\nB = 1\n0\nC = 1 0\n")
        with pytest.raises(InvariantViolation):
            load_model(f)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pole_check_reads_the_kept_schur_form(self, tmp_path, monkeypatch, field):
        # A damped pair at 3j whose real part sits at half, then at twice,
        # the imaginary-axis band of 1e-10 (1 + |lam|): the first load is
        # refused, the second loads.  The verdict comes from the diagonal
        # blocks of the Schur form that the response evaluator (and the
        # Gramian) then reuse, so no eigensolver runs on A or T and A is
        # factored once.
        def model(scale):
            re = -scale * IMAG_AXIS_RTOL * (1.0 + 3.0)
            if field == "real":
                pair = [[re, 3.0], [-3.0, re]]
            else:
                pair = [[re + 3j, 0.0], [0.0, -1.0 - 0.5j]]
            A = np.zeros((4, 4), dtype=complex if field == "complex" else float)
            A[:2, :2] = pair
            A[2:, 2:] = [[-1.0, 0.5], [0.0, -2.0]]
            A[:2, 2:] = 0.1
            return StateSpace(A, np.ones((4, 2)), np.arange(8.0).reshape(2, 4), scalar_field=field)

        def no_eigensolver(*args, **kwargs):
            raise AssertionError("the pole check ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigensolver)
        monkeypatch.setattr(np.linalg, "eig", no_eigensolver)
        on_axis, off_axis = tmp_path / "on.txt", tmp_path / "off.txt"
        save_model(model(0.5), on_axis)
        save_model(model(2.0), off_axis)
        with pytest.raises(InvariantViolation, match="imaginary axis"):
            load_model(on_axis)
        sys = load_model(off_axis)
        assert sys in tanmor.lti._SCHUR_FORMS
        monkeypatch.undo()

        seen = []
        schur = scipy.linalg.schur

        def recording(a, *args, **kwargs):
            seen.append(a)
            return schur(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", recording)
        freq_sweep(sys, [0.5, 3.0])
        assert seen == []
        npt.assert_allclose(
            np.sort_complex(tanmor.lti._schur_poles(sys)),
            np.sort_complex(np.linalg.eigvals(sys.A)),
            rtol=1e-14,
        )


def python_parse(token):
    """The reference parse of one token: complex() if it has a j, else float()."""
    return complex(token) if "j" in token.lower() else float(token)


def parse_block(rows):
    """Matrix A of a dense text whose A block holds ``rows`` of tokens."""
    text = "A =\n" + "\n".join(" ".join(row) for row in rows) + "\nB = 1\nC = 1\n"
    return modelio._parse_dense(text, "block.txt")[0]["A"]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDenseValues:
    """A block parses bit for bit as float() and complex() parse its tokens."""

    @staticmethod
    def every_exponent(rng):
        # One double per biased exponent, subnormals included, with random
        # mantissas and signs.
        exponent = np.arange(2047, dtype=np.uint64)
        mantissa = rng.integers(0, 2**52, size=exponent.size, dtype=np.uint64)
        sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
        bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
        return bits.view(np.float64).tolist()

    def test_random_doubles_of_every_exponent(self):
        values = self.every_exponent(np.random.default_rng(0))
        tokens = [
            fmt.format(v)
            for v in values
            for fmt in ("{:.17g}", "{!r}", "{:.6e}", "{:.3E}", "{:+.20g}")
        ]
        tokens += ["inf", "-inf", "nan", "-nan", "Infinity", "+.5e+3", "5.", "1e400", "-1e-400"]
        tokens += ["0"] * (-len(tokens) % 10)
        rows = [tokens[i : i + 10] for i in range(0, len(tokens), 10)]
        assert_same_bits(parse_block(rows), np.array([[float(t) for t in row] for row in rows]))

    def test_complex_entries(self):
        rng = np.random.default_rng(1)
        real, imag = self.every_exponent(rng), self.every_exponent(rng)[::-1]
        tokens = [f"{a!r}{b:+.17g}j" for a, b in zip(real, imag)]
        tokens += [f"{b!r}j" for b in imag[:100]] + [repr(a) for a in real[:100]]
        tokens += ["-0.0", "nan", "-0j", "-2j", "1-0j", "nan+nanj", "inf-infj", "1e5+1e-5j"]
        tokens = list(rng.permutation(tokens))
        tokens += ["0"] * (-len(tokens) % 8)
        rows = [tokens[i : i + 8] for i in range(0, len(tokens), 8)]
        want = np.array([[python_parse(t) for t in row] for row in rows])
        assert want.dtype == np.complex128
        assert_same_bits(parse_block(rows), want)

    @pytest.mark.parametrize(
        "token", ["1_000.5", "2.5+1J", "(1+2j)", "1-j", "1e5J"]
    )
    def test_tokens_only_python_reads(self, token):
        rows = [[token, "1.5j"], ["-0.5", "2"]]
        want = np.array([[python_parse(t) for t in row] for row in rows])
        assert_same_bits(parse_block(rows), want)

    @pytest.mark.parametrize("token", ["(1)", "1+-2j", "1++2j", "(-0.5)"])
    def test_tokens_python_rejects_stay_rejected(self, tmp_path, token):
        f = tmp_path / "lenient.txt"
        f.write_text(f"A = -1 1j\n2 {token}\nB = 1\n1\nC = 1 1\n")
        with pytest.raises(ParseError, match="cannot parse number") as err:
            load_model(f)
        assert err.value.line == 2


class TestMatrixMarket:
    def test_missing_required_matrix(self, tmp_path):
        sys = random_stable(3, 1, 1, seed=2)
        save_model(sys, tmp_path / "part", format="mm")
        (tmp_path / "part.B.mtx").unlink()
        with pytest.raises(IoError, match="part.B"):
            load_model(tmp_path / "part", format="mm")

    def test_d_file_optional(self, tmp_path):
        sys = random_stable(3, 2, 2, seed=3)
        save_model(sys, tmp_path / "nod", format="mm")
        (tmp_path / "nod.D.mtx").unlink()
        back = load_model(tmp_path / "nod", format="mm")
        assert back.D.shape == (2, 2)
        assert not back.D.any()

    def test_alternate_file_names(self, tmp_path):
        sys = random_stable(2, 1, 1, seed=4)
        save_model(sys, tmp_path / "alt", format="mm")
        (tmp_path / "alt.A.mtx").rename(tmp_path / "alt.A")
        (tmp_path / "alt.B.mtx").rename(tmp_path / "alt_B.mtx")
        back = load_model(tmp_path / "alt", format="mm")
        assert_same_model(sys, back)

    def test_full_member_name_accepted(self, tmp_path):
        sys = random_stable(2, 1, 1, seed=5)
        save_model(sys, tmp_path / "pfx", format="mm")
        back = load_model(tmp_path / "pfx.A.mtx")
        assert_same_model(sys, back)

    def test_garbage_member_file(self, tmp_path):
        sys = random_stable(2, 1, 1, seed=6)
        save_model(sys, tmp_path / "bad", format="mm")
        (tmp_path / "bad.C.mtx").write_text("not a matrix market header\n")
        with pytest.raises(ParseError, match="Matrix Market"):
            load_model(tmp_path / "bad", format="mm")

    def test_scipy_io_loaded_only_for_matrix_market(self):
        # Importing the package and its CLI loads neither scipy.io nor the
        # scipy.sparse that it drags in; a fresh interpreter shows it.
        code = (
            "import sys, tanmor, tanmor.cli; "
            "print(sorted(m for m in ('scipy.io', 'scipy.sparse') if m in sys.modules))"
        )
        src = str(pathlib.Path(tanmor.lti.__file__).resolve().parents[1])
        out = subprocess.run(
            [_sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_imaginary_axis_pole_rejected(self, tmp_path):
        scipy.io.mmwrite(tmp_path / "osc.A.mtx", np.array([[0.0, 1.0], [-1.0, 0.0]]))
        scipy.io.mmwrite(tmp_path / "osc.B.mtx", np.array([[1.0], [0.0]]))
        scipy.io.mmwrite(tmp_path / "osc.C.mtx", np.array([[1.0, 0.0]]))
        with pytest.raises(InvariantViolation):
            load_model(tmp_path / "osc", format="mm")


class TestDetectFormat:
    def test_explicit_wins(self, tmp_path):
        assert detect_format(tmp_path / "x.mtx", "dense") == "dense"
        assert detect_format(tmp_path / "y.txt", "mm") == "mm"

    def test_unknown_tag(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            detect_format(tmp_path / "x", "hdf5")

    def test_mtx_suffix(self, tmp_path):
        assert detect_format(tmp_path / "model.A.mtx") == "mm"

    def test_sibling_probe(self, tmp_path):
        (tmp_path / "probe.A.mtx").write_text("")
        assert detect_format(tmp_path / "probe") == "mm"
        assert detect_format(tmp_path / "other") == "dense"

    def test_missing_dense_file(self, tmp_path):
        with pytest.raises(IoError):
            load_model(tmp_path / "nonexistent.txt")
