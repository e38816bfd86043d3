"""Reading and writing state-space models.

Two on-disk representations are supported:

* dense text (``"dense"``): a single human-editable file with optional
  ``name``/``field``/``n``/``p``/``q`` headers and ``A =`` / ``B = `` /
  ``C =`` / ``D =`` matrix blocks, one whitespace-separated row per line.
  ``#`` starts a comment.  Complex entries are written like ``1.5-2j``.
  Values are saved with 17 significant digits, so a save/load cycle
  reproduces every float bit for bit.

* Matrix Market (``"mm"``): one ``.mtx`` file per matrix next to a common
  prefix, ``<prefix>.A.mtx`` through ``<prefix>.D.mtx``, read and written
  by :mod:`scipy.io`.  ``D`` may be absent and defaults to zero.
  :mod:`scipy.io` (which loads :mod:`scipy.sparse`) is imported on the
  first Matrix Market read or write, so dense-text users never load it.

Loading validates the model the same way the constructor does and
additionally rejects systems with imaginary-axis poles, since nothing
downstream (Gramians, error norms) is defined for them.
"""

from __future__ import annotations

import pathlib
import re

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    IoError,
    ParseError,
    UnsupportedFormat,
)
from .lti import StateSpace

__all__ = ["detect_format", "load_model", "save_model"]

_ANCHOR = re.compile(r"^\s*(A|B|C|D|name|field|n|p|q)\s*=\s*(.*?)\s*$")
_MATRIX_KEYS = ("A", "B", "C", "D")
_MM_SUFFIXES = tuple(f".{k}.mtx" for k in _MATRIX_KEYS)


def _strip_mm_suffix(path: pathlib.Path) -> pathlib.Path:
    name = path.name
    for suf in _MM_SUFFIXES:
        if name.endswith(suf):
            return path.with_name(name[: -len(suf)])
    if name.endswith(".mtx"):
        return path.with_name(name[: -len(".mtx")])
    return path


def detect_format(path: pathlib.Path, format: str | None = None) -> str:
    """Resolve the on-disk format of ``path``: explicit, else by inspection."""
    if format is not None:
        if format not in ("dense", "mm"):
            raise UnsupportedFormat(
                f"unknown model format {format!r}; expected 'dense' or 'mm'"
            )
        return format
    if path.name.endswith(".mtx"):
        return "mm"
    if path.with_name(path.name + ".A.mtx").exists():
        return "mm"
    return "dense"


def _parse_scalar(tok: str, path, lineno: int):
    try:
        if "j" in tok or "J" in tok:
            return complex(tok)
        return float(tok)
    except ValueError:
        raise ParseError(f"cannot parse number {tok!r}", str(path), lineno) from None


def _parse_block(key: str, rows: list[tuple[int, str]], path) -> np.ndarray:
    """Matrix of one block's (line number, text) rows.

    A real block is parsed by one ``np.loadtxt`` call, whose float parser
    rounds exactly as ``float()`` does.  A complex block, or a real one
    that call rejects, goes through the per-token loop: its values stand
    for tokens that only Python accepts (digit separators, say), and its
    errors name the line.
    """
    if not any("j" in row or "J" in row for _, row in rows):
        try:
            return np.loadtxt(
                [row for _, row in rows], dtype=float, comments=None, ndmin=2
            )
        except ValueError:
            pass
    parsed = []
    width = None
    for lineno, row in rows:
        vals = [_parse_scalar(tok, path, lineno) for tok in row.split()]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ParseError(
                f"row of {key} has {len(vals)} columns, expected {width}",
                str(path),
                lineno,
            )
        parsed.append(vals)
    return np.array(parsed)


def _parse_dense(text: str, path: pathlib.Path):
    sections: dict[str, list[tuple[int, str]]] = {}
    metas: dict[str, tuple[int, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _ANCHOR.match(line)
        if m:
            key, rest = m.group(1), m.group(2)
            if key in _MATRIX_KEYS:
                if key in sections:
                    raise ParseError(f"matrix {key} given twice", str(path), lineno)
                sections[key] = []
                current = key
                if rest:
                    sections[key].append((lineno, rest))
            else:
                if key in metas:
                    raise ParseError(f"header {key} given twice", str(path), lineno)
                metas[key] = (lineno, rest)
                current = None
        elif current is not None:
            sections[current].append((lineno, line))
        else:
            raise ParseError(
                "content outside any matrix block", str(path), lineno
            )

    for key in ("A", "B", "C"):
        if key not in sections:
            raise ParseError(f"matrix {key} is missing", str(path))

    dims: dict[str, int] = {}
    for dim in ("n", "p", "q"):
        if dim in metas:
            lineno, val = metas[dim]
            try:
                dims[dim] = int(val)
            except ValueError:
                raise ParseError(
                    f"header {dim} is not an integer: {val!r}", str(path), lineno
                ) from None

    matrices: dict[str, np.ndarray] = {}
    any_complex = False
    empty_shapes = {"A": ("n", "n"), "B": ("n", "q"), "C": ("p", "n"), "D": ("p", "q")}
    for key, rows in sections.items():
        if rows:
            mat = _parse_block(key, rows, path)
        else:
            # An empty block is legal only when the headers pin down a
            # degenerate shape (zero-state or zero-I/O models).
            rdim, cdim = empty_shapes[key]
            if rdim not in dims or cdim not in dims:
                raise ParseError(f"matrix {key} has no rows", str(path))
            if dims[rdim] != 0 and dims[cdim] != 0:
                raise ParseError(
                    f"matrix {key} has no rows but headers give it shape "
                    f"({dims[rdim]}, {dims[cdim]})",
                    str(path),
                )
            mat = np.zeros((dims[rdim], dims[cdim]))
        any_complex = any_complex or np.iscomplexobj(mat)
        matrices[key] = mat

    field = None
    if "field" in metas:
        lineno, val = metas["field"]
        if val not in ("real", "complex"):
            raise ParseError(
                f"field must be 'real' or 'complex', got {val!r}", str(path), lineno
            )
        field = val
    if field == "real" and any_complex:
        raise ParseError(
            "file declares field = real but contains complex entries", str(path)
        )
    if field is None:
        field = "complex" if any_complex else "real"

    for dim, key, axis in (("n", "A", 0), ("p", "C", 0), ("q", "B", 1)):
        if dim in dims:
            have = matrices[key].shape[axis]
            if dims[dim] != have:
                raise ParseError(
                    f"header says {dim} = {dims[dim]} but {key} implies {have}",
                    str(path),
                    metas[dim][0],
                )
    return matrices, field


def _fmt_entry(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{x:.17g}"


def _dense_text(sys: StateSpace) -> str:
    lines = [
        "# dense state-space model",
        f"field = {sys.scalar_field}",
        f"n = {sys.n}",
        f"p = {sys.p}",
        f"q = {sys.q}",
    ]
    cast = float if sys.is_real else complex
    for key in _MATRIX_KEYS:
        mat = np.atleast_2d(getattr(sys, key))
        lines.append(f"{key} =")
        if 0 in mat.shape:
            continue
        for row in mat:
            lines.append(" ".join(_fmt_entry(cast(x)) for x in row))
    return "\n".join(lines) + "\n"


def _mm_to_dense(obj) -> np.ndarray:
    if hasattr(obj, "todense"):
        return np.asarray(obj.todense())
    return np.asarray(obj)


# scipy's Matrix Market fast path cannot handle empty operators (the writer
# spins on a zero row count and the reader faults on a zero in the size
# line), so order-zero models are serialized from the header alone.


def _mm_read_file(path: pathlib.Path) -> np.ndarray:
    with open(path, "rb") as fh:
        banner = fh.readline().split()
        line = fh.readline()
        while line.startswith(b"%"):
            line = fh.readline()
    if len(banner) >= 4 and banner[2] == b"array":
        try:
            rows, cols = (int(tok) for tok in line.split()[:2])
        except ValueError:
            rows = cols = -1
        if rows == 0 or cols == 0:
            dtype = complex if banner[3] == b"complex" else float
            return np.zeros((rows, cols), dtype=dtype)
    import scipy.io

    return _mm_to_dense(scipy.io.mmread(path))


def _mm_write_file(target: pathlib.Path, mat: np.ndarray) -> None:
    if 0 in mat.shape:
        field = "complex" if np.iscomplexobj(mat) else "real"
        target.write_text(
            f"%%MatrixMarket matrix array {field} general\n"
            f"{mat.shape[0]} {mat.shape[1]}\n"
        )
        return
    import scipy.io

    scipy.io.mmwrite(target, mat, precision=17)


def _load_mm(prefix: pathlib.Path) -> dict[str, np.ndarray]:
    matrices = {}
    for key in _MATRIX_KEYS:
        candidates = [
            prefix.with_name(prefix.name + f".{key}.mtx"),
            prefix.with_name(prefix.name + f".{key}"),
            prefix.with_name(prefix.name + f"_{key}.mtx"),
        ]
        found = next((c for c in candidates if c.exists()), None)
        if found is None:
            if key == "D":
                continue
            raise IoError(
                f"missing Matrix Market file for {key}: tried "
                + ", ".join(str(c) for c in candidates)
            )
        try:
            matrices[key] = _mm_read_file(found)
        except OSError as exc:
            raise IoError(f"cannot read {found}: {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"bad Matrix Market data: {exc}", str(found)) from exc
    return matrices


def load_model(path, format: str | None = None) -> StateSpace:
    """Load a state-space model from disk.

    Parameters
    ----------
    path : str or pathlib.Path
        File name (dense text) or prefix (Matrix Market; a full name like
        ``model.A.mtx`` is also accepted and stripped to its prefix).
    format : str, optional
        ``"dense"`` or ``"mm"``.  Omitted: Matrix Market when the path
        mentions ``.mtx`` or a ``<path>.A.mtx`` file exists, dense text
        otherwise.

    Raises
    ------
    ParseError
        On malformed content, with file and line position where known.
    IoError
        If a required file cannot be read.
    InvariantViolation
        If the loaded system has a pole on the imaginary axis.
    """
    path = pathlib.Path(path)
    kind = detect_format(path, format)
    if kind == "mm":
        matrices = _load_mm(_strip_mm_suffix(path))
        field = (
            "complex"
            if any(np.iscomplexobj(m) for m in matrices.values())
            else "real"
        )
    else:
        try:
            text = path.read_text()
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc
        matrices, field = _parse_dense(text, path)

    A, B, C = matrices["A"], matrices["B"], matrices["C"]
    D = matrices.get("D")
    try:
        sys = StateSpace(A, B, C, D, scalar_field=field)
    except (ValueError, DimensionMismatch, InvariantViolation) as exc:
        raise ParseError(str(exc), str(path)) from exc
    # The poles come from the ordered Schur form that the response evaluator
    # and the Gramian of this system then reuse.
    sys.assert_no_imaginary_poles()
    return sys


def save_model(sys: StateSpace, path, format: str | None = None) -> None:
    """Write a model to disk in the chosen representation.

    Dense text goes to ``path`` itself; Matrix Market writes the four
    files ``<path>.A.mtx`` ... ``<path>.D.mtx`` (a trailing ``.mtx`` on
    ``path`` is stripped first).  Parent directories must exist.
    """
    path = pathlib.Path(path)
    kind = detect_format(path, format)
    try:
        if kind == "mm":
            prefix = _strip_mm_suffix(path)
            for key in _MATRIX_KEYS:
                target = prefix.with_name(prefix.name + f".{key}.mtx")
                _mm_write_file(target, np.atleast_2d(getattr(sys, key)))
        else:
            path.write_text(_dense_text(sys))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
