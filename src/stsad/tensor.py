"""Dense tensor primitives: unfolding, mode products, norms, support
projections, soft thresholding, and the plain-text tensor file format.

Tensors are plain numpy arrays of any order >= 2.  Mode indices are 1-based
throughout (mode 1 is the first axis).  The mode-n unfolding arranges the
remaining modes cyclically, n+1, ..., N, 1, ..., n-1, with the first of that
list varying fastest along the columns.  On disk a tensor is stored as a
header line ``dims: I1 I2 ... IN`` followed by one value per line, one line per
element, with the first index varying fastest.
"""

from __future__ import annotations

import bisect
import math
import warnings

import numpy as np

__all__ = [
    "unfold",
    "fold",
    "mode_n_product",
    "tensor_norms",
    "project_support",
    "soft_threshold",
    "save_tensor",
    "load_tensor",
    "save_mask",
    "load_mask",
]


def _check_mode(ndim, mode):
    if not isinstance(mode, (int, np.integer)) or not 1 <= mode <= ndim:
        raise ValueError(f"mode must be an integer in [1, {ndim}], got {mode!r}")


def _cyclic_axes(ndim, mode):
    # axes n, n+1, ..., N, 1, ..., n-1 (0-based)
    return tuple((mode - 1 + i) % ndim for i in range(ndim))


def unfold(tensor, mode):
    """Mode-``mode`` unfolding of a tensor into an ``I_n x prod(I_rest)`` matrix.

    Columns enumerate the remaining modes in cyclic order starting at
    ``mode + 1``, first listed mode varying fastest.
    """
    tensor = np.asarray(tensor)
    _check_mode(tensor.ndim, mode)
    perm = _cyclic_axes(tensor.ndim, mode)
    return tensor.transpose(perm).reshape(tensor.shape[mode - 1], -1, order="F")


def fold(matrix, mode, dims):
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    matrix = np.asarray(matrix)
    dims = tuple(int(d) for d in dims)
    _check_mode(len(dims), mode)
    rest = math.prod(dims) // dims[mode - 1]
    if matrix.shape != (dims[mode - 1], rest):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match mode-{mode} "
            f"unfolding of dims {dims}"
        )
    ndim = len(dims)
    perm = _cyclic_axes(ndim, mode)
    inv = tuple((i - mode + 1) % ndim for i in range(ndim))
    cyc_dims = tuple(dims[p] for p in perm)
    return matrix.reshape(cyc_dims, order="F").transpose(inv)


def mode_n_product(tensor, matrix, mode, out=None):
    """Mode-``mode`` product ``tensor x_mode matrix``, into ``out`` if given.

    ``matrix`` has shape ``(J, I_mode)``; the result replaces dimension
    ``I_mode`` with ``J``.  Equivalent to folding ``matrix @ unfold(tensor,
    mode)`` back to a tensor.  ``out`` must be C-contiguous.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    _check_mode(tensor.ndim, mode)
    if matrix.ndim != 2 or matrix.shape[1] != tensor.shape[mode - 1]:
        raise ValueError(
            f"matrix of shape {matrix.shape} cannot multiply mode {mode} "
            f"of tensor with dims {tensor.shape}"
        )
    k = mode - 1
    J, I = matrix.shape
    shape = tensor.shape[:k] + (J,) + tensor.shape[k + 1:]
    if out is None:
        out = np.empty(shape, dtype=np.result_type(tensor, matrix))
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    # the C-order tensor is a stack of a (I_mode x b) slices: no transposed copy
    a, b = math.prod(tensor.shape[:k]), math.prod(tensor.shape[k + 1:])
    if b == 1:
        # rows times matrix^T: a C-contiguous matrix^T makes OpenBLAS run the
        # small-rank products of the solver about 2x faster
        mt = np.ascontiguousarray(matrix.T)
        np.matmul(tensor.reshape(a, I), mt, out=out.reshape(a, J))
    else:
        np.matmul(matrix, tensor.reshape(a, I, b), out=out.reshape(a, J, b))
    return out


def tensor_norms(tensor):
    """Return ``(frobenius, l1)`` norms of a tensor."""
    flat = np.abs(np.asarray(tensor, dtype=float).ravel())
    return float(np.sqrt(np.dot(flat, flat))), float(flat.sum())


def project_support(tensor, observed):
    """Keep entries on the support; zero the rest."""
    tensor = np.asarray(tensor)
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != tensor.shape:
        raise ValueError(
            f"mask shape {observed.shape} does not match tensor shape {tensor.shape}"
        )
    return np.where(observed, tensor, 0.0)


def soft_threshold(tensor, phi, out=None):
    """Elementwise shrinkage toward zero by ``phi`` (the l1 proximal operator),
    into ``out`` if given (not ``tensor`` itself)."""
    if phi < 0:
        raise ValueError(f"threshold must be nonnegative, got {phi}")
    tensor = np.asarray(tensor)
    out = np.abs(tensor, out=out)
    out -= phi
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, tensor, out=out)


def _header(shape):
    return "dims: " + " ".join(str(d) for d in shape) + "\n"


def save_tensor(path, tensor):
    """Write a tensor in the text format (17 significant digits, exact round trip)."""
    tensor = np.asarray(tensor, dtype=float)
    values = tensor.ravel(order="F")
    with open(path, "w") as fh:
        fh.write(_header(tensor.shape))
        # one %-format over all values: the same text as "{:.17g}", and
        # about twice as fast as formatting value by value
        fh.write(("%.17g\n" * values.size) % tuple(values.tolist()))


def _read_header(fh, path):
    header = fh.readline()
    if not header.startswith("dims:"):
        raise ValueError(f"{path}: expected header starting with 'dims:', got {header!r}")
    try:
        dims = tuple(int(t) for t in header[len("dims:"):].split())
    except ValueError as exc:
        raise ValueError(f"{path}: malformed dims header {header!r}") from exc
    if not dims or any(d <= 0 for d in dims):
        raise ValueError(f"{path}: dims must be positive integers, got {dims}")
    return dims


# lines per np.loadtxt call while a bad line is looked for
_CHUNK = 4096


def _read_table(fh, path, width, delimiter=None, check=lambda rows: True):
    """The body of the open text file ``fh``, after its one header line, as
    an (n, ``width``) table of finite floats that passes ``check(table)``.

    Otherwise raises ValueError naming ``path:line`` (header = line 1) of the
    first bad line; ``check`` must pass on every prefix of a body it passes.
    """
    def parse(lines):  # None if np.loadtxt rejects a line
        with warnings.catch_warnings():
            # an empty body is reported by the caller's count or coverage check
            warnings.simplefilter("ignore", UserWarning)
            try:
                return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
            except ValueError:
                return None

    def good(rows):
        return rows.size == 0 or (
            rows.shape[1] == width and np.isfinite(rows).all() and check(rows))

    rows = parse(fh)
    if rows is not None and good(rows):
        return rows if rows.size else np.empty((0, width))
    fh.seek(0)
    line = _first_bad_line(fh.readlines()[1:], parse, good, delimiter or " ")
    raise ValueError(f"{path}:{line}: bad row")


def _first_bad_line(lines, parse, good, separator):
    """1 + the length of the shortest prefix of the body ``lines`` that does not
    parse or whose rows are not ``good``, for a body with such a prefix.

    The body is parsed a chunk at a time, and only the chunk with the first
    unparsable line is bisected.  The rows parsed before it are then bisected
    for the first row that is not good, without parsing them again.
    """
    blocks = []  # (first line, lines, pad, rows) of each chunk, up to a bad line
    pad, bad = [], len(lines) + 1
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start:start + _CHUNK]
        # pad, one row of the column count so far, makes a chunk parse as it
        # would after the lines before it
        rows = parse(pad + chunk)
        if rows is None:
            fails = lambda k: parse(pad + chunk[:k]) is None
            k = bisect.bisect_left(range(len(chunk) + 1), True, key=fails)
            bad, chunk = start + k, chunk[:k - 1]
            rows = parse(pad + chunk)
        rows = rows[len(pad):]
        blocks.append((start, chunk, pad, rows))
        if rows.size and not pad:
            pad = [separator.join(["0"] * rows.shape[1]) + "\n"]
        if bad <= len(lines):
            break
    parsed = [rows for *_, rows in blocks if rows.size]
    table = np.concatenate(parsed) if parsed else np.empty((0, 1))
    m = bisect.bisect_left(range(len(table) + 1), True, key=lambda m: not good(table[:m]))
    for start, chunk, pad, rows in blocks:
        if m > len(rows):
            m -= len(rows)
            continue
        # the line of the chunk's m-th row
        count = lambda k: len(parse(pad + chunk[:k])) - len(pad)
        return start + bisect.bisect_left(range(len(chunk) + 1), m, key=count) + 1
    return bad + 1


def load_tensor(path):
    """Read a tensor written by :func:`save_tensor`."""
    with open(path) as fh:
        dims = _read_header(fh, path)
        values = _read_table(fh, path, 1)
    if values.size != math.prod(dims):
        raise ValueError(
            f"{path}: header dims {dims} require {math.prod(dims)} values, "
            f"found {values.size}"
        )
    return values.reshape(dims, order="F")


def save_mask(path, mask):
    """Write a boolean mask in the tensor text format with 0/1 values."""
    mask = np.asarray(mask, dtype=bool)
    lines = np.full((mask.size, 2), ord("\n"), dtype=np.uint8)  # "0\n" or "1\n"
    lines[:, 0] = mask.ravel(order="F") + ord("0")
    with open(path, "wb") as fh:
        fh.write(_header(mask.shape).encode())
        fh.write(lines.tobytes())


def load_mask(path):
    """Read a 0/1 mask written by :func:`save_mask` as a boolean array."""
    with open(path, "rb") as fh:
        header, body = fh.readline(), np.frombuffer(fh.read(), dtype=np.uint8)
    words = header[len(b"dims:"):].split()
    dims = tuple(int(w) for w in words) if all(w.isdigit() for w in words) else ()
    # the file save_mask writes, "0\n" or "1\n" per element, decodes as bytes
    if (min(dims, default=0) > 0 and header == _header(dims).encode()
            and body.size == 2 * math.prod(dims) and (body[1::2] == ord("\n")).all()):
        bits = body[0::2] - ord("0")
        if (bits <= 1).all():
            return bits.astype(bool).reshape(dims, order="F")
    # any other spelling of 0 and 1 (1.0, 1e0, \r\n line ends) is read as text
    arr = load_tensor(path)
    if not np.isin(arr, (0.0, 1.0)).all():
        raise ValueError(f"{path}: mask values must be 0 or 1")
    return arr.astype(bool)
