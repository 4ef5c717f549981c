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
    """Keep entries on the support, zero the rest; the result has the tensor's layout."""
    tensor = np.asarray(tensor)
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != tensor.shape:
        raise ValueError(
            f"mask shape {observed.shape} does not match tensor shape {tensor.shape}"
        )
    out = np.zeros_like(tensor, dtype=np.result_type(tensor, 0.0))
    np.copyto(out, tensor, where=observed)
    return out


def soft_threshold(tensor, phi, out=None):
    """Elementwise shrinkage toward zero by ``phi`` (the l1 proximal operator),
    into ``out`` if given (not ``tensor`` itself)."""
    if not phi >= 0:  # NaN fails too
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


def _read_table(fh, path, width, delimiter=None, bad_rows=lambda rows: np.zeros(len(rows), bool)):
    """The body of the open text file ``fh``, after its one header line, as
    an (n, ``width``) table of finite floats.

    ``bad_rows(table)`` returns one bool per row, True where the row is bad
    given the rows before it.  A line is bad when np.loadtxt cannot read it
    as ``width`` values, and a row when it is not finite or ``bad_rows``
    flags it.  A bad line or row raises ValueError naming ``path:line``
    (header = line 1) of the first one.
    """
    def parse(lines):  # None unless np.loadtxt reads the lines as width columns
        with warnings.catch_warnings():
            # an empty body is reported by the caller's count or coverage check
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
            except ValueError:
                return None
        if not rows.size:
            return np.empty((0, width))
        return rows if rows.shape[1] == width else None

    rows = parse(fh)
    # one array of flags at a time besides the table keeps the good path's
    # peak memory under np.loadtxt's own
    if rows is not None and np.isfinite(rows).all() and not bad_rows(rows).any():
        return rows
    # chunk by chunk up to the first chunk with an unreadable line, which is
    # bisected: a prefix of the chunk reads as width columns until it holds it
    fh.seek(0)
    lines, tables, end = fh.readlines()[1:], [], None
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start:start + _CHUNK]
        tables.append(parse(chunk))
        if tables[-1] is None:
            end = start + bisect.bisect_left(range(len(chunk) + 1), True,
                                             key=lambda k: parse(chunk[:k]) is None) - 1
            tables[-1] = parse(lines[start:end])
            break
    table = np.concatenate(tables)
    flagged = np.flatnonzero(~np.isfinite(table).all(axis=1) | bad_rows(table))
    if flagged.size:  # the line of the first flagged row: every line not blank is a row
        end = [i for i, line in enumerate(lines[:end]) if line.strip()][flagged[0]]
    raise ValueError(f"{path}:{end + 2}: bad row")


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
