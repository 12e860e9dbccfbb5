"""Dense numerical kernels shared by the classifiers.

The batch-first Gram-space core every classifier runs on (the linear and
RBF kernels, top-M selection with ascending-index ties, stacked regularized
SPD solves, per-class residuals in Gram arithmetic or from explicit
features, identification ratios), the parallel chunk loop and the BLAS
thread pin it runs under, the first principal component for guidance
images, and mutual coherence.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from btckit.data import Dictionary, NORM_L2
from btckit.errors import ConfigError, NumericalError

# concurrent.futures is imported by the first parallel chunk loop, so importing btckit does not load it
if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Batches reach the core in chunks of about this many bytes of float64 work
# (S x N kernel values, S x M x M systems): memory stays bounded for any
# test set, cube or column set, and per-chunk overhead stays negligible.
CHUNK_BYTES = 1 << 20

# A residual radicand below this fraction of max(K(y,y), 1), less the
# rounding its terms can carry, is a numerical integrity failure; a negative
# one above it is rounding, clamped to zero.
RADICAND_FLOOR = -1e-10

# _tril_inverse inverts diagonal blocks of at most this order by LU
TRIL_BLOCK = 32

KERNEL_RBF = "rbf"
KERNEL_LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind and, for the RBF kernel, its width gamma."""

    kind: str = KERNEL_RBF
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (KERNEL_RBF, KERNEL_LINEAR):
            raise ConfigError(f"unknown kernel {self.kind!r}")
        if self.kind == KERNEL_RBF and not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be finite and positive, got {self.gamma}")


def chunks(n_items: int, floats_per_item: int) -> Iterator[slice]:
    """Consecutive slices of range(n_items), each holding about CHUNK_BYTES of work."""
    step = max(1, CHUNK_BYTES // (8 * max(floats_per_item, 1)))
    for lo in range(0, n_items, step):
        yield slice(lo, min(lo + step, n_items))


# marks a thread while it runs chunks of map_chunks, so a nested call runs inline
_chunk_thread = threading.local()


def map_chunks(fn: Callable[[slice], None], slices: Iterable[slice]) -> None:
    """Call ``fn`` on every slice, on the calling thread and up to W - 1 helper threads.

    W is the number of CPUs this process may run on, or of slices if fewer;
    the helpers are the process's kept threads (:func:`_helpers`).
    The threads take slices in order from one shared iterator, and each call
    must write only its own part of the output, so the result is the inline
    loop's to the bit. The loop runs inline, in order, when W < 2, when
    called from a chunk of another map_chunks, or when NumPy's BLAS is not
    known to run one thread (see :func:`one_blas_thread`), whose own threads
    would then compete with these. After a failure no slice is started; the
    calls already running finish, and the error of the lowest failing slice
    is raised, the one the inline loop would raise.
    """
    slices = list(slices)
    workers = min(_cpu_count(), len(slices))
    if workers < 2 or getattr(_chunk_thread, "busy", False) or _blas_threads() != 1:
        for sl in slices:
            fn(sl)
        return
    lock, stop = threading.Lock(), threading.Event()
    order, errors = iter(range(len(slices))), {}

    def run() -> None:
        _chunk_thread.busy = True
        try:
            while True:
                with lock:
                    i = None if stop.is_set() else next(order, None)
                if i is None:
                    return
                try:
                    fn(slices[i])
                except Exception as exc:  # raised below, on the calling thread
                    with lock:
                        errors[i] = exc
                    stop.set()
        finally:
            _chunk_thread.busy = False

    helpers = [_helpers().submit(run) for _ in range(workers - 1)]
    try:
        run()
    finally:
        stop.set()
        for helper in helpers:
            helper.result()
    if errors:
        raise errors[min(errors)]


@cache
def _helpers() -> ThreadPoolExecutor:
    """The helper threads of :func:`map_chunks`, one fewer than the CPUs, started on first use.

    They are kept for the life of the process rather than started per call:
    a thread that has just ended can still hold its glibc malloc arena, so a
    thread started right after it takes a new arena, and every arena keeps
    the freed memory of the chunks it served. A forked child, which has none
    of the threads, starts its own.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(_cpu_count() - 1, 1), thread_name_prefix="btckit-chunks")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helpers.cache_clear)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold NumPy's OpenBLAS at one thread inside the block; restore its count on leaving.

    :func:`map_chunks` then runs its chunks on every CPU in place of BLAS's
    own threads. Without a bundled OpenBLAS (:func:`_openblas`) nothing is
    pinned, and chunks run inline.
    """
    threads = _openblas()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _blas_threads() -> int | None:
    """NumPy's OpenBLAS thread count; None without a bundled OpenBLAS."""
    threads = _openblas()
    return None if threads is None else threads[0]()


@cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS NumPy loaded, or None.

    NumPy's wheels bundle it as ``numpy.libs/libscipy_openblas64_-*.so``,
    which exports both. Only a copy already loaded is opened, so this never
    loads a second one. Looked up at the first use: importing btckit loads
    no library.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loaded, or without the symbols
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def kernel_values(
    P: np.ndarray, spec: KernelSpec, sq_a: np.ndarray | None, sq_b: np.ndarray | None
) -> np.ndarray:
    """Turn inner products P (..., i, j) = a_i'b_j into kernel values K(a_i, b_j) in place; return P.

    The linear kernel is P itself. The RBF value is
    exp(-gamma * max(|a_i|^2 + |b_j|^2 - 2 a_i'b_j, 0)), from the squared
    norms ``sq_a`` (..., i) and ``sq_b`` (..., j), so it lies in [0, 1]:
    selection, which always ranks by |v|, ranks RBF values by their signed
    size. A non-finite value raises NumericalError.
    """
    if spec.kind == KERNEL_RBF:
        # -2P + S rounds as S - 2P does: negation is exact, addition commutes
        P *= -2.0
        P += sq_a[..., :, None] + sq_b[..., None, :]
        np.maximum(P, 0.0, out=P)
        P *= -spec.gamma
        np.exp(P, out=P)
    if not np.all(np.isfinite(P)):
        raise NumericalError("non-finite kernel value")
    return P


def squared_norms(X: np.ndarray, spec: KernelSpec) -> np.ndarray | None:
    """The squared column norms of X that the RBF kernel ``spec`` needs; None for the linear one.

    A non-finite norm raises NumericalError: meeting X'Y = -inf it would give
    exp(-inf) = 0, which the value check of :func:`kernel_values` passes.
    """
    if spec.kind != KERNEL_RBF:
        return None
    sq = np.sum(X * X, axis=0)
    if not np.isfinite(sq).all():
        raise NumericalError("non-finite kernel input: a squared column norm is not finite")
    return sq


def kernel_matrix(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel evaluations between the columns of X and Y (:func:`kernel_values`).

    The result is the only full-size array: X'Y is formed in it, then each
    row block of :func:`chunks` becomes kernel values in place, so a call
    holds the result plus about CHUNK_BYTES of work. A non-finite value, or
    RBF column norm, raises NumericalError.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    # before the result exists, so X * X and Y * Y do not add to its peak
    sq_x, sq_y = squared_norms(X, spec), squared_norms(Y, spec)
    out = X.T @ Y
    for sl in chunks(out.shape[0], out.shape[1]):
        kernel_values(out[sl], spec, None if sq_x is None else sq_x[sl], sq_y)
    return out


def solve_spd_regularized(G: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (G + alpha*I) x = b for one system or a stack: G (..., k, k), b (..., k).

    Every G + alpha*I must pass a Cholesky factorization; otherwise the
    NumericalError's ``sample`` is the first failing system of the stack.
    The solution comes from that factor by forward and back substitution;
    no explicit inverse is formed.
    """
    G = np.asarray(G, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if G.ndim < 2 or G.shape[-1] != G.shape[-2]:
        raise ConfigError(f"G must be square, got shape {G.shape}")
    if b.shape != G.shape[:-1]:
        raise ConfigError(f"b shape {b.shape} does not match G shape {G.shape}")
    if not 0 <= alpha < np.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    L = _cholesky(G + alpha * np.eye(G.shape[-1]))
    # L z = b forward, then L'x = z backward, one row of every system per step;
    # NumPy has no batched triangular solve, and mixing SciPy's LAPACK with
    # NumPy's thrashes their thread pools
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    x = np.empty_like(b)
    for i in range(L.shape[-1]):
        x[..., i] = (b[..., i] - np.vecdot(L[..., i, :i], x[..., :i])) / diag[..., i]
    for i in reversed(range(L.shape[-1])):
        x[..., i] = (x[..., i] - np.vecdot(L[..., i + 1 :, i], x[..., i + 1 :])) / diag[..., i]
    return x


def _cholesky(system: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of SPD matrices.

    A factorization that fails raises NumericalError whose ``sample`` is the
    first failing system of the stack.
    """
    try:
        return np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        for i, one in enumerate(system.reshape(-1, *system.shape[-2:])):
            try:
                np.linalg.cholesky(one)
            except np.linalg.LinAlgError:
                raise NumericalError("SPD factorization failed", sample=i) from None
        raise


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a stack of lower triangular matrices (..., k, k), lower triangular too.

    Two-by-two block recursion, [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]],
    down to blocks of at most TRIL_BLOCK rows that ``np.linalg.inv`` takes: NumPy
    has no batched triangular inverse, and the recursion spends its work in
    batched matrix products.
    """
    k = L.shape[-1]
    if k <= TRIL_BLOCK:
        return np.tril(np.linalg.inv(L))
    h = k // 2
    A, C = _tril_inverse(L[..., :h, :h]), _tril_inverse(L[..., h:, h:])
    W = np.zeros_like(L)
    W[..., :h, :h] = A
    W[..., h:, h:] = C
    W[..., h:, :h] = -np.matmul(C, np.matmul(L[..., h:, :h], A))
    return W


def top_m_rows(V: np.ndarray, m: int, exclude: np.ndarray | None = None) -> np.ndarray:
    """Per row of V (S x N), the indices of its M entries largest in magnitude (S x M).

    Rows are in selection order with ties to the lower index, as a stable
    sort on descending |v| gives. Row i skips column ``exclude[i]``, if given.
    """
    V = np.asarray(V, dtype=np.float64)
    s, n = V.shape
    available = n if exclude is None else n - 1
    if not 1 <= m <= available:
        raise ConfigError(f"M={m} out of range [1, {available}]")
    neg = np.abs(V)
    np.negative(neg, out=neg)
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.int64)
        if exclude.shape != (s,) or np.any((exclude < 0) | (exclude >= n)):
            raise ConfigError(f"excluded indices must be one per row in [0, {n})")
        neg[np.arange(s), exclude] = np.inf

    # ascending index first, so the stable sort below keeps it on ties
    picked = np.sort(np.argpartition(neg, m - 1, axis=1)[:, :m], axis=1)
    scores = np.take_along_axis(neg, picked, axis=1)
    order = np.argsort(scores, axis=1, kind="stable")
    top = np.take_along_axis(picked, order, axis=1)
    # a tie at the M-th score: argpartition may have kept a higher index
    mth = np.take_along_axis(scores, order[:, -1:], axis=1)
    tied = np.flatnonzero(np.count_nonzero(neg <= mth, axis=1) > m)
    if tied.size:
        top[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :m]
    return top


def top_m_select(v: np.ndarray, m: int) -> np.ndarray:
    """Indices of the M entries of v largest in |v_i|, ties broken by ascending index.

    The result is in selection order (descending |v_i|). One row of
    :func:`top_m_rows`.
    """
    return top_m_rows(np.asarray(v, dtype=np.float64)[None, :], m)[0]


def batch_residuals(
    dictionary: Dictionary,
    Y: np.ndarray,
    m: int,
    alpha: float,
    spec: KernelSpec,
    prepare: Callable[[np.ndarray, int], tuple],
) -> np.ndarray:
    """Per-class residuals (S x C) of every row of Y; row i predicts ``argmin(out[i]) + 1``.

    Rows go in chunks (:func:`map_chunks`), so memory stays bounded for any
    S, and Y may have any real float dtype: ``prepare(rows, first, sq)``
    widens one chunk (row ``first`` onwards) and returns its values K(A, y)
    under ``spec``, each K(y, y) and the ``features`` of
    :func:`gram_residuals` (or None); ``sq`` holds the columns'
    :func:`squared_norms`, computed once per call. Each chunk is coded on
    its top-M support, which needs the M x M kernel block of every row. When
    the batch's blocks would hold more entries than the N x N kernel matrix
    (S M^2 > N^2), the matrix is built once and the blocks are gathered from
    it; otherwise each block is formed from its support's own columns
    (:func:`_support_blocks`) and no N x N array exists.
    """
    Y = np.asarray(Y)
    columns, n = dictionary.columns, dictionary.n_samples
    sq = squared_norms(columns, spec)
    if Y.shape[0] * m * m > n * n:
        gram = kernel_matrix(columns, columns, spec)

        def blocks(support: np.ndarray) -> np.ndarray:
            return gram[support[:, :, None], support[:, None, :]]

    else:
        atoms = np.ascontiguousarray(columns.T)

        def blocks(support: np.ndarray) -> np.ndarray:
            return _support_blocks(atoms, sq, support, spec)

    out = np.empty((Y.shape[0], dictionary.n_classes))

    def code(sl: slice) -> None:
        V, kyy, features = prepare(Y[sl], sl.start, sq)
        support = top_m_rows(V, m)
        out[sl], _ = gram_residuals(
            blocks(support), dictionary.labels, dictionary.n_classes, V, kyy, support, alpha,
            sl.start, features,
        )

    map_chunks(code, chunks(Y.shape[0], n + m * m))
    return out


def _support_blocks(
    atoms: np.ndarray, sq: np.ndarray | None, support: np.ndarray, spec: KernelSpec
) -> np.ndarray:
    """Kernel blocks K(A_s, A_s) (S x M x M) of the S x M supports, from their own atoms.

    ``atoms`` holds the dictionary columns as N x B rows and ``sq`` their
    squared norms (RBF only). The atoms are gathered in sub-chunks of
    about CHUNK_BYTES, each one batched product D D' and :func:`kernel_values`.
    """
    s, k = support.shape
    G = np.empty((s, k, k))
    for sl in chunks(s, k * atoms.shape[1]):
        D = atoms[support[sl]]
        np.matmul(D, D.transpose(0, 2, 1), out=G[sl])
        norms = None if sq is None else sq[support[sl]]
        kernel_values(G[sl], spec, norms, norms)
    return G


def gram_residuals(
    G: np.ndarray,
    col_labels: np.ndarray,
    n_classes: int,
    V: np.ndarray,
    kyy: np.ndarray,
    support: np.ndarray,
    alpha: float,
    first: int = 0,
    features: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Code S samples on their S x k supports; return (S x C residuals, S x k codes).

    ``G`` (S x k x k) holds each support's kernel block K(A_s, A_s) of the
    dictionary columns A, ``col_labels`` the columns' classes (1..C), ``V``
    the S x N values K(A, y) and ``kyy`` each K(y, y). Codes solve
    (G_s + alpha I) x = v_s; class j's residual is
    sqrt(K(y,y) - 2 x_j'v_j + x_j'G_jj x_j) over its support atoms,
    sqrt(K(y,y)) without any. See RADICAND_FLOOR for negative radicands.
    With explicit ``features`` (A's columns as N x B rows and the S x B rows
    y) the residual is ||y - A_j x_j|| instead, free of the Gram form's
    cancellation when codes are large. Errors name sample ``first + i``.
    """
    s, k = support.shape
    kyy = np.asarray(kyy, dtype=np.float64)
    rows = np.arange(s)[:, None]
    v = V[rows, support]
    try:
        x = solve_spd_regularized(G, v, alpha)
    except NumericalError as exc:
        raise NumericalError(exc.args[0], sample=first + exc.sample) from None
    labels = col_labels[support] - 1
    if features is not None:
        return _feature_residuals(*features, support, x, labels, n_classes, kyy), x
    return _class_residuals(G, v, x[:, None, :], labels, n_classes, kyy, k, first)[:, 0], x


def _class_residuals(
    G: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    kyy: np.ndarray,
    k: int | np.ndarray,
    first: int,
) -> np.ndarray:
    """Per-class residuals (S x J x C) of J codes per sample on one support each.

    ``G`` (S x k x k) holds the supports' Gram blocks, ``v`` (S x k) their
    values K(A_s, y), ``labels`` (S x k) their classes 0..C-1 and ``x``
    (S x J x k) the codes, zero past a code's own support size k (an int or
    an array broadcasting against J x C). Class j's residual is
    sqrt(K(y,y) - 2 x_j'v_j + x_j'G_jj x_j). A radicand below RADICAND_FLOOR,
    less the rounding its terms can carry, raises NumericalError naming
    sample ``first + i``; a negative one above it is clamped to zero.
    """
    G_own = np.where(labels[:, :, None] == labels[:, None, :], G, 0.0)
    onehot = (labels[:, :, None] == np.arange(n_classes)).astype(np.float64)
    # per atom x_i (2 v_i - (G_jj x_j)_i), summed per class j; G_own is
    # symmetric, so row j of x @ G_own is G_own x_j. Products are formed in
    # place, G_own's included once it is spent, so that the chunks running at
    # once (map_chunks) each hold fewer S x J x k arrays
    t = np.matmul(x, G_own)
    np.subtract(2.0 * v[:, None, :], t, out=t)
    t *= x
    radicand = kyy[:, None, None] - np.matmul(t, onehot)
    # the rounding in that sum grows with the magnitude of its terms
    abs_x = np.abs(x, out=t)
    terms = np.matmul(abs_x, np.abs(G_own, out=G_own))
    terms += 2.0 * np.abs(v[:, None, :])
    terms *= abs_x
    size = np.abs(kyy)[:, None, None] + np.matmul(terms, onehot)
    floor = RADICAND_FLOOR * np.maximum(kyy, 1.0)[:, None, None] - (k + 2) * np.finfo(float).eps * size
    bad = np.argwhere(radicand < floor)
    if bad.size:
        i, _, c = bad[0]
        raise NumericalError(
            f"negative residual radicand {radicand[tuple(bad[0])]:.3e} for class {c + 1}",
            sample=first + int(i),
        )
    return np.sqrt(np.maximum(radicand, 0.0))


def _feature_residuals(
    atoms: np.ndarray,
    Y: np.ndarray,
    support: np.ndarray,
    x: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    kyy: np.ndarray,
) -> np.ndarray:
    """||y - A_j x_j|| per row y of Y and class j with support atoms; sqrt(K(y,y)) otherwise.

    Only the classes present in a row's support are reconstructed: each atom
    takes its class's slot among the row's distinct classes, so a chunk's
    batched GEMM has one row per slot, up to its largest distinct count.
    """
    out = np.repeat(np.sqrt(kyy)[:, None], n_classes, axis=1)
    k = support.shape[1]
    for sl in chunks(len(Y), (min(k, n_classes) + k) * atoms.shape[1]):
        rows = np.arange(sl.stop - sl.start)[:, None]
        present = np.zeros((rows.size, n_classes), dtype=bool)
        present[rows, labels[sl]] = True
        slot = np.cumsum(present, axis=1) - 1
        # x_i at [row, slot of class(i), i]: the present classes' A_j x_j in one batched GEMM
        coef = np.zeros((rows.size, int(present.sum(axis=1).max()), k))
        coef[rows, slot[rows, labels[sl]], np.arange(k)] = x[sl]
        recon = np.matmul(coef, atoms[support[sl]])
        recon -= Y[sl, None, :]
        i, c = np.nonzero(present)
        out[sl][i, c] = np.sqrt(np.einsum("ijk,ijk->ij", recon, recon))[i, slot[i, c]]
    return out


def beta_profile(
    dictionary: Dictionary,
    ms: Sequence[int],
    alpha: float,
    gram: np.ndarray | None = None,
    cols: Sequence[int] | None = None,
) -> np.ndarray:
    """Identification ratios (len(ms) x len(cols), all columns by default) per M.

    Column g is coded on the M-1 columns ranked highest in |gram[:, g]| (itself
    excluded) and scored as own-class residual over best rival residual, inf
    on a zero rival. Supports for every M are prefixes of one ranking, so
    one Cholesky factorization per column serves every M. Columns go in
    chunks (:func:`map_chunks`). ``gram`` is the kernel matrix of the
    columns, by default A'A.
    """
    n_classes, col_labels = dictionary.n_classes, dictionary.labels
    if n_classes < 2:
        raise ConfigError("beta needs at least 2 classes")
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha={alpha} must lie in (0, 1)")
    ks = np.array([int(m) - 1 for m in ms], dtype=np.int64)
    if not ks.size or ks.min() < 0:
        raise ConfigError(f"beta needs thresholds M >= 1, got {list(ms)}")
    if gram is None:
        gram = dictionary.columns.T @ dictionary.columns
    n = gram.shape[0]
    cols = np.arange(n) if cols is None else np.asarray(cols, dtype=np.int64)
    k_max = min(int(ks.max()), n - 1)
    ks = np.minimum(ks, k_max)
    # row j keeps the first ks[j] atoms of the ranking
    prefix = np.arange(k_max) < ks[:, None]
    out = np.empty((ks.size, cols.size))

    def profile(sl: slice) -> None:
        g = cols[sl]
        V = np.ascontiguousarray(gram[:, g].T)
        ranked = top_m_rows(V, k_max, exclude=g) if k_max else np.empty((g.size, 0), np.int64)
        rows = np.arange(g.size)
        G = gram[ranked[:, :, None], ranked[:, None, :]]
        v = V[rows[:, None], ranked]
        try:
            L = _cholesky(G + alpha * np.eye(k_max))
        except NumericalError as exc:
            raise NumericalError(exc.args[0], sample=sl.start + exc.sample) from None
        # W = L^-1 is lower triangular and its leading k x k block inverts L's,
        # so the code on the first k atoms is x_k = W_k' (W_k v_k)
        W = _tril_inverse(L)
        z = np.matmul(W, v[:, :, None])[:, :, 0]
        x = np.matmul(z[:, None, :] * prefix, W)
        del L, W  # spent: the residuals below need fewer k x k stacks alive
        labels = col_labels[ranked] - 1
        residuals = _class_residuals(G, v, x, labels, n_classes, gram[g, g], ks[:, None], sl.start)
        own = col_labels[g] - 1
        mine = residuals[rows, :, own]
        residuals[rows, :, own] = np.inf
        rival = residuals.min(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[:, sl] = np.where(rival == 0, np.inf, mine / rival).T

    map_chunks(profile, chunks(cols.size, n + k_max * (k_max + ks.size)))
    return out


def pca_first_component(cube: np.ndarray) -> np.ndarray:
    """First principal component image of an H x W x B cube, min-max normalized to [0, 1].

    The component is the top eigenvector of the band covariance
    (``np.linalg.eigh``); its sign is fixed so the component correlates
    non-negatively with the band-mean image. A cube whose every band is
    constant gives zeros. The cube is read in blocks of image rows from
    :func:`chunks`, each widened to float64 as it is read, so no centered
    or widened copy of the whole cube is formed and the work memory stays
    bounded.
    """
    h, w, b = cube.shape
    blocks = list(chunks(h, w * b))

    def pixels(sl: slice) -> np.ndarray:
        return np.asarray(cube[sl].reshape(-1, b), dtype=np.float64)

    total, lo, hi = np.zeros(b), np.full(b, np.inf), np.full(b, -np.inf)
    for sl in blocks:
        X = pixels(sl)
        total += X.sum(axis=0)
        lo, hi = np.minimum(lo, X.min(axis=0)), np.maximum(hi, X.max(axis=0))
    if np.array_equal(lo, hi):
        # the centered cube is exactly zero, but a rounded mean would leave
        # noise that min_max stretches to [0, 1]
        return np.zeros((h, w))
    mean = total / (h * w)
    cov = np.zeros((b, b))
    for sl in blocks:
        Xc = pixels(sl) - mean
        cov += Xc.T @ Xc
    _, vecs = np.linalg.eigh(cov / max(h * w - 1, 1))
    score = np.empty((h, w))
    sign = 0.0
    for sl in blocks:
        Xc = pixels(sl) - mean
        score[sl] = (Xc @ vecs[:, -1]).reshape(-1, w)
        sign += float(score[sl].ravel() @ Xc.mean(axis=1))
    return min_max(-score if sign < 0 else score)


def min_max(v: np.ndarray) -> np.ndarray:
    """Affine map of an array onto [0, 1]; a constant array maps to zeros."""
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def mutual_coherence(dictionary: Dictionary) -> float:
    """Maximum absolute inner product over distinct column pairs."""
    if dictionary.norm_mode != NORM_L2:
        raise ConfigError("mutual coherence requires unit-norm columns")
    if dictionary.n_samples < 2:
        raise ConfigError("mutual coherence needs at least 2 columns")
    gram = dictionary.columns.T @ dictionary.columns
    np.fill_diagonal(gram, 0.0)
    return float(np.abs(gram, out=gram).max())
