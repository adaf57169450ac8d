"""Dense 2-D float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a row-major ``(rows, cols)`` numpy array.  Tensors
are constants until watched by a :class:`Tape`; operations on watched
tensors record backward rules on the tape in creation order, and
:meth:`Tape.backward` replays them in strict reverse order.  The tape is
rebuilt for every forward pass (define-by-run), so there is no graph
caching and no hidden state between passes.

Everything here is float64 on purpose: the finite-difference oracle in
:func:`finite_difference_gradient` is the independent check for every
backward rule, and it only gets tight at double precision.

The edge kernels and owner sums (gather backward, scatter) share one chunker,
on up to two threads (as CPU affinity allows), bitwise as on one.  Its pool
is the one piece of process state, made when first needed.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "GradientMap",
    "add",
    "add_row",
    "mul",
    "scale",
    "scale_rows",
    "matmul",
    "transpose",
    "relu",
    "leaky_relu",
    "softmax_rows",
    "l2_normalize_rows",
    "rowsum",
    "sum_all",
    "gather_rows",
    "slice_rows",
    "scatter_add_rows",
    "pair_scores",
    "propagate",
    "edge_softmax",
    "edge_softmax_sum",
    "concat_cols",
    "concat_rows",
    "cross_entropy_with_logits",
    "binary_cross_entropy_with_logits",
    "finite_difference_gradient",
]


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are rank <= 2, got array of shape {arr.shape}")
    return arr


class Tensor:
    """A 2-D float64 array, optionally attached to a tape node.

    Scalars and 1-D sequences are promoted to ``(1, 1)`` and ``(1, n)``.
    Construction rejects NaN/Inf entries so that non-finite values are
    caught where they enter rather than deep inside a forward pass.
    Tensors have no arithmetic operators: every op is a module-level
    function, so each op has one spelling and one backward rule.
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, _tape: "Tape | None" = None, _node_id: int | None = None):
        if _node_id is None:
            arr = _as_matrix(data)
            if not np.isfinite(arr).all():
                raise NonFiniteError("tensor data contains NaN or Inf")
            self.data = arr
        else:
            self.data = data
        self.tape = _tape
        self.node_id = _node_id

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Tensor":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "Tensor":
        return cls(np.ones((rows, cols)))

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f", node={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


class GradientMap:
    """Lookup of gradients by tensor, as returned by :meth:`Tape.backward`.

    Watched tensors that the loss never reached resolve to zeros of the
    parameter's shape.
    """

    def __init__(self, grads_by_tensor_id: dict[int, np.ndarray], watched: dict[int, Tensor]):
        self._grads = grads_by_tensor_id
        self._watched = watched

    def __getitem__(self, t: Tensor) -> np.ndarray:
        key = id(t)
        if key not in self._watched:
            raise KeyError("tensor was not watched on the tape that produced this map")
        g = self._grads.get(key)
        if g is None:
            return np.zeros_like(t.data)
        return g


class Tape:
    """Records operations for one forward pass and replays them backward.

    Node ids are creation-ordered, so every node's inputs precede it and
    the backward sweep is a single reverse scan.  ``backward`` is a pure
    function of the tape: calling it twice yields identical results.
    """

    def __init__(self):
        self._parents: list[list[tuple[int, Callable[[np.ndarray], np.ndarray]]]] = []
        self._watched: list[Tensor] = []

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def watch(self, *tensors: Tensor) -> None:
        """Register parameters as leaves whose gradients will be reported."""
        for t in tensors:
            if t.tape is self:
                continue
            if t.tape is not None:
                raise ValueError("tensor is already attached to another tape")
            t.tape = self
            t.node_id = self._new_node([])
            self._watched.append(t)

    def release(self) -> None:
        """Detach every watched tensor so it can join a future tape."""
        for t in self._watched:
            t.tape = None
            t.node_id = None
        self._watched.clear()

    def _new_node(self, parents) -> int:
        self._parents.append(parents)
        return len(self._parents) - 1

    def _record(self, data: np.ndarray, parents) -> Tensor:
        return Tensor(data, _tape=self, _node_id=self._new_node(parents))

    def backward(self, loss: Tensor) -> GradientMap:
        """Accumulate d(loss)/d(tensor) for every watched tensor.

        ``loss`` must be a 1x1 tensor recorded on this tape.  The sweep
        visits nodes in strict reverse creation order exactly once.
        """
        if loss.tape is not self:
            raise ValueError("loss is not attached to this tape")
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {loss.node_id: np.ones((1, 1))}
        for nid in range(loss.node_id, -1, -1):
            g = grads.get(nid)
            if g is None:
                continue
            for pid, pull in self._parents[nid]:
                piece = pull(g)
                if pid in grads:
                    grads[pid] = grads[pid] + piece
                else:
                    grads[pid] = piece
        result = {
            id(t): grads[t.node_id] for t in self._watched if t.node_id in grads
        }
        return GradientMap(result, {id(t): t for t in self._watched})


def _emit(data: np.ndarray, deps: Sequence[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]) -> Tensor:
    """Create the result tensor, recording backward rules for tape inputs."""
    tape = None
    for t, _ in deps:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands belong to different tapes")
    if tape is None:
        out = Tensor.__new__(Tensor)
        out.data = data
        out.tape = None
        out.node_id = None
        return out
    parents = [(t.node_id, pull) for t, pull in deps if t.tape is not None]
    return tape._record(data, parents)


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _emit(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def add_row(a: Tensor, v: Tensor) -> Tensor:
    """Add a 1 x d row vector to every row of an n x d tensor."""
    if v.shape != (1, a.shape[1]):
        raise ShapeError(f"add_row: vector {v.shape} does not broadcast over {a.shape}")
    return _emit(
        a.data + v.data,
        [(a, lambda g: g), (v, lambda g: g.sum(axis=0, keepdims=True))],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _emit(ad * bd, [(a, lambda g: g * bd), (b, lambda g: g * ad)])


def scale(a: Tensor, c: float) -> Tensor:
    return _emit(a.data * c, [(a, lambda g: g * c)])


def scale_rows(a: Tensor, coeffs: np.ndarray) -> Tensor:
    """Multiply row i of ``a`` by the constant ``coeffs[i]``."""
    w = np.asarray(coeffs, dtype=np.float64).reshape(-1, 1)
    if w.shape[0] != a.shape[0]:
        raise ShapeError(f"scale_rows: {w.shape[0]} coefficients for {a.shape[0]} rows")
    return _emit(a.data * w, [(a, lambda g: g * w)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad @ bd, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def transpose(a: Tensor) -> Tensor:
    return _emit(np.ascontiguousarray(a.data.T), [(a, lambda g: g.T)])


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _emit(np.where(mask, a.data, 0.0), [(a, lambda g: g * mask)])


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    """x where x >= 0, slope * x otherwise; slope must be in (0, 1)."""
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    gate = np.where(a.data >= 0, 1.0, slope)
    return _emit(a.data * gate, [(a, lambda g: g * gate)])


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by per-row max subtraction."""
    m = a.data.max(axis=1, keepdims=True)
    # NaN propagates into the row max; the stabilizer makes Inf harmless
    if np.isnan(m).any():
        raise NonFiniteError("softmax_rows: input contains NaN")
    shifted = a.data - m
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def pull(g):
        return y * (g - (g * y).sum(axis=1, keepdims=True))

    return _emit(y, [(a, pull)])


def l2_normalize_rows(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row to unit L2 norm (rows with norm < eps divide by eps)."""
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    n = np.maximum(norms, eps)
    y = a.data / n

    def pull(g):
        return (g - y * (g * y).sum(axis=1, keepdims=True)) / n

    return _emit(y, [(a, pull)])


def rowsum(a: Tensor) -> Tensor:
    """Sum along columns: n x d -> n x 1."""
    cols = a.shape[1]
    return _emit(
        a.data.sum(axis=1, keepdims=True),
        [(a, lambda g: np.repeat(g, cols, axis=1))],
    )


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _emit(
        np.array([[a.data.sum()]]),
        [(a, lambda g: np.full(shape, g[0, 0]))],
    )


# ---------------------------------------------------------------------------
# indexed ops (the sparse-graph primitives)


def _segment_sum(values: np.ndarray, targets: np.ndarray, num_rows: int,
                 source=None, weights=None) -> np.ndarray:
    """out[i] = sum in k order of values[source[k]] * weights[k] over the k with
    targets[k] = i (source[k] = k if not given; ``weights`` need a ``source``),
    as ``_gather_sum`` over the segments of the stably sorted targets."""
    if not np.all(targets[1:] >= targets[:-1]):
        order = np.argsort(targets, kind="stable")
        targets, source = targets[order], order if source is None else source[order]
        weights = None if weights is None else weights[order]
    starts = np.flatnonzero(np.diff(targets, prepend=-1))
    return _gather_sum(values, targets[starts], starts, targets.size, num_rows, source, weights)


def _gather_sum(values: np.ndarray, rows, starts, size: int, num_rows: int,
                source=None, weights=None) -> np.ndarray:
    """out[rows[s]] = sum in k order of values[source[k]] * weights[k] over the
    entries k of segment s (from ``starts[s]``, ``size`` in all): the
    gather-scale-owner-sum kernel, over ``_over_chunks``."""
    width = values.shape[1]
    out = np.zeros((num_rows, width))

    def chunk(rows, at, lo, hi, buf):
        part = values[lo:hi]  # no source: nothing moves
        if source is not None:
            part = buf[:width * (hi - lo)].reshape(hi - lo, width)
            np.take(values, source[lo:hi], axis=0, out=part, mode="clip")
        if weights is not None:
            part *= weights[lo:hi, None]
        _owner_sum(out, part, rows, at)

    _over_chunks(rows, starts, size, width, chunk, width * (source is not None))
    return out


def _ids(indices, rows: int, what: str) -> np.ndarray:
    """``indices`` as int64, each in [0, rows), or an IndexError naming ``what``."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"{what} {idx[(idx < 0) | (idx >= rows)][0]} out of range [0, {rows})")
    return idx


def scatter_add_rows(messages: Tensor, targets, num_rows: int) -> Tensor:
    """Route message rows to output rows: out[i] = sum of rows with target i.

    Rows receiving no message are zero.  This is the aggregation primitive
    behind CSR message passing; the backward pass gathers output gradients
    back to the message rows.
    """
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    if tgt.shape[0] != messages.shape[0]:
        raise ShapeError(f"scatter_add_rows: {tgt.size} targets for {messages.shape[0]} messages")
    tgt = _ids(tgt, num_rows, "scatter_add_rows: target")
    return _emit(_segment_sum(messages.data, tgt, num_rows), [(messages, lambda g: g[tgt])])


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows: out[k] = x[indices[k]].  Backward scatter-adds."""
    idx, rows = _ids(indices, x.shape[0], "gather_rows: index"), x.shape[0]
    return _emit(x.data[idx], [(x, lambda g: _segment_sum(g, idx, rows))])


# One chunk's arrays hold about this many bytes (2^20 / (8 width) entries of
# `width` floats): small enough for L2, large enough to amortize a call.
_CHUNK_BYTES = 1 << 20
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_pool: list[ThreadPoolExecutor] = []  # made when first needed; a forked child's copy has no threads
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.clear)


def _over_chunks(rows, starts, size: int, width: int, kernel, scratch: int) -> None:
    """Run ``kernel(rows, at, lo, hi, buffer)`` on chunks of about 2^20 / (8 width)
    entries [lo, hi) of ``size``, whole segments of the owners ``rows`` (which
    begin at entries ``starts``): a chunk's own owners, at ``at`` within it.
    Up to ``_WORKERS`` contiguous runs of chunks write disjoint rows and
    entries: the first here, the rest on the pool, in copies of this context
    (numpy's error state lives there); the first error is raised after all.
    A run's flat ``buffer`` holds ``scratch`` floats per entry of the largest
    chunk, made here so that workers allocate nothing chunk-sized.
    """
    per = max(1, _CHUNK_BYTES // (8 * max(1, width)))
    if not size:
        return
    if size <= per:  # one chunk, inline
        return kernel(rows, starts, 0, size, np.empty(scratch * size))
    ends = np.append(starts, size)
    bounds = np.unique(np.append(np.searchsorted(starts, np.arange(0, size, per)), rows.size))
    # numpy sums M x 1 over M pairwise but M x e, e > 1, row by row:
    # fold one-entry chunks into a neighbour
    sizes = np.diff(ends[bounds])
    bounds = bounds[np.concatenate(([True], (sizes[:-1] > 1) & (sizes[1:] > 1), [True]))]
    chunks = [(rows[a:b], starts[a:b] - ends[a], ends[a], ends[b])
              for a, b in zip(bounds[:-1], bounds[1:])]
    cap, n = max(hi - lo for *_, lo, hi in chunks), min(_WORKERS, len(chunks))

    def run(part, buffer):
        for chunk in part:
            kernel(*chunk, buffer)

    if n > 1 and not _pool:
        _pool.append(ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="edgeprompt"))
    runs = [(chunks[i * len(chunks) // n:(i + 1) * len(chunks) // n], np.empty(scratch * cap))
            for i in range(n)]
    futures = [_pool[0].submit(contextvars.copy_context().run, run, *r) for r in runs[1:]]
    try:
        run(*runs[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _owner_sum(out: np.ndarray, entries: np.ndarray, rows: np.ndarray, at: np.ndarray) -> None:
    """out[rows] = sums of e x D ``entries``' segments from ``at``.  ``reduceat`` sums a
    segment pairwise, in the same order along either axis, so D x e may come transposed."""
    out[rows] = np.add.reduceat(entries, at, axis=0)


def pair_scores(h: Tensor, a, b) -> Tensor:
    """out_k = <h[a_k], h[b_k]> (E x 1): ``rowsum(mul(gather_rows(h, a),
    gather_rows(h, b)))`` as one node, bitwise, with no E x D array.  Its
    backward adds the sums of g_k h[b_k] by a and of g_k h[a_k] by b."""
    n, width = h.shape
    a, b = _ids(a, n, "pair_scores: index"), _ids(b, n, "pair_scores: index")
    if a.size != b.size:
        raise ShapeError(f"pair_scores: {a.size} first rows for {b.size} second rows")
    x, each, out = np.ascontiguousarray(h.data), np.arange(a.size), np.empty((a.size, 1))

    def chunk(rows, at, lo, hi, buf):
        u, v = buf[:2 * width * (hi - lo)].reshape(2, hi - lo, width)
        np.take(x, a[lo:hi], axis=0, out=u, mode="clip")
        np.take(x, b[lo:hi], axis=0, out=v, mode="clip")
        np.sum(np.multiply(u, v, out=u), axis=1, out=out[lo:hi, 0])

    _over_chunks(each, each, a.size, 2 * width, chunk, 2 * width)
    return _emit(out, [(h, lambda g: _segment_sum(x, a, n, b, g[:, 0])
                        + _segment_sum(x, b, n, a, g[:, 0]))])


def propagate(h: Tensor, adj) -> Tensor:
    """out_i = sum_j c_ij h_j (n_out rows) over the entries of a
    ``graph.Adjacency``, from its n_in input rows.

    Its backward propagates the output gradient over the transposed
    operator; a square one is symmetric (c_ij = c_ji), its own transpose.
    Both are ``_gather_sum`` over its layout: chunks of e entries gathered,
    scaled and summed in e x D buffers, so no E x D array exists.
    """
    if h.shape[0] != adj.num_in:
        raise ShapeError(f"propagate: {h.shape[0]} rows for {adj.num_in} input rows")

    def prop(x, op):
        return _gather_sum(np.ascontiguousarray(x), op.rows, op.starts, op.owners.size,
                           op.num_out, op.targets, op.coeffs)

    return _emit(prop(h.data, adj),
                 [(h, lambda g: prop(g, adj if adj.own is None else adj.transpose))])


def _edge_softmax(logits: np.ndarray, adj, slope: float, keep: bool):
    """Z_i = sum_j c_ij S_:k (n_out x M) for the scores S_:k =
    softmax(LeakyReLU(a_i + b_j)) of each entry k = (i <- j), from n_in x 2M
    ``logits`` [a | b] (a_i at i's own row), and with ``keep`` the M x E scores
    and LeakyReLU gate.  Both are anchor-major, so every reduction over the M
    anchors runs along axis 0 over contiguous entry rows.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    n, cols = logits.shape
    if n != adj.num_in or cols % 2:
        raise ShapeError(f"edge softmax: logits {logits.shape} are not "
                         f"{adj.num_in} x 2M")
    m = cols // 2
    a_t = np.ascontiguousarray((logits if adj.own is None else logits[adj.own])[:, :m].T)
    b_t = np.ascontiguousarray(logits[:, m:].T)
    z = np.zeros((adj.num_out, m))
    kept = [np.empty((m, adj.owners.size)) if keep else None for _ in range(2)]

    def chunk(rows, at, lo, hi, buf):
        e = hi - lo
        s, gate = buf[:2 * m * e].reshape(2, m, e)
        top = buf[2 * m * e:(2 * m + 1) * e]
        np.take(a_t, adj.owners[lo:hi], axis=1, out=s, mode="clip")
        np.take(b_t, adj.targets[lo:hi], axis=1, out=gate, mode="clip")
        s += gate
        np.greater_equal(s, 0.0, out=gate)
        np.maximum(gate, slope, out=gate)
        s *= gate
        np.max(s, axis=0, out=top)
        # NaN propagates into the max; the stabilizer makes Inf harmless
        if np.isnan(top.max()):
            raise NonFiniteError("edge softmax: logits contain NaN")
        s -= top
        np.exp(s, out=s)
        s /= np.sum(s, axis=0, out=top)
        if keep:
            kept[0][:, lo:hi], kept[1][:, lo:hi] = s, gate
        s *= adj.coeffs[lo:hi]
        _owner_sum(z, s.T, rows, at)

    _over_chunks(adj.rows, adj.starts, adj.owners.size, m, chunk, scratch=2 * m + 1)
    return z, kept


def edge_softmax(logits: Tensor, adj, slope: float) -> np.ndarray:
    """The entries' scores as an E x M array (no gradient); see
    :func:`edge_softmax_sum`."""
    return _edge_softmax(logits.data, adj, slope, keep=True)[1][0].T


def edge_softmax_sum(logits: Tensor, adj, slope: float) -> Tensor:
    """Z_i = sum_j c_ij softmax(LeakyReLU(a_i + b_j)) (n_out x M), for n_in x 2M
    ``logits`` [a | b] and the entries (i <- j) of a ``graph.Adjacency``.

    This fuses gather, add, LeakyReLU, row softmax and the per-owner sum
    over j into one node whose backward keeps only the M x E scores S and gate:
    dS = c dZ[owner], dL = gate S (dS - <dS, S>); da sums dL per owner
    into the owners' input rows, db per target.  Both passes run over chunks
    of entries (``_over_chunks``); off the tape S and the gate exist only in
    chunk buffers.  db is a ``bincount`` per anchor over the whole dL, so
    its sums keep entry order.
    """
    z, (s, gate) = _edge_softmax(logits.data, adj, slope, keep=logits.tape is not None)
    m = z.shape[1]

    def pull(g):
        g_t = np.ascontiguousarray(g.T)
        d = np.empty(s.shape)
        da = np.zeros((adj.num_out, m))

        def chunk(rows, at, lo, hi, buf):
            dc, dot = buf[:m * (hi - lo)].reshape(m, hi - lo), buf[m * (hi - lo):][:hi - lo]
            np.take(g_t, adj.owners[lo:hi], axis=1, out=dc, mode="clip")
            dc *= adj.coeffs[lo:hi]
            dc -= np.einsum("me,me->e", dc, s[:, lo:hi], out=dot)
            dc *= s[:, lo:hi]
            dc *= gate[:, lo:hi]
            d[:, lo:hi] = dc
            _owner_sum(da, dc.T, rows, at)

        _over_chunks(adj.rows, adj.starts, adj.owners.size, m, chunk, scratch=m + 1)
        out = np.zeros((adj.num_in, 2 * m))
        out[slice(None) if adj.own is None else adj.own, :m] = da
        for k in range(m):
            out[:, m + k] = np.bincount(adj.targets, weights=d[k], minlength=adj.num_in)
        return out

    return _emit(z, [(logits, pull)])


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice; backward embeds the gradient at the offset."""
    rows, cols = x.shape
    if not 0 <= start <= stop <= rows:
        raise ShapeError(f"slice_rows: [{start}, {stop}) out of range for {x.shape}")

    def pull(g):
        out = np.zeros((rows, cols))
        out[start:stop] = g
        return out

    return _emit(x.data[start:stop].copy(), [(x, pull)])


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    da = a.shape[1]
    return _emit(
        np.concatenate([a.data, b.data], axis=1),
        [(a, lambda g: g[:, :da]), (b, lambda g: g[:, da:])],
    )


def concat_rows(*tensors: Tensor) -> Tensor:
    if not tensors:
        raise ValueError("concat_rows: need at least one tensor")
    cols = tensors[0].shape[1]
    for t in tensors:
        if t.shape[1] != cols:
            raise ShapeError(f"concat_rows: column counts differ, {t.shape[1]} vs {cols}")
    deps = []
    start = 0
    for t in tensors:
        lo, hi = start, start + t.shape[0]
        deps.append((t, lambda g, lo=lo, hi=hi: g[lo:hi]))
        start = hi
    return _emit(np.concatenate([t.data for t in tensors], axis=0), deps)


# ---------------------------------------------------------------------------
# losses


def cross_entropy_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean of -log softmax(logits)[label] over rows.

    Backward is the classic (softmax - onehot) / n.
    """
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, c = logits.shape
    if y.shape[0] != n:
        raise ShapeError(f"cross_entropy: {y.shape[0]} labels for {n} rows")
    y = _ids(y, c, "cross_entropy: label")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(n), y]))

    def pull(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), y] -= 1.0
        return g[0, 0] * p / n

    return _emit(np.array([[loss]]), [(logits, pull)])


def binary_cross_entropy_with_logits(scores: Tensor, targets) -> Tensor:
    """Mean BCE of sigmoid(scores) against 0/1 targets; scores are n x 1."""
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    if t.shape[0] != scores.shape[0] or scores.shape[1] != 1:
        raise ShapeError(
            f"bce: scores {scores.shape} vs {t.shape[0]} targets (scores must be n x 1)"
        )
    z = scores.data
    n = z.shape[0]
    # softplus(z) - t z, with softplus written to avoid overflow
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - t * z))

    def pull(g):
        # exp(-z) overflows to inf for z < -709, where 1 / (1 + inf) = 0
        # is the right limit
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-z))
        return g[0, 0] * (sig - t) / n

    return _emit(np.array([[loss]]), [(scores, pull)])


# ---------------------------------------------------------------------------
# the independent gradient oracle


def finite_difference_gradient(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry.

    ``f`` must be deterministic; it receives a fresh constant tensor on
    every call so it cannot observe the perturbation machinery.
    """
    if h <= 0:
        raise ValueError("finite differences need h > 0")
    base = x.data.copy()
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        bumped = base.copy()
        bumped[i] = base[i] + h
        hi = f(Tensor(bumped))
        bumped[i] = base[i] - h
        lo = f(Tensor(bumped))
        grad[i] = (hi - lo) / (2.0 * h)
        it.iternext()
    return grad
