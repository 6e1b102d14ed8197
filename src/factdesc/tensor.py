"""Dense float64 tensors, a reverse-mode autodiff tape, and Adam.

Training is assembled from the primitives here.  Recording is explicit:
an operation appends a node to the innermost active ``Tape`` only when an
input requires gradients, but even outside a tape it builds a ``Tensor``
per call, so greedy decoding steps on plain arrays (:func:`gru_step`).
``backward`` replays a tape once in reverse and accumulates into
``Tensor.grad``; a trainer records a whole minibatch on one tape, so a
table is gathered a few times per minibatch and every gradient is dense
(:func:`embedding_rows` scatter-adds into a zero table).  Products,
softmaxes, losses and the GRU take rows: one distribution is (1, K), not (K,).
The model's tensors and gradients are views of two flat arrays
(:class:`factdesc.decoder.DecoderParams`), and :func:`adam_step` updates one.

All arithmetic is double precision; checkpoints downcast to float32 on
disk (see :mod:`factdesc.training`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InvalidMaskError, ShapeError, TrainingDivergenceError


class Tensor:
    """A dense float64 array plus gradient bookkeeping.

    ``grad`` is allocated by :func:`backward` when absent and always
    matches ``data``'s shape.  ``name`` is optional and only used for error
    messages and checkpoint manifests.
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass(slots=True)
class TapeNode:
    """One recorded primitive application.

    ``grad_fn`` maps the output gradient to one contribution per input
    (``None`` where no gradient flows); values saved for the backward
    rule live in the closure.
    """

    op: str
    inputs: tuple
    output: Tensor
    grad_fn: Callable


class Tape:
    """Ordered record of primitive applications.

    Nodes are appended in execution order, which makes the record
    topologically sorted by construction.  Use as a context manager;
    tapes nest, and recording always targets the innermost one.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape] = []


def _record(op, inputs, output, grad_fn):
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        _TAPE_STACK[-1].nodes.append(TapeNode(op, inputs, output, grad_fn))
    return output


def _unbroadcast(g, shape):
    """Sum ``g`` back down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    out = Tensor(a.data + b.data)

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record("add", (a, b), out, grad_fn)


def mul(a, b):
    out = Tensor(a.data * b.data)

    def grad_fn(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _record("mul", (a, b), out, grad_fn)


def matmul(a, b):
    """Matrix product of 2-D operands (n, k) and (k, m), or of two stacks
    of matrices (B, n, k) and (B, k, m)."""
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or ad.shape[:-2] + ad.shape[-1:] != bd.shape[:-1]:
        raise ShapeError(f"matmul shapes {ad.shape} and {bd.shape} do not agree")
    out = Tensor(ad @ bd)

    def grad_fn(g):
        return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return _record("matmul", (a, b), out, grad_fn)


def affine(x, w, b=None):
    """``x @ w.T (+ b)`` with ``x`` (n, i), ``w`` (o, i) and ``b`` (o,), kept 2-D: ``w``'s
    gradient is then one GEMM, and ``perfbench/spans.py`` counts flops from (rows, width)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"affine shapes {x.data.shape} and {w.data.shape} do not agree")
    y = x.data @ w.data.T
    if b is not None:
        y += b.data
    out = Tensor(y)

    def grad_fn(g):
        return g @ w.data, g.T @ x.data, None if b is None else g.sum(axis=0)

    return _record("affine", (x, w) if b is None else (x, w, b), out, grad_fn)


def concat(parts, axis=0):
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))

    def grad_fn(g):
        lead = (slice(None),) * (axis % g.ndim)
        grads, start = [], 0
        for p in parts:
            stop = start + p.data.shape[axis]
            grads.append(g[lead + (slice(start, stop),)])
            start = stop
        return grads

    return _record("concat", tuple(parts), out, grad_fn)


def tanh(x):
    out = Tensor(np.tanh(x.data))
    y = out.data

    def grad_fn(g):
        return (g * (1.0 - y * y),)

    return _record("tanh", (x,), out, grad_fn)


def relu(x):
    out = Tensor(np.maximum(x.data, 0.0))
    pos = x.data > 0

    def grad_fn(g):
        return (g * pos,)

    return _record("relu", (x,), out, grad_fn)


def masked_softmax(v, mask):
    """Softmax over the unmasked entries of each row of ``v`` (N, K).

    ``mask`` is (K,), shared by every row, or (N, K).  Masked entries come
    out exactly zero; the rest are stabilized by max-subtraction (masking
    enters as a -inf energy).
    """
    mask = np.asarray(mask, dtype=bool)
    x = v.data
    if x.ndim != 2 or mask.shape not in (x.shape, x.shape[1:]):
        raise ShapeError(f"masked_softmax got values {x.shape} and mask {mask.shape}")
    if not mask.any(axis=-1).all():
        raise InvalidMaskError("masked_softmax: every entry of a row is masked")
    energies = np.where(mask, x, -np.inf)
    e = np.exp(energies - energies.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def grad_fn(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _record("masked_softmax", (v,), out, grad_fn)


def embedding_rows(table, indices):
    """Gather rows of a table, any shape of indices; the gradient scatter-adds them back.
    The table's leading axes count as one: row i of a (B, T, H) table is [i // T, i % T]."""
    idx = np.asarray(indices, dtype=np.intp)
    shape = table.data.shape
    out = Tensor(table.data.reshape(-1, shape[-1])[idx])

    def grad_fn(g):
        # cell (idx[k], j) is idx[k] * width + j; bincount adds in k order from 0.0, as np.add.at
        cells = (idx.reshape(-1, 1) * shape[-1] + np.arange(shape[-1])).reshape(-1)
        return (np.bincount(cells, g.reshape(-1), table.data.size).reshape(shape),)

    return _record("embedding_rows", (table,), out, grad_fn)


def nll(p, index, rows=None):
    """Summed negative log-likelihood of the gold classes under the
    distributions ``p`` (N, K): one class per row, or per listed row with ``rows``.
    """
    at = (np.arange(len(p.data)) if rows is None else np.asarray(rows, dtype=np.intp),
          np.asarray(index, dtype=np.intp))
    if p.data.ndim != 2 or at[1].shape != at[0].shape:
        raise ShapeError(f"nll got {at[1].shape} classes for {len(at[0])} rows of {p.data.shape}")
    vals = p.data[at]
    out = Tensor(-np.log(vals).sum())

    def grad_fn(g):
        gp = np.zeros_like(p.data)
        gp[at] = -g / vals
        return (gp,)

    return _record("nll", (p,), out, grad_fn)


def transpose(x):
    return _record("transpose", (x,), Tensor(x.data.T), lambda g: (g.T,))


def getitem(x, key):
    """``x.data[key]`` for a basic index (integers and slices)."""
    out = Tensor(x.data[key])

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _record("getitem", (x,), out, grad_fn)


def additive_energies(keys, queries, w, b):
    """Energies w . tanh(k_s + q_t) + b, (..., T, S), of keys (..., S, a) and
    queries (..., T, a).  Each is a reduction of its own row, not a GEMV,
    whose rounding can depend on where a row sits: equal keys tie exactly.
    """
    kd, qd = keys.data, queries.data
    if kd.shape[:-2] != qd.shape[:-2] or {kd.shape[-1], w.data.shape[-1]} != {qd.shape[-1]}:
        raise ShapeError(f"additive_energies got keys {kd.shape} and queries {qd.shape}")
    y = kd[..., None, :, :] + qd[..., :, None, :]
    np.tanh(y, out=y)
    out = Tensor((y * w.data[0]).sum(axis=-1) + b.data)

    def grad_fn(g):
        dw = g.reshape(-1) @ y.reshape(g.size, -1)
        pre = np.multiply(y, y)  # the one (..., T, S, a) temporary, reused in place
        np.subtract(1.0, pre, out=pre)
        pre *= g[..., None]
        pre *= w.data[0]
        return pre.sum(axis=-3), pre.sum(axis=-2), dw[None], np.full(1, g.sum())

    return _record("additive_energies", (keys, queries, w, b), out, grad_fn)


def gru(pre, h0, uz, ur, uc):
    """GRU states h_1..h_T of B sequences: (B, T, H) from the gate inputs ``pre``
    (B, T, 3H), biases included (:func:`factdesc.decoder.gate_columns`), and ``h0`` (B, H).

    Step t computes z = sigmoid(a_z + h uz'), r likewise and c = tanh(a_c + (r * h) uc')
    from its gate inputs [a_z; a_r; a_c], then the state (1 - z) * h + z * c.  The
    gradient is backpropagation through time written out by hand, each state-weight
    gradient one GEMM over all rows.  Padded steps need no mask: no loss reads them, so
    their gradient is exactly zero.
    """
    ps, hidden = pre.data, uz.data.shape[0]
    if ps.ndim != 3 or ps.shape[-1] != 3 * hidden or h0.data.shape != (len(ps), hidden):
        raise ShapeError(f"gru got gate inputs {ps.shape} and state {h0.data.shape} "
                         f"for state weights {uz.data.shape}")
    batch, steps = ps.shape[:2]
    hs = np.empty((steps + 1, batch, hidden))  # h_0..h_T, time-major as z, r and c
    hs[0] = h0.data
    zrc = np.empty((steps, batch, 3 * hidden))
    z, r, c = np.split(zrc, 3, axis=2)
    uzr = np.concatenate([uz.data, ur.data])  # both gates' state weights: one product a step
    with np.errstate(over="ignore"):  # exp(-a) overflows to inf, and the gate to 0
        for t in range(steps):
            h, a = hs[t], ps[:, t]
            z[t], r[t], c[t], hs[t + 1] = gru_step(a[:, :2 * hidden] + h @ uzr.T,
                                                   a[:, 2 * hidden:], h, uc.data)
    out = Tensor(hs[1:].transpose(1, 0, 2))

    def grad_fn(g):
        gpre = np.empty_like(zrc)
        gz, gr, gc = np.split(gpre, 3, axis=2)
        dh = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):  # local derivatives step by step
            zt, rt, ct, h = z[t], r[t], c[t], hs[t]
            dh = dh + g[:, t]
            gz[t] = (ct - h) * zt * (1.0 - zt) * dh
            gc[t] = gct = zt * (1.0 - ct * ct) * dh
            drh = gct @ uc.data
            gr[t] = h * rt * (1.0 - rt) * drh
            dh = (1.0 - zt) * dh + rt * drh + gpre[t, :, :2 * hidden] @ uzr
        gz, gr, gc, prev, rh = (x.reshape(-1, hidden) for x in (gz, gr, gc, hs[:-1], r * hs[:-1]))
        return gpre.transpose(1, 0, 2), dh, gz.T @ prev, gr.T @ prev, gc.T @ rh

    return _record("gru", (pre, h0, uz, ur, uc), out, grad_fn)


def gru_step(gates, ac, h, uc):
    """One GRU step of :func:`gru` and of greedy decoding, on plain arrays: z, r, c and
    the next state from ``gates`` (..., 2H), the update then reset gate inputs of
    :func:`gru` with state terms added (a_z + h uz'), and the candidate's ``ac``.  One
    sigmoid covers both gates.  Callers ignore overflow (a gate saturating to 0)."""
    zr = 1.0 / (1.0 + np.exp(-gates))
    z, r = zr[..., :h.shape[-1]], zr[..., h.shape[-1]:]
    c = np.tanh(ac + (r * h) @ uc.T)
    return z, r, c, (1.0 - z) * h + z * c


def segment_sum(x, lengths):
    """Sum each run of ``lengths[i]`` consecutive rows of ``x``, in row order.

    The runs must cover the rows, each at least one row long; runs holding
    the same rows give bit-equal sums wherever they sit.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.sum() != x.data.shape[0] or (lengths < 1).any():
        raise ShapeError(f"segment_sum runs {lengths.tolist()} do not split {len(x.data)} rows")
    out = Tensor(np.add.reduceat(x.data, np.cumsum(lengths) - lengths, axis=0))

    def grad_fn(g):
        return (np.repeat(g, lengths, axis=0),)

    return _record("segment_sum", (x,), out, grad_fn)


def sum_all(x):
    out = Tensor(x.data.sum())
    shape = x.data.shape

    def grad_fn(g):
        return (np.broadcast_to(g, shape),)

    return _record("sum_all", (x,), out, grad_fn)


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape))
    orig = x.data.shape

    def grad_fn(g):
        return (g.reshape(orig),)

    return _record("reshape", (x,), out, grad_fn)


def backward(loss, tape):
    """Reverse-mode accumulation from a scalar loss over one tape.

    Gradients are *added* into ``Tensor.grad`` (allocated as zeros when
    absent), so parameters not reached by the loss keep zero gradients
    and calls on several tapes accumulate.  A tape is replayed once: each
    node's output gradient and saved values are released after use.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if tape.nodes and not any(n.output is loss for n in reversed(tape.nodes)):
        raise ShapeError("backward: loss is not an output recorded on this tape")
    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        contribs = node.grad_fn(g)
        node.output.grad = node.grad_fn = None  # every consumer came later on the tape
        for t, c in zip(node.inputs, contribs):
            if c is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.array(c)  # owns memory; c may be a view
            else:
                t.grad += c


ADAM_CHUNK = 16384  # values updated per pass, so the temporaries stay small


@dataclass
class AdamState:
    """Adam moments and hyperparameters for one flat parameter array.

    The moment arrays ``m`` and ``v`` are allocated on the first step, so
    every call must update the same array.
    """

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


def adam_step(values, grad, state, name_at=str):
    """One bias-corrected Adam update of the flat array ``values`` by ``grad``, of its
    size, in place and in chunks of :data:`ADAM_CHUNK`; ``grad`` is not changed.  A
    non-finite gradient aborts, naming ``name_at`` of its first index: the tensor that
    holds it, in a model (:meth:`~factdesc.decoder.DecoderParams.tensor_at`)."""
    if not 0 < state.learning_rate < np.inf:
        raise ConfigError(f"adam_step: learning_rate {state.learning_rate} is outside (0, inf)")
    finite = np.isfinite(grad)
    if not finite.all():
        raise TrainingDivergenceError(
            f"non-finite gradient for parameter {name_at(finite.argmin())}")
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    scale = state.learning_rate / bc1
    work = np.empty((2, ADAM_CHUNK))
    for lo in range(0, grad.size, ADAM_CHUNK):
        param, g, m, v = (a[lo:lo + ADAM_CHUNK] for a in (values, grad, state.m, state.v))
        delta, root = work[:, :g.size]
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, p -= scale m / (sqrt(v / bc2) + eps)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=delta)
        v *= state.beta2
        np.multiply(g, g, out=delta)
        delta *= 1.0 - state.beta2
        v += delta
        np.divide(v, bc2, out=root)
        np.sqrt(root, out=root)
        root += state.epsilon
        np.multiply(m, scale, out=delta)
        delta /= root
        param -= delta


def grad_check(function, params, perturbation=1e-5):
    """Max relative error between tape gradients and central differences.

    ``function(params)`` must return a scalar ``Tensor``.  The analytic
    pass runs once under a fresh tape; every parameter element is then
    perturbed by ``+/- perturbation`` with the function re-evaluated
    outside any tape.
    """
    if perturbation <= 0:
        raise ConfigError("grad_check: perturbation must be positive")
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = function(params)
        if loss.data.size != 1:
            raise ShapeError("grad_check: function must return a scalar")
    backward(loss, tape)
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + perturbation
            hi = float(function(params).data)
            flat[i] = saved - perturbation
            lo = float(function(params).data)
            flat[i] = saved
            numeric = (hi - lo) / (2.0 * perturbation)
            denom = max(1.0, abs(aflat[i]), abs(numeric))
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
