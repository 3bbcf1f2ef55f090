"""Functional operations over :class:`repro.nn.Tensor`.

These free functions complement the methods on ``Tensor`` with multi-input
operations (stack, concatenate), numerically stable softmax / log-softmax,
activation functions, and the loss functions used by the paper (MSE on masked
ratings) and the baselines (binary cross-entropy, etc.).

The hot ops of the HIRE forward/backward — :func:`layer_norm`, :func:`gelu`,
:func:`linear`, and the attention cores :func:`scaled_dot_product_attention`
/ :func:`multi_head_attention_qkv` — each run as a *single* autograd node
with an analytic backward, instead of the many small nodes their unfused
compositions would record.  :func:`set_fused_kernels` (or the
:class:`fused_kernels` context manager) switches the substrate back to the
decomposed reference path, which exists for equivalence testing and as the
honest baseline for ``benchmarks/bench_substrate_micro.py``.
"""

from __future__ import annotations

import math
from math import prod

import numpy as np

from .tensor import SparseRowGrad, Tensor

__all__ = [
    "stack",
    "concatenate",
    "softmax",
    "log_softmax",
    "relu",
    "gelu",
    "gelu_reference",
    "sigmoid",
    "tanh",
    "layer_norm",
    "layer_norm_reference",
    "linear",
    "scaled_dot_product_attention",
    "multi_head_attention_qkv",
    "mse_loss",
    "masked_mse_loss",
    "bce_loss",
    "l2_penalty",
    "dropout",
    "embedding_lookup",
    "scatter_rows",
    "pad_to",
    "set_fused_kernels",
    "fused_kernels_enabled",
    "fused_kernels",
    "linear_into",
    "layer_norm_into",
    "gelu_into",
    "mha_qkv_into",
    "attend_small_heads",
    "small_head_tile",
    "sigmoid_rescale_into",
]

_FUSED = True

# Attention heads of at most this many dimensions run the token-major core
# (:func:`attend_small_heads`) instead of batched matmuls: at head_dim 2,
# ``q·kᵀ`` is two broadcast multiply-adds, while t×2·2×t matmuls and
# length-t last-axis reductions are bound by dispatch and memory traffic.
SMALL_HEAD_DIM = 2
# Score elements per tile of the engine's token-major core (1 MiB at
# float64), so a tile's scores stay in L2 across the softmax passes.
SMALL_HEAD_TILE_SCORES = 1 << 17


def set_fused_kernels(enabled: bool) -> None:
    """Globally enable/disable the single-node fused kernels."""
    global _FUSED
    _FUSED = bool(enabled)


def fused_kernels_enabled() -> bool:
    return _FUSED


class fused_kernels:
    """Context manager scoping :func:`set_fused_kernels` to a block."""

    def __init__(self, enabled: bool):
        self._enabled = enabled

    def __enter__(self):
        self._prev = _FUSED
        set_fused_kernels(self._enabled)
        return self

    def __exit__(self, *exc):
        set_fused_kernels(self._prev)
        return False


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors of identical shape along a new axis."""
    datas = [t.data for t in tensors]
    out_data = np.stack(datas, axis=axis)

    def backward(g):
        slices = np.moveaxis(g, axis, 0)
        return tuple((t, slices[i]) for i, t in enumerate(tensors))

    return Tensor._from_op(out_data, tuple(tensors), backward)


def concatenate(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an existing axis."""
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for i, t in enumerate(tensors):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            grads.append((t, g[tuple(index)]))
        return tuple(grads)

    return Tensor._from_op(out_data, tuple(tensors), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` with a fused backward."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * probs).sum(axis=axis, keepdims=True)
        return ((x, probs * (g - dot)),)

    return Tensor._from_op(probs, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    probs = np.exp(out_data)

    def backward(g):
        return ((x, g - probs * g.sum(axis=axis, keepdims=True)),)

    return Tensor._from_op(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu_reference(x: Tensor) -> Tensor:
    """GELU (tanh approximation) composed from Tensor primitives (~8 nodes)."""
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation), one fused node."""
    if not _FUSED:
        return gelu_reference(x)
    xd = x.data
    t = np.tanh(_GELU_C * (xd + _GELU_A * xd * xd * xd))

    def backward(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        return ((x, g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner)),)

    return Tensor._from_op(0.5 * xd * (1.0 + t), (x,), backward)


def layer_norm_reference(x: Tensor, gamma: Tensor, beta: Tensor,
                         eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis from Tensor primitives (~7 nodes)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + eps).sqrt()
    return normed * gamma + beta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis as one fused autograd node."""
    if not _FUSED:
        return layer_norm_reference(x, gamma, beta, eps)
    xd = x.data
    mean = xd.mean(axis=-1, keepdims=True)
    centered = xd - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gamma.data + beta.data

    def backward(g):
        # d gamma / d beta: _unbroadcast folds the leading axes.
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
        dx = inv_std * (dxhat - m1 - xhat * m2)
        return ((x, dx), (gamma, g * xhat), (beta, g))

    return Tensor._from_op(out, (x, gamma, beta), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight (+ bias)`` over the last axis as one fused node.

    ``weight`` is 2-D ``(in, out)``; ``x`` may carry arbitrary leading axes.
    """
    if not _FUSED:
        out = x @ weight
        return out if bias is None else out + bias
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        gx = g @ weight.data.T
        x2 = x.data.reshape(-1, x.data.shape[-1])
        g2 = g.reshape(-1, g.shape[-1])
        gw = x2.T @ g2
        if bias is None:
            return ((x, gx), (weight, gw))
        return ((x, gx), (weight, gw), (bias, g2.sum(axis=0)))

    return Tensor._from_op(out_data, parents, backward)


def _softmax_array(scores: np.ndarray) -> np.ndarray:
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 need_weights: bool = False):
    """``softmax(q kᵀ / √d) v`` as one fused node, scale folded into ``q``.

    Inputs are ``(..., t, d)``; attention runs over the token axis ``t``
    independently for every leading batch axis.  With ``need_weights`` the
    row-stochastic attention matrix ``(..., t, t)`` is returned alongside
    (a plain ndarray, outside the graph).
    """
    scale = 1.0 / math.sqrt(q.shape[-1])
    qd, kd, vd = q.data, k.data, v.data
    probs = _softmax_array((qd * scale) @ np.swapaxes(kd, -1, -2))
    out = probs @ vd

    def backward(g):
        dv = np.swapaxes(probs, -1, -2) @ g
        dp = g @ np.swapaxes(vd, -1, -2)
        ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
        dq = (ds @ kd) * scale
        dk = (np.swapaxes(ds, -1, -2) @ qd) * scale
        return ((q, dq), (k, dk), (v, dv))

    result = Tensor._from_op(out, (q, k, v), backward)
    return (result, probs) if need_weights else result


def multi_head_attention_qkv(qkv: Tensor, num_heads: int,
                             need_weights: bool = False):
    """Multi-head attention over a packed QKV projection, one fused node.

    ``qkv`` is ``(..., t, 3d)`` — the output of one ``(d, 3d)`` projection
    whose columns are ``[W_q | W_k | W_v]``.  Splits heads, attends with the
    1/√head_dim scale folded into ``q``, and re-merges heads, all inside a
    single autograd node whose backward assembles the packed ``(..., t, 3d)``
    gradient in one allocation.  Heads of at most :data:`SMALL_HEAD_DIM`
    dimensions run the token-major core (:func:`attend_small_heads`) with a
    scores buffer for every cell, which it keeps as the attention weights —
    the same per-cell op sequence :func:`mha_qkv_into` runs over one tile
    of scratch, so the engine reproduces this forward bit for bit.
    """
    *lead, t, packed = qkv.shape
    d = packed // 3
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    # (..., t, 3, H, hd) -> (3, ..., H, t, hd)
    split = np.moveaxis(
        qkv.data.reshape(*lead, t, 3, num_heads, head_dim), -3, 0
    ).swapaxes(-3, -2)
    if head_dim <= SMALL_HEAD_DIM:
        # The core reads qkv in place; the backward gemms take the strided
        # head views and the (..., H, t, t) transposed view of its scores.
        qd, kd, vd = split
        cells = prod(lead)
        tile = small_head_tile(t, num_heads, cells)
        dtype = qkv.data.dtype
        out = np.empty((*lead, t, d), dtype=dtype)
        scores = np.empty((t, cells, t, num_heads), dtype=dtype)
        attend_small_heads(
            qkv.data.reshape(cells, t, packed), num_heads,
            out.reshape(cells, t, d), scores,
            np.empty(2 * tile * t * num_heads, dtype=dtype),
            np.empty(head_dim * tile * t * num_heads, dtype=dtype))
        probs = np.moveaxis(scores, 0, -1).swapaxes(-3, -2).reshape(
            *lead, num_heads, t, t)
    else:
        # Copies make the gemms contiguous.
        qd = np.ascontiguousarray(split[0])
        kd = np.ascontiguousarray(split[1])
        vd = np.ascontiguousarray(split[2])
        probs = _softmax_array((qd * scale) @ np.swapaxes(kd, -1, -2))
        fused = probs @ vd  # (..., H, t, hd)
        out = fused.swapaxes(-3, -2).reshape(*lead, t, d)

    def backward(g):
        # A no-op on the matmul branch.  On the small-head branch the
        # transposed scores view has no unit-stride axis, so the gemms
        # would fall off BLAS; the strided head views of qkv stay on it.
        p = np.ascontiguousarray(probs)
        split_g = g.reshape(*lead, t, num_heads, head_dim)
        gh = split_g.swapaxes(-3, -2)
        # Softmax backward: ds = p ∘ (dp − rowsum(dp ∘ p)), where
        # rowsum(dp ∘ p) = rowsum(g ∘ out) per head — a head_dim-long
        # reduction instead of a t-long one over the scores.
        dot = np.sum(split_g * out.reshape(split_g.shape), axis=-1)
        dp = gh @ np.swapaxes(vd, -1, -2)
        dp -= np.swapaxes(dot, -1, -2)[..., None]
        ds = np.multiply(dp, p, out=dp)
        dqkv = np.empty(qkv.shape, dtype=g.dtype)
        view = np.moveaxis(
            dqkv.reshape(*lead, t, 3, num_heads, head_dim), -3, 0
        ).swapaxes(-3, -2)  # (3, ..., H, t, hd) views of dqkv
        np.multiply(ds @ kd, scale, out=view[0])
        np.multiply(np.swapaxes(ds, -1, -2) @ qd, scale, out=view[1])
        np.matmul(np.swapaxes(p, -1, -2), gh, out=view[2])
        return ((qkv, dqkv),)

    result = Tensor._from_op(out, (qkv,), backward)
    return (result, probs) if need_weights else result


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over all elements."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=prediction.data.dtype))
    diff = prediction - target
    return (diff * diff).mean()


def masked_mse_loss(prediction: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """MSE over entries where ``mask`` is True (Eq. 17 of the paper).

    ``mask`` marks the query ratings Q whose ground truth was hidden from the
    model; the loss averages squared error over exactly those cells.  The
    mask and target follow the prediction's dtype (no float64 upcasts on the
    float32 path).
    """
    dtype = prediction.data.dtype
    mask = np.asarray(mask, dtype=dtype)
    count = mask.sum()
    if count == 0:
        raise ValueError("masked_mse_loss requires at least one masked entry")
    diff = prediction - Tensor(np.asarray(target, dtype=dtype))
    return (diff * diff * Tensor(mask)).sum() * (1.0 / count)


def bce_loss(prediction: Tensor, target: np.ndarray, eps: float = 1e-9) -> Tensor:
    """Binary cross entropy on probabilities in (0, 1)."""
    target_t = Tensor(np.asarray(target, dtype=prediction.data.dtype))
    clipped = prediction.clip(eps, 1.0 - eps)
    losses = -(target_t * clipped.log() + (1.0 - target_t) * (1.0 - clipped).log())
    return losses.mean()


def l2_penalty(parameters) -> Tensor:
    """Sum of squared parameter values, for weight decay done as a loss term."""
    total = None
    for p in parameters:
        term = (p * p).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - rate)``.

    In eval mode (or at rate 0) this is the identity — no mask is ever
    allocated.  The keep-mask follows ``x.dtype``, so the float32 path never
    pays a float64 mask multiply.
    """
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype)
    mask /= keep
    return x * Tensor(mask)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix.

    The backward reduces the incoming gradient over the *unique* indices
    (sort + segmented ``np.add.reduceat``) and hands the autograd sweep a
    row-sparse :class:`~repro.nn.tensor.SparseRowGrad` — no full-size zero
    table and no elementwise ``np.add.at`` over duplicate rows.
    """
    indices = np.asarray(indices)
    out_data = table.data[indices]

    def backward(g):
        width = table.data.shape[-1]
        flat = indices.reshape(-1)
        g2 = g.reshape(-1, width)
        uniq, inv, counts = np.unique(flat, return_inverse=True, return_counts=True)
        if uniq.size == 0:
            return ((table, SparseRowGrad(uniq, g2)),)
        order = np.argsort(inv, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        sums = np.add.reduceat(g2[order], starts, axis=0)
        return ((table, SparseRowGrad(uniq, sums)),)

    return Tensor._from_op(out_data, (table,), backward)


def scatter_rows(values: Tensor, rows: np.ndarray, num_rows: int,
                 fill: Tensor | None = None) -> Tensor:
    """Scatter ``values`` (k, f) into a fresh ``(num_rows, f)`` buffer.

    Rows not listed in ``rows`` hold ``fill`` (broadcast, e.g. a learned mask
    token) or zeros.  ``rows`` must be unique — the op exists for sparse
    encodes where each destination row is written at most once, so the
    backward is a plain gather (no ``np.add.at``).
    """
    rows = np.asarray(rows)
    width = values.shape[-1]
    if fill is None:
        out_data = np.zeros((num_rows, width), dtype=values.data.dtype)
    else:
        out_data = np.empty((num_rows, width), dtype=values.data.dtype)
        out_data[...] = fill.data
    out_data[rows] = values.data
    parents = (values,) if fill is None else (values, fill)

    def backward(g):
        grads = [(values, g[rows])]
        if fill is not None:
            kept = np.ones(num_rows, dtype=bool)
            kept[rows] = False
            grads.append((fill, g[kept].sum(axis=0)))
        return tuple(grads)

    return Tensor._from_op(out_data, parents, backward)


def pad_to(x: np.ndarray, length: int, value: float = 0.0) -> np.ndarray:
    """Pad a 1-D array to ``length`` with ``value`` (no autograd; data prep)."""
    if len(x) >= length:
        return x[:length]
    out = np.full(length, value, dtype=x.dtype)
    out[: len(x)] = x
    return out


# --------------------------------------------------------------------------- #
# Graph-free inference kernels (``out=`` variants of the fused forwards)
# --------------------------------------------------------------------------- #
# These operate on raw ndarrays and write every intermediate into
# caller-provided buffers, so a warmed-up :class:`repro.nn.inference` plan
# performs zero allocations per call.  Each kernel replays the *exact* op
# sequence of its fused autograd sibling above (same associativity, same
# reduction order), which is what makes ``forward_inference`` bitwise
# identical to the ``no_grad`` Tensor path at both dtypes.


def linear_into(x: np.ndarray, weight: np.ndarray, out: np.ndarray,
                bias: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight (+ bias)`` into ``out`` — mirrors :func:`linear`."""
    np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    return out


def layer_norm_into(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    out: np.ndarray, sq: np.ndarray, red: np.ndarray,
                    eps: float = 1e-5) -> np.ndarray:
    """Layer norm over the last axis into ``out`` — mirrors :func:`layer_norm`.

    ``sq`` is an x-shaped scratch, ``red`` a ``(..., 1)`` reduction buffer.
    """
    np.mean(x, axis=-1, keepdims=True, out=red)
    np.subtract(x, red, out=out)                 # centered
    np.multiply(out, out, out=sq)
    np.mean(sq, axis=-1, keepdims=True, out=red)  # var
    np.add(red, eps, out=red)
    np.sqrt(red, out=red)
    np.divide(1.0, red, out=red)                 # inv_std
    np.multiply(out, red, out=out)               # xhat
    np.multiply(out, gamma, out=out)
    np.add(out, beta, out=out)
    return out


def gelu_into(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation) into ``out`` — mirrors :func:`gelu`.

    The cubic term multiplies in the fused kernel's left-associated order
    ``((A·x)·x)·x`` so float rounding matches bit for bit.
    """
    np.multiply(x, _GELU_A, out=tmp)
    np.multiply(tmp, x, out=tmp)
    np.multiply(tmp, x, out=tmp)
    np.add(x, tmp, out=tmp)
    np.multiply(tmp, _GELU_C, out=tmp)
    np.tanh(tmp, out=tmp)
    np.add(tmp, 1.0, out=tmp)
    np.multiply(x, 0.5, out=out)
    np.multiply(out, tmp, out=out)
    return out


def softmax_into(scores: np.ndarray, red: np.ndarray) -> np.ndarray:
    """In-place softmax over the last axis — mirrors :func:`_softmax_array`."""
    np.amax(scores, axis=-1, keepdims=True, out=red)
    np.subtract(scores, red, out=scores)
    np.exp(scores, out=scores)
    np.sum(scores, axis=-1, keepdims=True, out=red)
    np.divide(scores, red, out=scores)
    return scores


def _fold(ufunc, slabs: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """``acc = ufunc(…ufunc(slabs[0], slabs[1])…, slabs[-1])``: a reduction
    over the leading axis unrolled left to right, one contiguous slab per
    call (a fixed order that does not depend on array size or tiling)."""
    if len(slabs) == 1:
        np.copyto(acc, slabs[0])
        return acc
    ufunc(slabs[0], slabs[1], out=acc)
    for j in range(2, len(slabs)):
        ufunc(acc, slabs[j], out=acc)
    return acc


def small_head_tile(t: int, num_heads: int, cells: int) -> int:
    """Cells per tile of the engine's token-major core: as many as fit
    :data:`SMALL_HEAD_TILE_SCORES` score elements, at least one, at most
    ``cells``."""
    return max(1, min(cells, SMALL_HEAD_TILE_SCORES // (t * t * num_heads)))


def attend_small_heads(qkv: np.ndarray, num_heads: int, out: np.ndarray,
                       scores: np.ndarray, red: np.ndarray,
                       qs: np.ndarray) -> np.ndarray:
    """Token-major attention core for heads of ``head_dim <= SMALL_HEAD_DIM``.

    ``qkv`` is ``(cells, t, 3d)`` and ``out`` ``(cells, t, d)``, each with a
    contiguous last axis (strided leading axes are fine).  q, k and v are
    read as strided views of ``qkv`` and the result accumulates straight
    into ``out``: no head split or merge copies.  Per cell and head the
    scores live in a ``(t_j, cells, t_i, H)`` layout, built with
    ``head_dim`` broadcast multiply-adds instead of batched ``t×hd·hd×t``
    matmuls; the softmax max and sum fold over the ``t_j`` slabs with
    :func:`_fold`; ``probs·v`` accumulates slab by slab in a contiguous
    accumulator whose last add lands in ``out``.

    ``scores``, ``red`` and ``qs`` are contiguous arrays (any shape).
    ``red`` and ``qs`` are scratch holding ``2·t·H`` and ``hd·t·H``
    elements per cell of a tile; cells run in tiles of as many as they
    hold.  When ``scores`` holds ``t²·H`` elements for every cell, each
    tile's scores land in their own ``[:, c0:c1]`` slice and the call
    leaves the attention probabilities behind as ``(t_j, cells, t_i, H)``
    (the autograd path keeps them); otherwise ``scores`` is one tile of
    scratch that every tile reuses.  Every op is elementwise per cell, so
    neither the tile size nor the mode changes a bit of the output.
    """
    cells, t, packed = qkv.shape
    d = packed // 3
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    row = t * num_heads  # one cell's (t_i, H) slab
    tile = max(1, min(red.size // (2 * row), qs.size // (head_dim * row)))
    keep = scores.size >= t * cells * row
    if not keep:
        tile = max(1, min(tile, scores.size // (t * row)))
    held = cells if keep else tile
    all_scores = scores.reshape(-1)[: t * held * row].reshape(
        t, held, t, num_heads)
    parts = qkv.reshape(cells, t, 3, num_heads, head_dim)
    heads_out = out.reshape(cells, t, num_heads, head_dim)
    flat_red = red.reshape(-1)
    flat_qs = qs.reshape(-1)
    for c0 in range(0, cells, tile):
        c1 = min(cells, c0 + tile)
        count = (c1 - c0) * row
        s = all_scores[:, c0:c1] if keep else all_scores[:, : c1 - c0]
        slab = flat_red[:count].reshape(c1 - c0, t, num_heads)
        acc = flat_red[count: 2 * count].reshape(c1 - c0, t, num_heads)
        q = flat_qs[: head_dim * count].reshape(head_dim, c1 - c0, t,
                                                num_heads)
        block = parts[c0:c1]
        # (hd, t_j, T, 1, H) / (hd, t_j, T, 1, H): broadcast over t_i.
        k = block[:, :, 1].transpose(3, 1, 0, 2)[:, :, :, None, :]
        v = block[:, :, 2].transpose(3, 1, 0, 2)[:, :, :, None, :]
        for a in range(head_dim):
            np.multiply(block[:, :, 0, :, a], scale, out=q[a])
        np.multiply(q[0], k[0], out=s)
        for a in range(1, head_dim):
            for j in range(t):
                np.multiply(q[a], k[a, j], out=slab)
                np.add(s[j], slab, out=s[j])
        _fold(np.maximum, s, slab)
        np.subtract(s, slab, out=s)
        np.exp(s, out=s)
        _fold(np.add, s, slab)
        np.divide(s, slab, out=s)
        for a in range(head_dim):
            o = heads_out[c0:c1, :, :, a]
            np.multiply(s[0], v[a, 0], out=acc if t > 1 else o)
            for j in range(1, t):
                np.multiply(s[j], v[a, j], out=slab)
                np.add(acc, slab, out=acc if j < t - 1 else o)
    return out


def mha_qkv_into(qkv: np.ndarray, num_heads: int, out: np.ndarray,
                 q: np.ndarray, k: np.ndarray | None, v: np.ndarray | None,
                 scores: np.ndarray, red: np.ndarray,
                 ctx: np.ndarray | None, spans=None) -> np.ndarray:
    """Packed-QKV multi-head attention into ``out`` — mirrors
    :func:`multi_head_attention_qkv`.

    ``qkv`` is ``(..., t, 3d)`` and ``out`` ``(..., t, d)``.  Heads of
    ``head_dim <= SMALL_HEAD_DIM`` run :func:`attend_small_heads`, tiled
    over the cells: ``scores``/``red``/``q`` are its tile scratch and
    ``k``/``v``/``ctx`` go unused.  Larger heads run batched matmuls:
    ``q``/``k``/``v``/``ctx`` are ``(..., H, t, hd)`` head-major buffers,
    ``scores`` is ``(..., H, t, t)`` and ``red`` its ``(..., H, t, 1)``
    reduction scratch.

    ``spans`` is the padded-packing row mask, expressed structurally: per
    span, views that slice the buffers down to one span's *real* batch
    rows and token count, so padded rows and columns never enter a
    reduction and every real row stays bitwise identical to an unpadded
    run.  Small heads take ``(qkv_s, out_s)`` pairs with one leading cell
    axis.  Larger heads take ``(q_s, k_swapped_s, v_s, scores_s, red_s,
    ctx_s)`` head-major views: the core (``q kᵀ``, softmax, ``probs @ v``)
    runs once per span while the head split/merge copies and the 1/√hd
    scale still execute on the full (padded) buffers in one shot.  Padded
    regions of ``out`` are left stale; callers must never extract them.
    """
    *lead, t, packed = qkv.shape
    d = packed // 3
    head_dim = d // num_heads
    if head_dim <= SMALL_HEAD_DIM:
        if spans is None:
            spans = ((qkv.reshape(-1, t, packed), out.reshape(-1, t, d)),)
        for qkv_s, out_s in spans:
            attend_small_heads(qkv_s, num_heads, out_s, scores, red, q)
        return out
    scale = 1.0 / math.sqrt(head_dim)
    split = np.moveaxis(
        qkv.reshape(*lead, t, 3, num_heads, head_dim), -3, 0
    ).swapaxes(-3, -2)
    np.copyto(q, split[0])
    np.copyto(k, split[1])
    np.copyto(v, split[2])
    np.multiply(q, scale, out=q)
    if spans is None:
        np.matmul(q, np.swapaxes(k, -1, -2), out=scores)
        softmax_into(scores, red)
        np.matmul(scores, v, out=ctx)             # (..., H, t, hd)
    else:
        for q_s, k_sw, v_s, scores_s, red_s, ctx_s in spans:
            np.matmul(q_s, k_sw, out=scores_s)
            softmax_into(scores_s, red_s)
            np.matmul(scores_s, v_s, out=ctx_s)
    out.reshape(*lead, t, num_heads, head_dim)[...] = np.swapaxes(ctx, -3, -2)
    return out


def sigmoid_rescale_into(x: np.ndarray, alpha: float,
                         out: np.ndarray) -> np.ndarray:
    """``sigmoid(x) * alpha`` into ``out`` — mirrors ``Tensor.sigmoid`` (with
    its ±60 clip) followed by a scalar multiply coerced to ``x.dtype``."""
    np.clip(x, -60.0, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    np.multiply(out, np.asarray(alpha, dtype=out.dtype), out=out)
    return out
