"""Analytic operation counts for the inference engine's kernels.

Every number here is *computed* from argument shapes, never measured: a
CPU run has no hardware counters to read.  FLOPs count one per
multiply, add, compare, divide, square root, exp or tanh.  Bytes moved
count each full-size array pass a kernel makes (every operand read plus
every result written, at the array's item size) — a streaming model that
ignores caches, so it is an upper bound on DRAM traffic.
"""

from __future__ import annotations

from math import prod


def linear(x, weight, out, bias=None) -> tuple[float, float]:
    """``x @ weight (+ bias)``: one GEMM, then an optional bias pass."""
    k = x.shape[-1]
    n = weight.shape[-1]
    rows = x.size // k if k else 0
    flops = 2.0 * rows * k * n
    moved = rows * k + k * n + rows * n
    if bias is not None:
        flops += rows * n
        moved += 2 * rows * n + n
    return flops, moved * x.itemsize


def layer_norm(x, gamma, beta, out, sq, red, eps=1e-5) -> tuple[float, float]:
    """Seven full passes (mean, centre, square, mean, scale, γ, β) plus
    four per-row ops on the reduction buffer."""
    count = x.size
    rows = count // x.shape[-1] if x.shape[-1] else 0
    flops = 7.0 * count + 4.0 * rows
    moved = 12 * count + 2 * x.shape[-1] + 8 * rows
    return flops, moved * x.itemsize


def gelu(x, out, tmp) -> tuple[float, float]:
    """Nine elementwise passes of the tanh approximation."""
    count = x.size
    return 9.0 * count, 21 * count * x.itemsize


def softmax(scores, red) -> tuple[float, float]:
    """max, subtract, exp, sum, divide over the last axis (exp counted as
    one operation)."""
    count = scores.size
    return 5.0 * count, (8 * count + 4 * red.size) * scores.itemsize


def mha_core(qkv, num_heads, *args, **kwargs) -> tuple[float, float]:
    """``mha_qkv_into`` without its nested softmax: the head split copies,
    the 1/√hd scale, ``q·kᵀ``, ``p·v`` and the head merge copy."""
    *lead, t, packed = qkv.shape
    d = packed // 3
    batch = prod(lead) if lead else 1
    flops = 4.0 * batch * t * t * d + batch * t * d
    moved = 14 * batch * t * d + 2 * batch * num_heads * t * t
    return flops, moved * qkv.itemsize


def paper_forward_flops(num_blocks: int, n: int, m: int, embed_dim: int,
                        num_attributes: int) -> float:
    """The paper's §V per-context cost term ``K·n·m·e·(n + m + h)``, taken
    literally as a FLOP count (constant factors dropped, as in the paper)."""
    return float(num_blocks * n * m * embed_dim * (n + m + num_attributes))
