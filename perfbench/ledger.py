"""The traced run's span recorder and per-layer ledger.

:class:`Ledger` installs timing wrappers, from the benchmark's own files,
around the public functions of each layer.  Each name is patched where its
caller looks it up (``repro.serve.service.assemble_user_chunks``,
``repro.nn.functional.softmax_into``, class attributes for methods), and
:meth:`Ledger.remove` restores the originals.  A span holds its name,
thread, start, end, parent (the enclosing span on the same thread) and, for
engine kernels, the analytic FLOPs and bytes of the call (see
:mod:`opcount`).  Spans stay in memory until :meth:`Ledger.write` dumps
them as JSON lines when the run ends.

The block kind of an attention kernel comes from call order: within one
plan run (``forward_inference*``) or one Tensor-path ``HIRE.forward_many``
the attention calls go MBU, MBI, MBA per block, as
``InferencePlan._build_steps`` lays them out.  ``softmax_into`` takes the
kind of the ``mha_qkv_into`` span that encloses it.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import opcount

KINDS = ("mbu", "mbi", "mba")
ENGINE_KERNELS = tuple(f"{kind}.{part}" for part in ("attn", "softmax")
                       for kind in KINDS) + ("linear", "layer_norm", "gelu")


class Ledger:
    """Records spans from patched functions; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple] = []
        self.t0 = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.engine_calls = 0
            local.autograd_calls = 0
        return local

    def _wrap(self, fn, name, reset=None, ops=None, items=None):
        spans = self.spans
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            if reset is not None:
                setattr(local, reset, 0)
            parent = stack[-1] if stack else None
            label = name(local, parent) if callable(name) else name
            record = [label, threading.get_ident(), 0.0, 0.0, parent,
                      ops(*args, **kwargs) if ops is not None else None,
                      items(*args, **kwargs) if items is not None else 1]
            spans.append(record)
            stack.append(record)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name, reset=None, ops=None,
              items=None) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(original, name, reset, ops, items))
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every patched name (idempotent)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> "Ledger":
        """Wrap the public functions of every layer the workloads reach."""
        from repro.core import model as core_model
        from repro.core import sampling, trainer as core_trainer
        from repro.data import bipartite
        from repro.nn import functional, inference, optim, tensor
        from repro.online import gate as online_gate
        from repro.online import trainer as online_trainer
        from repro.serve import cache as serve_cache
        from repro.serve import dataplane, registry
        from repro.serve import service as serve_service

        def engine_kind(part):
            def label(local, parent):
                kind = KINDS[local.engine_calls % len(KINDS)]
                local.engine_calls += 1
                return f"nn.functional.{kind}.{part}"
            return label

        def autograd_kind(local, parent):
            kind = KINDS[local.autograd_calls % len(KINDS)]
            local.autograd_calls += 1
            return f"nn.functional.{kind}.mha_autograd"

        def softmax_kind(local, parent):
            if parent is not None and parent[0].endswith(".attn"):
                return parent[0][:-len("attn")] + "softmax"
            return "nn.functional.other.softmax"

        # repro.serve / repro.serve.dataplane / repro.data
        self.patch(serve_service, "assemble_user_chunks", "core.assemble")
        self.patch(serve_cache.ContextCache, "invalidate_entities",
                   "serve.invalidate")
        self.patch(inference.EmbeddingStore, "invalidate_entities",
                   "serve.invalidate")
        self.patch(dataplane.GraphStore, "apply", "serve.dataplane.apply")
        self.patch(bipartite.RatingGraph, "apply_deltas", "data.apply_deltas")
        # repro.core (assembly and training)
        self.patch(sampling.NeighborhoodSampler, "sample",
                   "core.sampling.sample")
        self.patch(core_trainer.HIRETrainer, "sample_training_context",
                   "core.trainer.sample_context")
        self.patch(core_model.HIRE, "forward_many", "core.model.forward_many",
                   reset="autograd_calls")
        # repro.nn.inference and the engine kernels
        self.patch(inference, "forward_inference", "nn.inference.forward",
                   reset="engine_calls")
        for attr in ("forward_inference_many", "forward_inference_packed"):
            self.patch(inference, attr, "nn.inference.forward",
                       reset="engine_calls",
                       items=lambda model, contexts, *a, **k: len(contexts))
        self.patch(functional, "mha_qkv_into", engine_kind("attn"),
                   ops=opcount.mha_core)
        self.patch(functional, "softmax_into", softmax_kind,
                   ops=opcount.softmax)
        self.patch(functional, "linear_into", "nn.functional.linear",
                   ops=opcount.linear)
        self.patch(functional, "layer_norm_into", "nn.functional.layer_norm",
                   ops=opcount.layer_norm)
        self.patch(functional, "gelu_into", "nn.functional.gelu",
                   ops=opcount.gelu)
        # repro.nn autograd path
        self.patch(functional, "multi_head_attention_qkv", autograd_kind)
        self.patch(tensor.Tensor, "backward", "nn.tensor.backward")
        self.patch(optim.Lookahead, "step", "nn.optim.step")
        self.patch(optim.Lookahead, "zero_grad", "nn.optim.zero_grad")
        # repro.online
        self.patch(online_trainer.IncrementalTrainer, "fine_tune",
                   "online.fine_tune")
        self.patch(online_gate.PromotionGate, "evaluate", "online.probe")
        self.patch(registry.ModelRegistry, "add", "online.swap")
        return self

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, FLOPs, bytes,
        and self seconds by thread."""
        finished = [r for r in self.spans if r[3]]
        child = defaultdict(float)
        for record in finished:
            if record[4] is not None:
                child[id(record[4])] += record[3] - record[2]
        out: dict = {}
        for record in finished:
            entry = out.setdefault(record[0], {
                "calls": 0, "items": 0, "seconds": 0.0, "self": 0.0,
                "flops": 0.0, "bytes": 0.0,
                "self_by_thread": defaultdict(float)})
            duration = record[3] - record[2]
            own = duration - child[id(record)]
            entry["calls"] += 1
            entry["items"] += record[6]
            entry["seconds"] += duration
            entry["self"] += own
            entry["self_by_thread"][record[1]] += own
            if record[5] is not None:
                entry["flops"] += record[5][0]
                entry["bytes"] += record[5][1]
        return out

    def busiest_thread(self, name: str) -> int | None:
        """The thread that recorded the most ``name`` spans."""
        counts = defaultdict(int)
        for record in self.spans:
            if record[0] == name:
                counts[record[1]] += 1
        return max(counts, key=counts.get) if counts else None

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for i, (name, thread, start, end, parent, ops, items) in (
                    enumerate(self.spans)):
                row = {"i": i, "name": name, "thread": thread,
                       "start": start - self.t0, "end": end - self.t0,
                       "parent": None if parent is None else index[id(parent)],
                       "items": items}
                if ops is not None:
                    row["flops"], row["bytes"] = ops
                handle.write(json.dumps(row) + "\n")


def _per_call(entry, key="seconds", scale=1e3) -> float:
    if not entry or not entry["calls"]:
        return 0.0
    return entry[key] / entry["calls"] * scale


def layer_metrics(agg: dict, work_thread: int | None, wall: float,
                  paper_flops: float) -> dict:
    """The span-derived part of the per-layer ledger.

    ``*.ms`` / ``*.s`` are the mean inclusive time per call, except the
    engine kernels, which report self time (the attention core excludes its
    nested softmax).  ``trace.coverage`` is the self time of every span on
    the work thread (the serve worker or the trainer) over the window's
    wall time, i.e. how much of that thread's time the ledger places.
    """
    get = agg.get
    forward = get("nn.inference.forward")
    metrics = {
        "core.assemble.ms": _per_call(get("core.assemble")),
        "core.assemble.calls": float(get("core.assemble", {}).get("calls", 0)),
        "core.sampling.sample.ms": _per_call(get("core.sampling.sample")),
        "nn.inference.forward.ms": _per_call(forward),
        "nn.inference.forward.calls": float(forward["calls"] if forward else 0),
        "nn.inference.forward.share": (
            forward["seconds"] / wall if forward and wall else 0.0),
        "data.apply_deltas.ms": _per_call(get("data.apply_deltas")),
        "serve.dataplane.apply.ms": _per_call(get("serve.dataplane.apply")),
        "core.trainer.sample_context.ms": _per_call(
            get("core.trainer.sample_context")),
        "core.model.forward_many.ms": _per_call(get("core.model.forward_many")),
        "nn.tensor.backward.ms": _per_call(get("nn.tensor.backward")),
        "nn.optim.step.ms": _per_call(get("nn.optim.step")),
        "nn.optim.zero_grad.ms": _per_call(get("nn.optim.zero_grad")),
        "online.fine_tune.s": _per_call(get("online.fine_tune"), scale=1.0),
        "online.probe.s": _per_call(get("online.probe"), scale=1.0),
        "online.swap.ms": _per_call(get("online.swap")),
    }
    updates = get("serve.dataplane.apply", {}).get("calls", 0)
    invalidate = get("serve.invalidate", {}).get("seconds", 0.0)
    metrics["serve.invalidate.ms"] = invalidate / updates * 1e3 if updates else 0.0
    kernel_flops = 0.0
    for kernel in ENGINE_KERNELS:
        entry = get(f"nn.functional.{kernel}")
        metrics[f"nn.functional.{kernel}.ms"] = _per_call(entry, "self")
        own = entry["self"] if entry else 0.0
        metrics[f"nn.functional.{kernel}.gflop_per_s"] = (
            entry["flops"] / own / 1e9 if entry and own > 0 else 0.0)
        metrics[f"nn.functional.{kernel}.mb_moved"] = _per_call(
            entry, "bytes", 1e-6)
        kernel_flops += entry["flops"] if entry else 0.0
    for kind in KINDS:
        metrics[f"nn.functional.{kind}.mha_autograd.ms"] = _per_call(
            get(f"nn.functional.{kind}.mha_autograd"))
    contexts = forward["items"] if forward else 0
    metrics["nn.forward.kernel_mflop"] = (
        kernel_flops / contexts / 1e6 if contexts else 0.0)
    metrics["nn.forward.paper_mflop"] = paper_flops / 1e6
    covered = sum(entry["self_by_thread"].get(work_thread, 0.0)
                  for entry in agg.values())
    metrics["trace.coverage"] = covered / wall if wall else 0.0
    return metrics
