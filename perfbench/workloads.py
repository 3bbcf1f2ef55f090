"""The three workloads: serve-steady, serve-churn and learn.

Each drives the program through its public API only
(``PredictionService.from_split / submit_request / update_ratings /
stats``, ``HIRETrainer.train_step``, ``OnlineController.ingest /
run_round``).  The dataset, split, tasks and model are fixed (seed 0): they
are the deployed system.  ``--seed`` makes the inputs the program receives —
the request stream, the update bursts, the training draws — so one seed
always gives the same inputs.

A workload function returns an :class:`Outcome`.  Untraced, it carries the
end-to-end metrics; traced (``trace=True``) it runs an untraced window and
then a traced one on a fresh set-up, and carries the per-layer ledger.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
import opcount
from ledger import Ledger, layer_metrics

from repro import nn
from repro.core import (
    HIRE,
    HIREConfig,
    HIRETrainer,
    NeighborhoodSampler,
    TrainerConfig,
    assemble_user_chunks,
    build_serving_graph,
    task_chunk_rng,
)
from repro.data import make_cold_start_split, movielens_like
from repro.eval.tasks import EvalTask, build_eval_tasks
from repro.obs import get_registry
from repro.online import (
    FineTuneConfig,
    GateConfig,
    IncrementalTrainer,
    OnlineConfig,
    OnlineController,
    PromotionGate,
    RatingLog,
)
from repro.serve import ModelRegistry, PredictionService, ServiceConfig
from repro.serve.dataplane import GraphStore
from repro.serve.workload import (
    WorkloadRequest,
    synthesize_power_law_workload,
    synthesize_update_bursts,
    synthesize_workload,
)

SETUP_REPEATS = 5      # set-ups per run; setup_s is their median
OUTSTANDING = 8        # closed-loop requests in flight
SWAP_ROUNDS = 25       # serve-side model-freshness rounds after the window
BURST_SIZE = 64        # deltas per serve-churn update burst
REQUEST_TIMEOUT = 60.0


@dataclass
class Outcome:
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    window: harness.Window | None = None
    ledger: Ledger | None = None
    notes: list = field(default_factory=list)


def median_ms(seconds) -> float:
    return statistics.median(seconds) * 1e3


def rmse(predicted, actual) -> float:
    diff = np.asarray(predicted, dtype=np.float64) - np.asarray(actual)
    return float(np.sqrt(np.mean(diff * diff)))


def _delta_rate(after: dict, before: dict, hit: str, miss: str) -> float:
    hits = after.get(hit, 0) - before.get(hit, 0)
    misses = after.get(miss, 0) - before.get(miss, 0)
    return hits / (hits + misses) if hits + misses else 0.0


def _global_counters() -> dict:
    snapshot = get_registry().snapshot()
    return {name: snapshot.get(name, {}).get("value", 0)
            for name in ("infer.plan_cache.hit", "infer.plan_cache.miss",
                         "infer.embed_store.hit", "infer.embed_store.miss")}


def _engine_layers(before: dict) -> dict:
    after = _global_counters()
    return {
        "nn.inference.plan_cache.hit_rate": _delta_rate(
            after, before, "infer.plan_cache.hit", "infer.plan_cache.miss"),
        "nn.inference.embed_store.hit_rate": _delta_rate(
            after, before, "infer.embed_store.hit", "infer.embed_store.miss"),
    }


def _paper_flops(model: HIRE, n: int, m: int) -> float:
    enc = model.encoder
    return opcount.paper_forward_flops(len(model.blocks), n, m,
                                       enc.embed_dim, enc.num_attributes)


def _timed_setups(build, on_first):
    """Run ``build`` SETUP_REPEATS times, closing all but the last result.

    ``on_first(state)`` runs once after the first set-up, outside the
    timing: it generates the run's inputs, which may need the set-up's
    split and tasks.  Returns ``(last_state, inputs, median_seconds)``.
    """
    durations = []
    state = inputs = None
    for repeat in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        start = time.perf_counter()
        state = build()
        durations.append(time.perf_counter() - start)
        if repeat == 0:
            inputs = on_first(state)
    print(f"perfbench: set-ups took {[round(d, 4) for d in durations]} s",
          file=sys.stderr)
    return state, inputs, statistics.median(durations)


# ====================================================================== #
# Serving workloads
# ====================================================================== #
@dataclass(frozen=True)
class ServeSpec:
    dataset: tuple              # (num_users, num_items, ratings_per_user)
    model: dict
    context: int                # context_users = context_items
    max_tasks: int
    chunks_per_request: int     # contexts each request is scored with
    requests_per_second: int    # input sizing headroom, not a target rate
    burst_every: int | None     # updates inside the window, or None
    rmse_prefix: int = 96       # rmse over the first N requests issued


STEADY = ServeSpec(
    dataset=(150, 100, 30.0),
    model=dict(num_blocks=3, num_heads=8, attr_dim=16, seed=0),
    context=32, max_tasks=24, chunks_per_request=1, requests_per_second=40,
    burst_every=None)
CHURN = ServeSpec(
    dataset=(1500, 800, 40.0),
    model=dict(num_blocks=1, num_heads=2, attr_dim=8, seed=0),
    context=8, max_tasks=200, chunks_per_request=3, requests_per_second=150,
    burst_every=2, rmse_prefix=512)


def fixed_chunk_tasks(tasks, context_items: int, chunks: int) -> list[EvalTask]:
    """Each task's query cut to what ``chunks`` contexts score.

    ``assemble_user_chunks`` keeps up to ``context_items // 4`` item slots
    for supports and scores the rest, so a query of at most
    ``chunks * (context_items - context_items // 4)`` items takes at most
    ``chunks`` contexts — exactly ``chunks`` when the user has that many
    query items, as every task of these workloads does.  Every request
    then carries the same work, and seeds differ in which users they hit
    rather than in how much work a request is.
    """
    cap = chunks * (context_items - max(context_items // 4, 1))
    return [EvalTask(user=task.user, support=task.support,
                     query=task.query[:cap]) for task in tasks]


class ServeState:
    """One set-up of a serving workload."""

    def __init__(self, spec: ServeSpec):
        num_users, num_items, per_user = spec.dataset
        self.spec = spec
        self.dataset = movielens_like(num_users=num_users, num_items=num_items,
                                      seed=0, ratings_per_user=per_user)
        self.split = make_cold_start_split(self.dataset, 0.2, 0.2, seed=0)
        self.tasks = fixed_chunk_tasks(
            build_eval_tasks(self.split, "user", min_query=2, seed=0,
                             max_tasks=spec.max_tasks),
            spec.context, spec.chunks_per_request)
        self.model = HIRE(self.dataset, HIREConfig(**spec.model))
        self.registry = ModelRegistry(self.dataset)
        self.registry.add("base", self.model)
        self.config = ServiceConfig(context_users=spec.context,
                                    context_items=spec.context)
        self.service = PredictionService.from_split(
            self.registry, self.split, self.tasks, config=self.config)
        # Warm-up: first plan builds and BLAS calls, one full batch and one
        # single request, on fixed tasks (the same for every seed).
        warm = [WorkloadRequest.from_task(task) for task in self.tasks[:9]]
        futures = [self.service.submit(r.user, r.item_ids, r.support_items)
                   for r in warm[:OUTSTANDING]]
        for future in futures:
            future.result(REQUEST_TIMEOUT)
        self.service.predict(warm[-1].user, warm[-1].item_ids,
                             warm[-1].support_items, timeout=REQUEST_TIMEOUT)

    def close(self) -> None:
        self.service.close()


def _serve_inputs(state: ServeState, seed: int, seconds: float):
    spec = state.spec
    count = int(seconds * spec.requests_per_second) + OUTSTANDING
    if spec.burst_every is None:
        requests = synthesize_workload(state.tasks, count, seed=seed)
        bursts = None
    else:
        requests = synthesize_power_law_workload(state.tasks, count, seed=seed)
        bursts = synthesize_update_bursts(
            state.split, state.tasks, num_bursts=count // spec.burst_every,
            burst_size=BURST_SIZE, seed=seed + 1)
    return requests, bursts


def sequential_scores(model, graph, candidate_users, candidate_items,
                      request, config: ServiceConfig) -> np.ndarray:
    """The sequential reference: per-task-RNG assembly and a Tensor-path
    forward per chunk, one request at a time, as ``HIREPredictor`` with
    ``per_task_rng=True`` scores it."""
    sampler = NeighborhoodSampler()
    query = np.asarray(request.item_ids, dtype=np.int64)
    support = np.asarray(request.support_items, dtype=np.int64)
    total = None
    for sample in range(config.num_context_samples):
        chunks = assemble_user_chunks(
            graph, sampler, request.user, query, support,
            context_users=config.context_users,
            context_items=config.context_items,
            reveal_fraction=config.reveal_fraction,
            candidate_users=candidate_users, candidate_items=candidate_items,
            rng_factory=lambda start, _s=sample: task_chunk_rng(
                config.seed, request.user, _s, start))
        part = np.empty(len(query), dtype=np.float64)
        with nn.no_grad():
            for chunk in chunks:
                out = model.forward(chunk.context).data
                part[chunk.start:chunk.start + len(chunk)] = (
                    out[chunk.user_row, chunk.cols])
        total = part if total is None else total + part
    return total / config.num_context_samples


def _served(loop, index: int):
    """The served vector of request ``index``, or ``None`` if it failed."""
    future = loop.futures[index] if index < len(loop.futures) else None
    if future is None or index not in loop.done_at or future.exception():
        return None
    return future.result()


def _check_steady(state: ServeState, requests, loop) -> int:
    """Bitwise check of every served vector for a fixed sample of users:
    the distinct users among the first ``rmse_prefix`` requests, at most
    12, each scored once by the sequential reference."""
    graph, cand_u, cand_i = build_serving_graph(state.split, state.tasks)
    prefix = requests[:state.spec.rmse_prefix]
    sample = list(dict.fromkeys(r.user for r in prefix))[:12]
    reference = {}
    for request in prefix:
        if request.user in sample and request.user not in reference:
            reference[request.user] = sequential_scores(
                state.model, graph, cand_u, cand_i, request, state.config)
    mismatches = 0
    for index, request in enumerate(requests[:len(loop.futures)]):
        got = _served(loop, index)
        if got is not None and request.user in reference:
            mismatches += not np.array_equal(got, reference[request.user])
    return mismatches


def _check_churn(state: ServeState, requests, bursts, loop) -> int:
    """Check every served vector against the graph state its request was
    admitted on.  One generator thread issued both submits and updates, so
    that state is deterministic: a fresh data plane replays the same
    bursts in order, and each request is scored sequentially on the
    snapshot whose generation it recorded."""
    graph, cand_u, cand_i = build_serving_graph(state.split, state.tasks)
    store = GraphStore(graph, cand_u, cand_i)
    replayed = 0
    mismatches = 0
    for index in range(len(loop.futures)):
        generation = loop.generations[index]
        while store.generation < generation:
            store.apply(bursts[replayed])
            replayed += 1
        got = _served(loop, index)
        if got is None:
            continue
        snapshot = store.state
        expected = sequential_scores(state.model, snapshot.graph,
                                     snapshot.candidate_users,
                                     snapshot.candidate_items,
                                     requests[index], state.config)
        mismatches += not np.array_equal(got, expected)
    return mismatches


def _served_rmse(state: ServeState, requests, loop) -> float:
    """RMSE of the first served vector of each distinct user among the
    first ``rmse_prefix`` requests, against the users' query ratings."""
    by_user = {task.user: task for task in state.tasks}
    first = {}
    for index, request in enumerate(requests[:state.spec.rmse_prefix]):
        first.setdefault(request.user, index)
    predicted, actual = [], []
    for user, index in first.items():
        got = _served(loop, index)
        if got is None:
            return float("nan")
        predicted.append(got)
        actual.append(by_user[user].query_ratings)
    return rmse(np.concatenate(predicted), np.concatenate(actual))


def _swap_rounds(state: ServeState, request) -> tuple[list, int]:
    """Model freshness on the serve tier, after the window: publish a
    same-weights clone through ``ModelRegistry.add`` and wait for the first
    response it serves.  Returns the round times and the failure count."""
    seconds, failed = [], 0
    for index in range(SWAP_ROUNDS):
        clone = HIRE(state.dataset, state.model.config)
        clone.load_state_dict(state.model.state_dict())
        start = time.perf_counter()
        try:
            state.registry.add(f"swap-{index}", clone, activate=True)
            state.service.predict(request.user, request.item_ids,
                                  request.support_items,
                                  timeout=REQUEST_TIMEOUT)
        except Exception as error:  # counted as a failed operation
            print(f"perfbench: swap round failed: {error!r}", file=sys.stderr)
            failed += 1
        seconds.append(time.perf_counter() - start)
    return seconds, failed


def _serve_window(state: ServeState, requests, bursts, seconds: float):
    window = harness.Window().begin()
    loop = harness.closed_loop(state.service, requests, seconds, OUTSTANDING,
                               window, bursts=bursts,
                               burst_every=state.spec.burst_every or 2,
                               timeout=REQUEST_TIMEOUT)
    return window, loop


def _loop_failures(loop) -> int:
    failed = loop.timed_out + loop.submits_failed + loop.updates_failed
    for index, future in enumerate(loop.futures):
        if index in loop.done_at and future.exception() is not None:
            failed += 1
    return failed


def _check(state, requests, bursts, loop) -> tuple[int, int]:
    """``(attempted, failed)`` for the window, correctness included."""
    attempted = len(loop.futures) + loop.updates
    failed = _loop_failures(loop)
    if state.spec.burst_every is None:
        mismatches = _check_steady(state, requests, loop)
    else:
        mismatches = _check_churn(state, requests, bursts, loop)
    if mismatches:
        print(f"perfbench: {mismatches} served vectors differ from the "
              "sequential reference", file=sys.stderr)
    return attempted, failed + mismatches


def run_serve(spec: ServeSpec, seed: int, seconds: float,
              trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        return _run_serve_traced(spec, seed, seconds, outcome)
    state, inputs, setup_s = _timed_setups(
        lambda: ServeState(spec),
        lambda first: _serve_inputs(first, seed, seconds))
    requests, bursts = inputs
    try:
        window, loop = _serve_window(state, requests, bursts, seconds)
        rounds, rounds_failed = _swap_rounds(state, requests[0])
        attempted, failed = _check(state, requests, bursts, loop)
        served_rmse = _served_rmse(state, requests, loop)
    finally:
        state.close()
    latencies = loop.latencies()
    completed = len(latencies)
    if not np.isfinite(served_rmse):
        failed += 1
    outcome.window = window
    outcome.attempted = attempted + len(rounds)
    outcome.failed = failed + rounds_failed
    outcome.e2e = {
        "setup_s": setup_s,
        "throughput_per_s": completed / window.wall,
        "latency_p50_ms": harness.percentile(latencies, 50) * 1e3,
        "latency_p90_ms": harness.percentile(latencies, 90) * 1e3,
        "cpu_ms_per_op": window.cpu / completed * 1e3,
        "round_s": statistics.median(rounds),
        "rmse": served_rmse,
    }
    p90 = harness.percentile(latencies, 90)
    outcome.notes.append(f"{completed} requests completed, "
                         f"{sum(value > p90 for value in latencies)} beyond p90, "
                         f"swap rounds {[round(r, 4) for r in rounds]}")
    return outcome


def _serve_snapshot(service) -> dict:
    stats = service.stats()
    histogram = stats["metrics"].get("serve.batch_size", {})
    return {
        "batches": histogram.get("count", 0),
        "batched": histogram.get("sum", 0.0),
        "cache": stats.get("cache", {}),
        "frontier": stats.get("frontier_cache", {}),
        "updates": stats["updates"],
        "engine": _global_counters(),
    }


def _serve_layers(state: ServeState, before: dict, window) -> dict:
    service = state.service
    after = _serve_snapshot(service)
    batches = after["batches"] - before["batches"]
    cache_a, cache_b = after["cache"], before["cache"]
    spared = cache_a.get("entries_spared", 0) - cache_b.get("entries_spared", 0)
    evicted = (cache_a.get("entries_evicted", 0)
               - cache_b.get("entries_evicted", 0))
    waits = [trace["stages"]["enqueue"] + trace["stages"]["batch_form"]
             for trace in service.tracer.recent()
             if trace["started_at"] >= window.monotonic_start]
    layers = {
        "serve.batch_size_mean": ((after["batched"] - before["batched"])
                                  / batches if batches else 0.0),
        "serve.queue_wait_ms": median_ms(waits) if waits else 0.0,
        "serve.cache.hit_rate": _delta_rate(cache_a, cache_b, "hits",
                                            "misses"),
        "serve.frontier.hit_rate": _delta_rate(
            after["frontier"], before["frontier"], "hits", "misses"),
        "serve.invalidation.precision": (spared / (spared + evicted)
                                         if spared + evicted else 0.0),
        "data.deltas.applied": float(after["updates"]["applied_total"]
                                     - before["updates"]["applied_total"]),
        "data.deltas.skipped": float(after["updates"]["skipped_total"]
                                     - before["updates"]["skipped_total"]),
        "online.promotions": 0.0,
    }
    layers.update(_engine_layers(before["engine"]))
    return layers


def _run_serve_traced(spec: ServeSpec, seed: int, seconds: float,
                      outcome: Outcome) -> Outcome:
    # Untraced baseline window on its own set-up.
    state = ServeState(spec)
    requests, bursts = _serve_inputs(state, seed, seconds)
    try:
        window, loop = _serve_window(state, requests, bursts, seconds)
    finally:
        state.close()
    untraced = len(loop.done_at) / window.wall
    # Traced window on a fresh set-up with the same inputs.
    state = ServeState(spec)
    ledger = Ledger()
    try:
        before = _serve_snapshot(state.service)
        ledger.install()
        try:
            window, loop = _serve_window(state, requests, bursts, seconds)
        finally:
            ledger.remove()
        layers = _serve_layers(state, before, window)
        outcome.attempted, outcome.failed = _check(state, requests, bursts,
                                                   loop)
    finally:
        state.close()
    traced = len(loop.done_at) / window.wall
    agg = ledger.aggregate()
    layers.update(layer_metrics(
        agg, ledger.busiest_thread("nn.inference.forward"), window.wall,
        _paper_flops(state.model, spec.context, spec.context)))
    layers["obs.trace.overhead"] = untraced / traced - 1.0
    outcome.layers = layers
    outcome.window = window
    outcome.ledger = ledger
    return outcome


# ====================================================================== #
# Learning workload
# ====================================================================== #
LEARN_DATASET = (150, 100, 40.0)
LEARN_MODEL = dict(num_blocks=2, num_heads=4, attr_dim=8, seed=0)
LEARN_STEPS_PER_SECOND = 4      # base train_step calls per --seconds
LEARN_ROUNDS_PER_SECOND = 0.4   # online rounds per --seconds; round_s is
                                # their median
FINE_TUNE_STEPS = 12
INGESTS_PER_ROUND = 8
INGEST_SIZE = 64
PROBE_TASKS = 8


def _learn_sizes(seconds: float) -> tuple[int, int]:
    """Fixed work per run, scaled from ``--seconds``: the amount of work —
    not a deadline — ends the window, so the final model and its probe
    RMSE are a pure function of ``(seed, seconds)``."""
    steps = max(1, round(seconds * LEARN_STEPS_PER_SECOND))
    rounds = max(1, round(seconds * LEARN_ROUNDS_PER_SECOND))
    return steps, rounds


class LearnState:
    """One set-up of the learning workload."""

    def __init__(self, seed: int, steps: int):
        num_users, num_items, per_user = LEARN_DATASET
        self.dataset = movielens_like(num_users=num_users, num_items=num_items,
                                      seed=0, ratings_per_user=per_user)
        self.split = make_cold_start_split(self.dataset, 0.2, 0.2, seed=0)
        self.probe = build_eval_tasks(self.split, "user", min_query=2, seed=1,
                                      max_tasks=PROBE_TASKS)
        self.model = HIRE(self.dataset, HIREConfig(**LEARN_MODEL))
        # Default TrainerConfig (legacy RNG stream, no prefetch) apart from
        # batch_size=1, which keeps a step short enough for p90 to rest on
        # at least ten samples within one run.
        self.trainer = HIRETrainer(self.model, self.split, config=TrainerConfig(
            steps=steps, batch_size=1, seed=seed))
        self.registry = ModelRegistry(self.dataset)
        self.log = RatingLog()
        self.service = PredictionService.from_split(
            self.registry, self.split, self.probe, rating_log=self.log)
        # An accept margin wide enough that every round promotes, and no
        # rollback probes: their cost depends on which users a seed's deltas
        # touch.  Rounds then do the same work on every seed.
        self.gate = PromotionGate(self.split, self.probe, GateConfig(
            accept_margin=1.0))
        self.tuner = IncrementalTrainer(self.split, config=FineTuneConfig(
            steps=FINE_TUNE_STEPS, batch_size=1, seed=seed))
        self.controller = OnlineController(
            self.registry, self.tuner, self.gate, log=self.log,
            service=self.service,
            config=OnlineConfig(min_new_ratings=1, rollback_enabled=False))
        # Warm-up on a throwaway model: first BLAS calls and allocations.
        scratch = HIRE(self.dataset, HIREConfig(**LEARN_MODEL))
        HIRETrainer(scratch, self.split, config=TrainerConfig(
            steps=1, batch_size=1, seed=0)).train_step()

    def close(self) -> None:
        self.controller.close()
        self.service.close()


def _learn_window(state: LearnState, bursts, steps: int, rounds: int):
    window = harness.Window().begin()
    step_seconds, round_seconds, statuses = [], [], []
    failed = 0
    for _ in range(steps):
        start = time.perf_counter()
        try:
            if not np.isfinite(state.trainer.train_step()):
                failed += 1
        except Exception as error:  # counted as a failed operation
            print(f"perfbench: train_step failed: {error!r}", file=sys.stderr)
            failed += 1
        step_seconds.append(time.perf_counter() - start)
    state.registry.add("base", state.model)
    for index in range(rounds):
        for burst in bursts[index * INGESTS_PER_ROUND:
                            (index + 1) * INGESTS_PER_ROUND]:
            try:
                state.controller.ingest(burst)
            except Exception as error:  # counted as a failed operation
                print(f"perfbench: ingest failed: {error!r}", file=sys.stderr)
                failed += 1
        start = time.perf_counter()
        try:
            statuses.append(state.controller.run_round()["status"])
        except Exception as error:  # counted as a failed operation
            print(f"perfbench: round failed: {error!r}", file=sys.stderr)
            statuses.append("error")
        round_seconds.append(time.perf_counter() - start)
    window.stop()
    return window, step_seconds, round_seconds, statuses, failed


def run_learn(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    steps, rounds = _learn_sizes(seconds)

    def make_bursts(state):
        return synthesize_update_bursts(
            state.split, state.probe, num_bursts=rounds * INGESTS_PER_ROUND,
            burst_size=INGEST_SIZE, seed=seed)

    if trace:
        state = LearnState(seed, steps)
        bursts = make_bursts(state)
        try:
            window, *_ = _learn_window(state, bursts, steps, rounds)
        finally:
            state.close()
        untraced = (steps + rounds * FINE_TUNE_STEPS) / window.wall
        state = LearnState(seed, steps)
        before = _global_counters()
        updates_before = state.service.graph_store.stats()
        outcome.ledger = ledger = Ledger().install()
        try:
            result = _learn_window(state, bursts, steps, rounds)
        finally:
            ledger.remove()
    else:
        state, bursts, setup_s = _timed_setups(
            lambda: LearnState(seed, steps), make_bursts)
        result = _learn_window(state, bursts, steps, rounds)
    window, step_seconds, round_seconds, statuses, failed = result
    try:
        probe_rmse = state.gate.evaluate(state.registry.active()[1]).rmse
        promotions = int(state.controller.metrics.snapshot().get(
            "online.promotions_total", {}).get("value", 0))
        updates_after = state.service.graph_store.stats()
    finally:
        state.close()
    if promotions != rounds or statuses.count("promoted") != rounds:
        print(f"perfbench: expected {rounds} promotions, got {promotions} "
              f"({statuses})", file=sys.stderr)
        failed += rounds - min(rounds, statuses.count("promoted"))
    if not np.isfinite(probe_rmse):
        failed += 1
    ops = steps + rounds * FINE_TUNE_STEPS
    outcome.window = window
    outcome.attempted = steps + len(bursts) + rounds
    outcome.failed = failed
    outcome.notes.append(f"{steps} base steps, {rounds} rounds, "
                         f"statuses {statuses}, round seconds "
                         f"{[round(r, 4) for r in round_seconds]}")
    if trace:
        agg = outcome.ledger.aggregate()
        layers = layer_metrics(agg, ledger.busiest_thread(
            "core.model.forward_many"), window.wall,
            _paper_flops(state.model, state.gate.config.context_users,
                         state.gate.config.context_items))
        layers.update(_engine_layers(before))
        layers.update({
            "serve.batch_size_mean": 0.0,
            "serve.queue_wait_ms": 0.0,
            "serve.cache.hit_rate": 0.0,
            "serve.frontier.hit_rate": 0.0,
            "serve.invalidation.precision": 0.0,
            "data.deltas.applied": float(updates_after["applied_total"]
                                         - updates_before["applied_total"]),
            "data.deltas.skipped": float(updates_after["skipped_total"]
                                         - updates_before["skipped_total"]),
            "online.promotions": float(promotions),
            "obs.trace.overhead": untraced / (ops / window.wall) - 1.0,
        })
        outcome.layers = layers
        return outcome
    outcome.e2e = {
        "setup_s": setup_s,
        "throughput_per_s": ops / window.wall,
        "latency_p50_ms": harness.percentile(step_seconds, 50) * 1e3,
        "latency_p90_ms": harness.percentile(step_seconds, 90) * 1e3,
        "cpu_ms_per_op": window.cpu / ops * 1e3,
        "round_s": statistics.median(round_seconds),
        "rmse": probe_rmse,
    }
    return outcome


WORKLOADS = {
    "serve-steady": lambda seed, seconds, trace: run_serve(
        STEADY, seed, seconds, trace),
    "serve-churn": lambda seed, seconds, trace: run_serve(
        CHURN, seed, seconds, trace),
    "learn": run_learn,
}


def trace_path(root: Path, workload: str, seed: int) -> Path:
    return root / ".perfbench_out" / f"spans-{workload}-seed{seed}.jsonl"
