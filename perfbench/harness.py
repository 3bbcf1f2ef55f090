"""Shared measurement plumbing: environment fingerprint, drift diagnostics,
percentiles and the closed-loop request generator.

Nothing here changes how the program runs.  BLAS settings are read, never
set; the calibration loop and the ``/proc/stat`` readings are recorded only,
so that a noisy set of runs can be explained afterwards.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no values."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_info() -> dict:
    """BLAS name and version as numpy reports them."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        return {"name": None, "version": None}


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.rsplit("/", 1)[-1].lower()
                     and ".so" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def fingerprint() -> dict:
    """Machine and library facts recorded with every result."""
    blas = _blas_info()
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": _blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0, 0
    values = [int(v) for v in fields[:8]]
    values += [0] * (8 - len(values))
    return values[7], sum(values)


def calibrate() -> float:
    """Milliseconds for a fixed GEMM plus a small-op loop.

    Timed at the start and at the end of every run: a change between the
    two, or between runs, points at the host rather than the program.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192))
    out = np.empty((192, 192))
    small = rng.standard_normal(64)
    acc = np.zeros(64)
    start = time.perf_counter()
    for _ in range(80):
        np.matmul(a, b, out=out)
    for _ in range(12000):
        np.add(acc, small, out=acc)
    return (time.perf_counter() - start) * 1e3


class Window:
    """Wall clock, process CPU time and steal ticks over one timed window."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.steal = self.ticks = 0

    def begin(self) -> "Window":
        self._steal0, self._ticks0 = cpu_ticks()
        self._cpu0 = time.process_time()
        self.monotonic_start = time.monotonic()
        self.start = time.perf_counter()
        return self

    def stop(self, at: float | None = None) -> None:
        end = time.perf_counter() if at is None else at
        self.wall = end - self.start
        self.cpu = time.process_time() - self._cpu0
        steal, ticks = cpu_ticks()
        self.steal = steal - self._steal0
        self.ticks = ticks - self._ticks0

    @property
    def steal_share(self) -> float:
        return self.steal / self.ticks if self.ticks else 0.0

    @property
    def cpu_share(self) -> float:
        return self.cpu / self.wall / nproc() if self.wall else 0.0


class LoopResult:
    """What one closed-loop window produced."""

    def __init__(self):
        # Per issued request, in order; a refused submit leaves None / -1.
        self.futures: list = []
        self.submitted_at: list[float] = []
        self.done_at: dict[int, float] = {}
        self.generations: list[int] = []
        self.updates = 0
        self.submits_failed = 0
        self.updates_failed = 0
        self.timed_out = 0

    def latencies(self) -> list[float]:
        return [self.done_at[i] - self.submitted_at[i]
                for i in sorted(self.done_at)]


def closed_loop(service, requests, seconds: float, outstanding: int,
                window: Window, bursts=None, burst_every: int = 2,
                timeout: float = 60.0) -> LoopResult:
    """Drive ``service`` with ``outstanding`` requests always in flight.

    Each completion frees one slot, which the generator refills until
    ``seconds`` have passed; then the in-flight requests drain.  With
    ``bursts``, the generator also calls ``update_ratings`` with the next
    burst after every ``burst_every`` submissions.  A
    request's latency runs from ``submit`` to the moment its result is set
    (a done-callback stamps it on the worker thread).  Stops early, with a
    note on stderr, if the generated inputs run out.
    """
    out = LoopResult()
    deadline = window.start + seconds
    in_flight: set = set()
    next_request = 0
    next_burst = 0

    def stamp(index):
        def done(_future):
            out.done_at[index] = time.perf_counter()
        return done

    def submit() -> bool:
        nonlocal next_request, next_burst
        if next_request >= len(requests):
            print("perfbench: request stream exhausted before the deadline",
                  file=sys.stderr)
            return False
        request = requests[next_request]
        index = next_request
        next_request += 1
        submitted_at = time.perf_counter()
        out.submitted_at.append(submitted_at)
        try:
            submitted = service.submit_request(
                request.user, request.item_ids,
                np.asarray(request.support_items, dtype=np.int64))
        except Exception as error:  # counted as a failed operation
            print(f"perfbench: submit failed: {error!r}", file=sys.stderr)
            out.submits_failed += 1
            out.futures.append(None)
            out.generations.append(-1)
        else:
            out.futures.append(submitted.future)
            out.generations.append(submitted.graph_state.generation)
            in_flight.add(submitted.future)
            submitted.future.add_done_callback(stamp(index))
        if bursts is not None and next_request % burst_every == 0:
            if next_burst >= len(bursts):
                print("perfbench: update bursts exhausted before the deadline",
                      file=sys.stderr)
                return False
            out.updates += 1
            try:
                service.update_ratings(bursts[next_burst])
            except Exception as error:  # counted as a failed operation
                print(f"perfbench: update failed: {error!r}", file=sys.stderr)
                out.updates_failed += 1
            next_burst += 1
        return True

    feeding = True
    for _ in range(outstanding):
        feeding = feeding and submit()
    while in_flight:
        done, _ = wait(list(in_flight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        if not done:
            out.timed_out += len(in_flight)
            break
        for future in done:
            in_flight.discard(future)
            if feeding and time.perf_counter() < deadline:
                feeding = submit()
    window.stop(max(out.done_at.values(), default=window.start))
    return out
