"""Pluggable execution backends for sweep and batch fan-out.

Every "map this function over that grid" loop in the library — the
:class:`repro.api.Experiment` sweeps, its per-pattern fallback for ragged
batches, the experiment drivers — goes through one primitive,
:func:`map_jobs`.
This module owns it and puts three interchangeable backends behind the
same contract:

``serial``
    A plain in-process loop.  The reference semantics every other backend
    is held to (and the default when ``jobs`` is ``None``/1).
``thread``
    ``concurrent.futures.ThreadPoolExecutor``.  The encoder / receiver
    hot loops are numpy, which releases the GIL, so threads overlap the
    heavy array work without any serialisation cost.
``process``
    ``concurrent.futures.ProcessPoolExecutor``.  Items are grouped into
    contiguous shards (:func:`plan_shards`) so each worker task amortises
    the submission/IPC cost over many grid points — the many-core path
    for full dataset sweeps.

The contract, identical on every backend:

* **Order-deterministic** — results come back in item order, element-wise
  identical to the serial loop (asserted by the runtime property suite).
* **Exception-transparent** — the error of the *first failing item in
  item order* propagates to the caller.  Serial and thread backends raise
  the original exception with its genuine traceback; the process backend
  re-raises the original exception object with the worker's formatted
  traceback chained on as a :class:`RemoteTraceback` ``__cause__``.
* **Spawn-safe** — the process backend never relies on fork-inherited
  state: the callable and items travel by pickling, so it works under
  the ``spawn`` start method too (callables must be module-level
  functions or ``functools.partial`` of one; closures/lambdas are
  rejected with a pointed error suggesting ``backend="thread"``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

__all__ = [
    "BACKENDS",
    "RemoteTraceback",
    "default_jobs",
    "map_jobs",
    "plan_shards",
    "resolve_backend",
]

BACKENDS = ("serial", "thread", "process")


class RemoteTraceback(Exception):
    """A worker process's formatted traceback.

    Chained onto the re-raised exception as its ``__cause__`` (the
    ``multiprocessing.pool`` convention), so the original failure site
    inside the worker shows up in the caller's traceback output.
    """

    def __init__(self, tb: str) -> None:
        super().__init__(tb)
        self.tb = tb

    def __str__(self) -> str:
        return self.tb


def default_jobs() -> int:
    """Worker count used when a parallel backend is requested without ``jobs``."""
    return max(1, os.cpu_count() or 1)


def resolve_backend(backend: "str | None", jobs: "int | None") -> str:
    """The backend a ``(backend, jobs)`` pair selects.

    ``backend=None`` keeps the historical ``map_jobs`` behaviour:
    ``jobs > 1`` means the thread pool, anything else the serial loop.
    """
    if backend is None:
        return "thread" if jobs is not None and jobs > 1 else "serial"
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


def plan_shards(
    n_items: int, jobs: int, shard_size: "int | None" = None
) -> "list[slice]":
    """Contiguous, deterministic shards covering ``range(n_items)``.

    The default shard size targets ~4 shards per worker: big enough to
    amortise per-task submission/IPC cost, small enough that an uneven
    grid still load-balances.  ``shard_size`` overrides it (1 = one task
    per item).  Shards partition the index range in order, so
    concatenating per-shard results reproduces item order exactly.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if n_items == 0:
        return []
    if shard_size is None:
        shard_size = -(-n_items // (4 * jobs))  # ceil division
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        slice(start, min(start + shard_size, n_items))
        for start in range(0, n_items, shard_size)
    ]


def _run_shard(fn, items):
    """Worker-side shard loop: ``("ok", results)`` or ``("err", exc, tb)``.

    Errors are captured (not raised) so the parent can re-raise the first
    failure *in item order* with the worker traceback attached — raising
    here would lose the traceback at the process boundary.
    """
    try:
        return ("ok", [fn(item) for item in items])
    except BaseException as exc:  # noqa: BLE001 — transported, then re-raised
        tb = traceback.format_exc()
        try:  # exceptions with unpicklable payloads must still come home
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return ("err", exc, tb)


def _check_picklable(fn) -> None:
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise TypeError(
            "backend='process' needs a picklable callable (a module-level "
            f"function or a functools.partial of one), got {fn!r}; use "
            "backend='thread' for closures"
        ) from exc


def _map_process(fn, items, jobs, shard_size, mp_context):
    shards = plan_shards(len(items), jobs, shard_size)
    ctx = (
        multiprocessing.get_context(mp_context)
        if isinstance(mp_context, str)
        else mp_context
    )
    out = []
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(shards)), mp_context=ctx
    ) as executor:
        for result in executor.map(
            _run_shard, [fn] * len(shards), [items[s] for s in shards]
        ):
            if result[0] == "err":
                _, exc, tb = result
                # Stop healthy shards before surfacing the error: without
                # the cancel, the pool's __exit__ would block until every
                # remaining shard ran to completion.
                executor.shutdown(wait=False, cancel_futures=True)
                raise exc from RemoteTraceback(tb)
            out.extend(result[1])
    return out


def map_jobs(
    fn,
    items,
    jobs: "int | None" = None,
    backend: "str | None" = None,
    shard_size: "int | None" = None,
    mp_context=None,
):
    """Map ``fn`` over ``items`` on the selected execution backend.

    The shared fan-out primitive behind :class:`repro.api.Experiment`'s
    batch evaluation and sweeps.  Results are returned in item order and
    are element-wise identical to the serial loop on every backend; the
    first failing item's exception propagates (see the module docstring
    for the per-backend traceback behaviour).

    Parameters
    ----------
    jobs:
        Worker count.  ``None`` means 1 for the serial/default backend
        and :func:`default_jobs` when ``backend`` names a parallel one.
        ``jobs <= 1`` always degenerates to the serial loop.
    backend:
        ``"serial"``, ``"thread"``, ``"process"``, or ``None`` for the
        historical behaviour (thread pool iff ``jobs > 1``).
    shard_size:
        Process-backend task granularity (items per worker task); the
        default targets ~4 shards per worker.  Ignored elsewhere.
    mp_context:
        Process-backend start method: a ``multiprocessing`` context, a
        start-method name (``"fork"``/``"spawn"``/``"forkserver"``), or
        ``None`` for the platform default.
    """
    items = list(items)
    backend = resolve_backend(backend, jobs)
    if backend == "process":
        # Validate even when the call degenerates to the serial loop, so
        # a closure never *appears* process-safe on a small smoke input.
        _check_picklable(fn)
    if jobs is None:
        jobs = 1 if backend == "serial" else default_jobs()
    if backend == "serial" or jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if backend == "thread":
        with ThreadPoolExecutor(max_workers=jobs) as executor:
            return list(executor.map(fn, items))
    return _map_process(fn, items, jobs, shard_size, mp_context)
