"""The checkpoint codec: crash-consistent snapshots of a live simulation.

A checkpoint is one file with two parts:

* **line 1** — a JSON header: format tag, checkpoint kind, virtual time,
  the repo's :func:`~repro.sweep.cache.code_version_tag`, and the
  SHA-256 + byte length of the payload;
* **the rest** — a pickle of the full simulation graph: kernel page
  table columns, frame stack, swap device, LRU state and counters; the
  monitor's region array and RNG substreams; scheme quotas and
  watermarks; the fleet's :class:`~repro.monitor.batch.BatchRegionTable`
  and :class:`~repro.fleet.pool.FleetFramePool`; the trace bus's
  counters; and the event queue's pending periodics as
  ``(name, due, period)`` rows.

The file is written atomically (temp + :func:`os.replace`) so a crash
mid-write leaves either the previous checkpoint or none — never a torn
one.  :func:`restore_run` re-verifies the digest before unpickling and
raises :class:`~repro.errors.CheckpointError` (CLI exit code 4) on any
mismatch.  Unpickling fails closed: it resolves only classes and
functions defined under ``repro`` or ``numpy`` (plus ``getattr`` as far
as enum members and bound methods need it), and any error while
unpickling — a foreign name, or a payload from an older object layout
— is a :class:`~repro.errors.CheckpointError` too.

What makes restore *byte-identical* rather than merely plausible:

* the event queue's heap is rebuilt by re-registering every periodic at
  its recorded ``(due, registration-order)`` position, so same-instant
  tie-breaking (monitor before khugepaged before epoch) is preserved;
* live object identity — the trace bus, the recorders' stride counters,
  the injector's substreams — is rewired onto the restored graph through
  the same attachment points construction uses;
* checkpointing itself only *pauses* the loop at an epoch boundary
  (``run_until`` in steps dispatches the identical event sequence as one
  big ``run_until``), so a checkpointed run equals an uninterrupted one
  even when never restored.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import types
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from ..errors import CheckpointError
from ..sim.clock import EventQueue, VirtualClock
from ..trace.bus import TraceBus
from ..trace.events import CheckpointWritten, RegionsAggregated, RunResumed

__all__ = [
    "CHECKPOINT_FORMAT",
    "checkpoint_run",
    "checkpoint_run_stepping",
    "checkpoint_fleet",
    "checkpoint_fleet_stepping",
    "read_checkpoint_header",
    "restore_run",
    "restore_fleet",
    "resume_checkpoint",
    "state_digest",
]

#: Format tag on line 1 of every checkpoint file; bump on layout breaks.
CHECKPOINT_FORMAT = "daos-ckpt-v1"

#: Stable pickle protocol: the digest is part of the restore contract,
#: so the encoding must not drift with the interpreter's default.
_PICKLE_PROTOCOL = 4


# ----------------------------------------------------------------------
# Detach/reattach plumbing
# ----------------------------------------------------------------------
@contextmanager
def _detached(pairs: List[Tuple[Any, str, Any]]):
    """Temporarily replace ``(obj, attr)`` with a placeholder value.

    Live runs hold references the payload must not carry — the trace bus
    (restored separately so counters survive without pickling callback
    lists) and the event queue (closures; rebuilt from the periodic
    table).  The originals are restored even if pickling raises, so a
    failed checkpoint never corrupts the live run.
    """
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in pairs]
    for obj, attr, placeholder in pairs:
        setattr(obj, attr, placeholder)
    try:
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def _dumps(payload: Dict[str, Any]) -> bytes:
    buf = io.BytesIO()
    pickle.dump(payload, buf, protocol=_PICKLE_PROTOCOL)
    return buf.getvalue()


#: Modules whose classes and functions a checkpoint may name.
_TRUSTED_MODULES = ("repro", "numpy")


def _trusted(module: Any) -> bool:
    return isinstance(module, str) and module.split(".", 1)[0] in _TRUSTED_MODULES


def _member(obj: Any, name: str) -> Any:
    """``getattr`` as pickle uses it for enum members and bound methods
    of this package's classes, and for nothing else."""
    found = getattr(obj, name)
    if isinstance(obj, type) and isinstance(found, obj) and _trusted(obj.__module__):
        return found
    if (
        isinstance(found, types.MethodType)
        and found.__self__ is obj
        and _trusted(found.__func__.__module__)
    ):
        return found
    raise pickle.UnpicklingError(f"checkpoint asks for untrusted attribute {name!r}")


class _CheckpointUnpickler(pickle.Unpickler):
    """Resolves only what a checkpoint of this package can contain."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) == ("builtins", "getattr"):
            return _member
        if _trusted(module) and "." not in name:
            found = super().find_class(module, name)
            # The defining module, not the importing one: names that a
            # trusted module merely imports (``os``, ``pickle.loads``)
            # stay out of reach.
            if _trusted(getattr(found, "__module__", None)):
                return found
        raise pickle.UnpicklingError(f"checkpoint names untrusted global {module}.{name}")


def _loads(blob: bytes, path: str) -> Any:
    try:
        return _CheckpointUnpickler(io.BytesIO(blob)).load()
    except Exception as exc:
        raise CheckpointError(
            f"cannot restore checkpoint {path!r}: {type(exc).__name__}: {exc}"
        ) from exc


def _canonicalize_dtypes(root: Any) -> None:
    """Rebind every reachable ndarray's dtype to its canonical singleton.

    Unpickled arrays carry private dtype instances while arrays built by
    live code share numpy's interned singletons.  The values are equal,
    but re-pickling a graph that mixes both memoizes them differently —
    so a restored run's :func:`state_digest` would drift from a fresh
    run's even with identical simulation state.  One walk after
    ``pickle.loads`` removes the only identity difference a round trip
    introduces.
    """
    import numpy as np

    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            # Views too: rebinding a view's dtype does not touch its
            # base, and a base rebind does not propagate to views.
            canonical = np.dtype(obj.dtype.str)
            if obj.dtype is not canonical and obj.dtype == canonical:
                obj.dtype = canonical
            continue
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            if hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
            if hasattr(obj, "__slots__"):
                stack.extend(
                    getattr(obj, name)
                    for name in obj.__slots__
                    if isinstance(name, str) and hasattr(obj, name)
                )


def _write_file(
    path: str, *, kind: str, time_us: int, blob: bytes
) -> Tuple[str, int]:
    """Atomically write header + payload; returns (full digest, size)."""
    from ..sweep.cache import code_version_tag

    digest = hashlib.sha256(blob).hexdigest()
    header = {
        "format": CHECKPOINT_FORMAT,
        "kind": kind,
        "time_us": int(time_us),
        "code_version": code_version_tag(),
        "payload_sha256": digest,
        "payload_bytes": len(blob),
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return digest, len(blob)


#: The header fields :func:`_write_file` records besides ``format``.
_HEADER_FIELDS = (
    ("kind", str),
    ("time_us", int),
    ("payload_bytes", int),
    ("payload_sha256", str),
    ("code_version", str),
)


def read_checkpoint_header(path: str) -> Dict[str, Any]:
    """Parse and validate line 1 of a checkpoint file (no unpickling)."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint header in {path!r}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path!r} is not a {CHECKPOINT_FORMAT} checkpoint "
            f"(format={header.get('format') if isinstance(header, dict) else line[:40]!r})"
        )
    for key, kind in _HEADER_FIELDS:
        value = header.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CheckpointError(
                f"checkpoint header in {path!r} lacks a valid {key!r} "
                f"({kind.__name__} expected, got {value!r})"
            )
    return header


def _read_file(
    path: str, *, expect_kind: Optional[str], strict_version: bool
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Read, digest-verify and unpickle a checkpoint file."""
    header = read_checkpoint_header(path)
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise CheckpointError(
            f"{path!r} holds a {header.get('kind')!r} checkpoint, "
            f"expected {expect_kind!r}"
        )
    with open(path, "rb") as fh:
        fh.readline()
        blob = fh.read()
    if len(blob) != header.get("payload_bytes"):
        raise CheckpointError(
            f"checkpoint {path!r} is truncated: "
            f"{len(blob)} of {header.get('payload_bytes')} payload bytes"
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(
            f"checkpoint digest mismatch in {path!r}: "
            f"file carries {header.get('payload_sha256')[:16]}, "
            f"payload hashes to {digest[:16]} — refusing to restore"
        )
    if strict_version:
        from ..sweep.cache import code_version_tag

        current = code_version_tag()
        if header.get("code_version") != current:
            raise CheckpointError(
                f"checkpoint {path!r} was written by code version "
                f"{header.get('code_version')!r}, this tree is {current!r} "
                f"(pass --allow-version-skew to restore anyway)"
            )
    payload = _loads(blob, path)
    _canonicalize_dtypes(payload)
    return header, payload


# ----------------------------------------------------------------------
# Single-run checkpoints
# ----------------------------------------------------------------------
def _run_detach_pairs(run) -> List[Tuple[Any, str, Any]]:
    tenant = run.tenant
    pairs: List[Tuple[Any, str, Any]] = [(tenant, "trace", None)]
    pairs.append((tenant.kernel, "trace", None))
    if tenant.monitor is not None:
        pairs.append((tenant.monitor, "trace", None))
        # Dead PeriodicEvent handles (their queue is not serialized);
        # restore re-registers fresh ones and re-adopts them.
        pairs.append((tenant.monitor, "_events", []))
    if tenant.engine is not None:
        pairs.append((tenant.engine, "trace", None))
    if run.injector is not None:
        pairs.append((run.injector, "_trace", None))
    return pairs


def _run_payload_bytes(run) -> Tuple[bytes, int]:
    """Serialize a paused run; returns ``(blob, clock_now)``."""
    if run.queue is None:
        raise CheckpointError("cannot checkpoint a run before start()")
    clock_now = run.queue.clock.now
    payload: Dict[str, Any] = {
        "spec": run.spec,
        "host": run.host,
        "guest": run.guest,
        "seed": run.seed,
        "compute_us": run.compute_us,
        "clock_now": clock_now,
        "periodics": run.queue.pending_periodics(),
        "trace_counters": (
            run.trace.counters_state() if run.trace is not None else None
        ),
        "tenant": run.tenant,
        "injector": run.injector,
    }
    with _detached(_run_detach_pairs(run)):
        blob = _dumps(payload)
    return blob, clock_now


def state_digest(run) -> str:
    """Digest of a paused run's full state, without writing a file.

    Two runs of the same experiment paused at the same virtual time have
    equal digests — the identity the recovery tests assert.
    """
    blob, _ = _run_payload_bytes(run)
    return hashlib.sha256(blob).hexdigest()[:16]


def checkpoint_run(run, path: str, *, sequence: int = 1) -> str:
    """Write a crash-consistent checkpoint of ``run``; returns the digest.

    The caller must have paused the loop (between ``run_until`` steps);
    epoch boundaries are the natural — and tested — pause points.
    Counters are snapshotted *before* the ``CheckpointWritten`` event is
    emitted, so the event never appears in its own checkpoint.
    """
    blob, clock_now = _run_payload_bytes(run)
    digest, size = _write_file(path, kind="run", time_us=clock_now, blob=blob)
    if run.trace is not None:
        run.trace.emit(
            CheckpointWritten(
                time_us=run.trace.now,
                target="run",
                digest=digest[:16],
                payload_bytes=size,
                sequence=sequence,
            )
        )
    return digest[:16]


def restore_run(
    path: str,
    *,
    trace: Optional[TraceBus] = None,
    strict_version: bool = True,
    announce: bool = True,
):
    """Reconstruct a paused :class:`~repro.runner.experiment.ExperimentRun`.

    The returned run is ready for ``run_until`` / ``finish`` and is
    byte-identical in behavior to the run the checkpoint was taken from:
    same heap order, same RNG streams, same counters.  ``trace`` supplies
    an external bus; by default a fresh internal bus is created whenever
    the original run had one, and its counters are restored.
    """
    from ..runner.experiment import ExperimentRun, SnapshotRecorder

    header, payload = _read_file(
        path, expect_kind="run", strict_version=strict_version
    )
    tenant = payload["tenant"]
    injector = payload["injector"]
    counters = payload["trace_counters"]

    if trace is None and counters is not None:
        trace = TraceBus(ring_capacity=0)
    if trace is not None and counters is not None:
        trace.restore_counters(counters)

    # -- rewire the bus through the same attachment points construction
    #    uses; None stays None (the collect_trace=False path).
    tenant.trace = trace
    tenant.kernel.trace = trace
    if tenant.monitor is not None:
        tenant.monitor.trace = trace
    if tenant.engine is not None:
        tenant.engine.trace = trace
    if injector is not None:
        injector.bind_trace(trace)

    run = ExperimentRun.from_parts(
        spec=payload["spec"],
        host=payload["host"],
        guest=payload["guest"],
        tenant=tenant,
        injector=injector,
        seed=payload["seed"],
        compute_us=payload["compute_us"],
    )

    clock_now = int(payload["clock_now"])
    queue = EventQueue(VirtualClock(start=clock_now))
    run.queue = queue
    if trace is not None:
        trace.bind_clock(queue.clock)
        if isinstance(tenant.recorder, SnapshotRecorder):
            trace.subscribe(RegionsAggregated, tenant.recorder)
        if tenant.sanitizer is not None:
            tenant.sanitizer.subscribe(
                trace, kernel=tenant.kernel, monitor=tenant.monitor
            )

    # -- rebuild the heap: every periodic back at its recorded (due,
    #    registration-order) slot, via the stable name → (callback,
    #    coalesce) map, so sampling ticks coalesce as start() set them.
    handlers: Dict[str, Any] = {}
    monitor = tenant.monitor
    if monitor is not None:
        monitor.running = False
        monitor._events = []
        handlers.update(monitor.tick_handlers())
    handlers["khugepaged"] = (tenant.kernel.khugepaged_scan, False)
    handlers["epoch"] = (run.run_one_epoch, False)

    monitor_events = []
    monitor_names = {"sample", "aggregate", "update"}
    for name, due, period in payload["periodics"]:
        handler = handlers.get(name)
        if handler is None:
            raise CheckpointError(
                f"checkpoint {path!r} names unknown periodic {name!r}"
            )
        callback, coalesce = handler
        event = queue.schedule_periodic(
            period, callback, name=name, first_at=due, coalesce=coalesce
        )
        if monitor is not None and name in monitor_names:
            monitor_events.append(event)
    if monitor is not None:
        monitor.adopt_events(monitor_events)

    if trace is not None and announce:
        trace.emit(
            RunResumed(
                time_us=trace.now,
                target="run",
                digest=header["payload_sha256"][:16],
                checkpoint_time_us=clock_now,
            )
        )
    return run


def checkpoint_run_stepping(
    run, path: str, *, every_epochs: int = 0
) -> List[str]:
    """Drive a started run to completion, checkpointing at epoch
    boundaries; returns the digests written, in order.

    ``every_epochs`` > 0 checkpoints after every that-many epochs;
    0 checkpoints once at the midpoint.  The same ``path`` is rewritten
    atomically each time, so the file always holds the latest complete
    snapshot — exactly what ``daos resume`` wants after a crash.
    """
    epoch_us = run.spec.epoch_us
    duration = run.spec.duration_us
    n_epochs = max(1, duration // epoch_us)
    if every_epochs > 0:
        boundaries = list(range(every_epochs, n_epochs, every_epochs))
    else:
        boundaries = [n_epochs // 2] if n_epochs >= 2 else []
    digests: List[str] = []
    for sequence, epoch in enumerate(boundaries, start=1):
        run.run_until(epoch * epoch_us)
        digests.append(checkpoint_run(run, path, sequence=sequence))
    run.run_until(duration)
    return digests


# ----------------------------------------------------------------------
# Fleet checkpoints
# ----------------------------------------------------------------------
def checkpoint_fleet(scheduler, path: str, *, sequence: int = 1) -> str:
    """Write a checkpoint of a paused fleet scheduler; returns the digest."""
    if scheduler.queue is None:
        raise CheckpointError("cannot checkpoint a fleet before start_loop()")
    clock_now = scheduler.queue.clock.now
    payload: Dict[str, Any] = {
        "clock_now": clock_now,
        "periodics": scheduler.queue.pending_periodics(),
        "trace_counters": (
            scheduler.trace.counters_state()
            if scheduler.trace is not None
            else None
        ),
        "scheduler": scheduler,
    }
    pairs: List[Tuple[Any, str, Any]] = [
        (scheduler, "trace", None),
        (scheduler, "queue", None),
    ]
    if scheduler.faults is not None:
        pairs.append((scheduler.faults, "_trace", None))
    with _detached(pairs):
        blob = _dumps(payload)
    digest, size = _write_file(path, kind="fleet", time_us=clock_now, blob=blob)
    if scheduler.trace is not None:
        scheduler.trace.emit(
            CheckpointWritten(
                time_us=scheduler.trace.now,
                target="fleet",
                digest=digest[:16],
                payload_bytes=size,
                sequence=sequence,
            )
        )
    return digest[:16]


def restore_fleet(
    path: str,
    *,
    trace: Optional[TraceBus] = None,
    strict_version: bool = True,
    announce: bool = True,
):
    """Reconstruct a paused :class:`~repro.fleet.scheduler.FleetScheduler`.

    Ready for ``queue.run_until(cfg.duration_us)`` then ``finish()``."""
    import time as _time

    header, payload = _read_file(
        path, expect_kind="fleet", strict_version=strict_version
    )
    scheduler = payload["scheduler"]
    counters = payload["trace_counters"]
    if trace is None and counters is not None:
        trace = TraceBus(ring_capacity=0)
    if trace is not None and counters is not None:
        trace.restore_counters(counters)
    scheduler.trace = trace
    if scheduler.faults is not None:
        scheduler.faults.bind_trace(trace)

    clock_now = int(payload["clock_now"])
    queue = EventQueue(VirtualClock(start=clock_now))
    if trace is not None:
        trace.bind_clock(queue.clock)
    for name, due, period in payload["periodics"]:
        if name != "fleet-tick":
            raise CheckpointError(
                f"checkpoint {path!r} names unknown periodic {name!r}"
            )
        queue.schedule_periodic(period, scheduler._tick, name=name, first_at=due)
    scheduler.queue = queue
    scheduler.wall_start = _time.perf_counter()

    if trace is not None and announce:
        trace.emit(
            RunResumed(
                time_us=trace.now,
                target="fleet",
                digest=header["payload_sha256"][:16],
                checkpoint_time_us=clock_now,
            )
        )
    return scheduler


def checkpoint_fleet_stepping(
    scheduler, path: str, *, every_ticks: int = 0
) -> List[str]:
    """Drive an un-started fleet to completion with tick-boundary
    checkpoints; the fleet twin of :func:`checkpoint_run_stepping`."""
    queue = scheduler.start_loop()
    tick_us = scheduler.cfg.tick_us
    duration = scheduler.cfg.duration_us
    n_ticks = max(1, duration // tick_us)
    if every_ticks > 0:
        boundaries = list(range(every_ticks, n_ticks, every_ticks))
    else:
        boundaries = [n_ticks // 2] if n_ticks >= 2 else []
    digests: List[str] = []
    for sequence, tick in enumerate(boundaries, start=1):
        queue.run_until(tick * tick_us)
        digests.append(checkpoint_fleet(scheduler, path, sequence=sequence))
    queue.run_until(duration)
    return digests


# ----------------------------------------------------------------------
# One-call resume
# ----------------------------------------------------------------------
def resume_checkpoint(
    path: str, *, trace: Optional[TraceBus] = None, strict_version: bool = True
):
    """Restore *any* checkpoint and drive it to completion.

    Dispatches on the header's ``kind``: returns a
    :class:`~repro.runner.results.RunResult` for ``"run"`` checkpoints,
    a :class:`~repro.fleet.result.FleetResult` for ``"fleet"`` ones.
    This is the engine behind ``daos resume FILE``.
    """
    kind = read_checkpoint_header(path).get("kind")
    if kind == "run":
        run = restore_run(path, trace=trace, strict_version=strict_version)
        run.run_until(run.spec.duration_us)
        return run.finish()
    if kind == "fleet":
        scheduler = restore_fleet(path, trace=trace, strict_version=strict_version)
        scheduler.queue.run_until(scheduler.cfg.duration_us)
        return scheduler.finish()
    raise CheckpointError(f"unknown checkpoint kind {kind!r} in {path!r}")
