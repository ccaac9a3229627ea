"""Outside-in tracer: timing wrappers around the program's public callables.

The benchmark times the isolation boundaries the program already has —
channel, per-HSM FIFO, epoch ticket, journal — from outside.  ``install``
replaces each callable named in :data:`TARGETS` with a wrapper that records
one span per call; ``uninstall`` puts the originals back and reports whether
every patched attribute ``is`` its original again.  No ``_``-prefixed name
is wrapped; anything finer is derived by subtraction in ``layers``.

A span is ``(id, name, start, end, parent, session, thread)``.  Parents come
from a thread-local stack.  The hop onto an HSM worker or lane thread is
carried by the ``HsmWorkerPool.submit`` wrapper: it stamps the submitting
span and session on the thunk, so the worker-side ``job`` span hangs under
the span that queued it and ``queue_wait`` is thunk start minus submit.
Spans stay in memory until the run writes them out.

(The issue calls this file ``trace.py``; a script directory is first on
``sys.path``, so that name would shadow the standard library's ``trace``.)
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, owner class or None for a module attribute, attribute)
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("core.client.recover", "repro.core.client", "Client", "recover"),
    ("core.client.backup", "repro.core.client", "Client", "backup"),
    ("core.client.begin_recovery", "repro.core.client", "Client", "begin_recovery"),
    ("core.client.request_shares", "repro.core.client", "Client", "request_shares"),
    ("core.client.finish_recovery", "repro.core.client", "Client", "finish_recovery"),
    ("core.client.lhe_encrypt", "repro.core.lhe", "LocationHidingEncryption", "encrypt"),
    ("core.protocol.create", "repro.core.protocol", "Deployment", "create"),
    ("core.protocol.restore", "repro.core.protocol", "Deployment", "restore"),
    ("hsm.fleet.keygen", "repro.core.protocol", None, "HsmFleet"),
    ("core.provider.upload_backup", "repro.core.provider", "ServiceProvider", "upload_backup"),
    ("core.provider.fetch_backup", "repro.core.provider", "ServiceProvider", "fetch_backup"),
    ("core.provider.store_reply", "repro.core.provider", "ServiceProvider", "store_reply"),
    ("core.provider.reserve_attempt", "repro.core.provider", "ServiceProvider",
     "reserve_attempt_number"),
    ("service.recovery.log_and_prove", "repro.service.recovery", "BatchedProviderFacade",
     "log_and_prove"),
    ("service.recovery.prove_inclusion", "repro.service.recovery", "BatchedProviderFacade",
     "prove_inclusion"),
    ("service.recovery.share_phase_done", "repro.service.recovery", "BatchedProviderFacade",
     "share_phase_done"),
    ("service.channel.provider.upload_backup", "repro.service.channel",
     "WireProviderChannel", "upload_backup"),
    ("service.channel.provider.fetch_backup", "repro.service.channel",
     "WireProviderChannel", "fetch_backup"),
    ("service.channel.provider.next_attempt_number", "repro.service.channel",
     "WireProviderChannel", "next_attempt_number"),
    ("service.channel.provider.log_and_prove", "repro.service.channel",
     "WireProviderChannel", "log_and_prove"),
    ("service.channel.provider.prove_inclusion", "repro.service.channel",
     "WireProviderChannel", "prove_inclusion"),
    ("service.channel.provider.share_phase_done", "repro.service.channel",
     "WireProviderChannel", "share_phase_done"),
    ("service.channel.provider.store_reply", "repro.service.channel",
     "WireProviderChannel", "store_reply"),
    ("service.channel.hsm_decrypt_share", "repro.service.channel", "WireChannel",
     "decrypt_share"),
    ("service.workers.queued_decrypt_share", "repro.service.workers", "QueuedChannel",
     "decrypt_share"),
    ("service.batcher.submit", "repro.service.batcher", "EpochBatcher", "submit"),
    ("service.batcher.ticket_wait", "repro.service.batcher", "EpochTicket", "wait"),
    ("service.batcher.tick", "repro.service.batcher", "EpochBatcher", "tick"),
    ("service.batcher.release", "repro.service.batcher", "EpochBatcher", "release"),
    ("log.run_update", "repro.log.distributed", "DistributedLog", "run_update"),
    ("log.run_shard_update", "repro.log.sharded", "ShardedLog", "run_shard_update"),
    ("log.prepare", "repro.log.distributed", "DistributedLog", "prepare_update"),
    ("log.certify", "repro.log.distributed", "DistributedLog", "certify_round"),
    ("log.prove", "repro.log.distributed", "DistributedLog", "prove_includes"),
    ("log.prove_sharded", "repro.log.sharded", "ShardedLog", "prove_includes"),
    ("log.root", "repro.log.sharded", "ShardedLog", "digest"),
    ("hsm.device.audit", "repro.hsm.device", "HsmDevice", "audit_log_update"),
    ("hsm.device.accept", "repro.hsm.device", "HsmDevice", "accept_log_digest"),
    ("hsm.device.decrypt_share", "repro.hsm.device", "HsmDevice", "decrypt_share"),
    ("crypto.ec.verify_aggregate", "repro.log.distributed", "EcdsaMultiSig",
     "verify_aggregate"),
    ("crypto.bfe.decrypt", "repro.crypto.bfe", "BloomFilterEncryption", "decrypt"),
    ("crypto.bfe.puncture", "repro.crypto.bfe", "BloomFilterEncryption", "puncture"),
    ("crypto.bfe.encrypt", "repro.crypto.bfe", "BloomFilterEncryption", "encrypt"),
    ("storage.securedel.delete", "repro.storage.securedel", "SecureDeletionTree", "delete"),
    ("storage.securedel.read", "repro.storage.securedel", "SecureDeletionTree", "read"),
    ("storage.securedel.setup", "repro.storage.securedel", "SecureDeletionTree", "setup"),
    ("storage.journal.replay", "repro.storage.journal", "ProviderJournal", "replay_state"),
)

#: Sessions start here: every span beneath one of these carries its id.
SESSION_ROOTS = frozenset(("core.client.recover", "core.client.backup"))

#: Which kind of job a ``submit`` queues, read off the span that queued it.
_JOB_KIND_BY_PARENT = {
    "service.workers.queued_decrypt_share": "decrypt",
    "service.batcher.tick": "lane",
}

Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Tuple[int, str]] = []
        self.session: Optional[int] = None


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``storage.blockstore.puts`` / ``.put_bytes`` and
        #: ``storage.wal.append_bytes``: too hot or too small for a span.
        self.counters: Counter = Counter()
        self._counter_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._patched: List[Tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target (idempotent: a second call is a no-op)."""
        if self._patched:
            return
        for name, module_name, owner_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._patch(owner, attr, lambda fn, name=name: self._traced(name, fn))
        workers = importlib.import_module("repro.service.workers")
        self._patch(workers.HsmWorkerPool, "submit", self._traced_submit)
        wal = importlib.import_module("repro.storage.wal")
        self._patch(wal.WriteAheadLog, "append", self._traced_append)
        blockstore = importlib.import_module("repro.storage.blockstore")
        self._patch(blockstore.InMemoryBlockStore, "put", self._counted_put)

    def _patch(self, owner: object, attr: str, wrap: Callable) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            patched: object = staticmethod(wrap(raw.__func__))
        elif isinstance(raw, property):
            patched = property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            patched = wrap(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def uninstall(self) -> bool:
        """Restore the originals; True if every attribute is its original."""
        restored = True
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
            restored = restored and vars(owner)[attr] is raw
        self._patched = []
        return restored

    # -- wrappers ---------------------------------------------------------------
    def _traced(self, name: str, fn: Callable) -> Callable:
        state, ids, record = self._state, self._ids, self.spans.append
        now, ident = time.perf_counter, threading.get_ident
        is_root = name in SESSION_ROOTS

        def traced(*args, **kwargs):
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1][0] if stack else None
            opens_session = is_root and state.session is None
            if opens_session:
                state.session = span_id
            stack.append((span_id, name))
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                record((span_id, name, start, end, parent, state.session, ident()))
                if opens_session:
                    state.session = None

        return traced

    def _traced_submit(self, submit: Callable) -> Callable:
        state, ids, record = self._state, self._ids, self.spans.append
        now, ident = time.perf_counter, threading.get_ident

        def traced_submit(pool, index, thunk):
            stack = state.stack
            parent, parent_name = stack[-1] if stack else (None, "")
            session = state.session
            kind = _JOB_KIND_BY_PARENT.get(parent_name, "epoch")
            submitter = ident()
            submitted = now()

            def traced_thunk():
                started = now()
                record((next(ids), "service.workers.queue_wait." + kind,
                        submitted, started, parent, session, submitter))
                job_id = next(ids)
                job_name = "service.workers.job." + kind
                worker_stack = state.stack
                worker_stack.append((job_id, job_name))
                outer_session, state.session = state.session, session
                try:
                    return thunk()
                finally:
                    end = now()
                    worker_stack.pop()
                    state.session = outer_session
                    record((job_id, job_name, started, end, parent, session, ident()))

            return submit(pool, index, traced_thunk)

        return traced_submit

    def _traced_append(self, append: Callable) -> Callable:
        traced = self._traced("storage.wal.append", append)

        def traced_append(wal, kind, payload):
            with self._counter_lock:
                self.counters["storage.wal.append_bytes"] += len(payload)
            return traced(wal, kind, payload)

        return traced_append

    def _counted_put(self, put: Callable) -> Callable:
        def counted_put(store, addr, block):
            with self._counter_lock:
                self.counters["storage.blockstore.puts"] += 1
                self.counters["storage.blockstore.put_bytes"] += len(block)
            return put(store, addr, block)

        return counted_put

    def counter_snapshot(self) -> Dict[str, int]:
        """A consistent copy of the counters (subtract two for a window)."""
        with self._counter_lock:
            return dict(self.counters)
