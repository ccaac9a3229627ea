"""Per-layer metrics and the measured breakdown table, derived from spans.

A layer is a module under ``src/repro`` (both log implementations report
under ``log.``).  Timings come from the traced window, scaled to the
reference host speed by the caller, and are p50 per call unless suffixed; ``_per_recovery`` / ``_per_backup`` are sums over the
window divided by its operations; exact counts come from the count pass.
A layer's self time is its span minus the part of that interval its child
spans cover, children on other threads (queued jobs) included.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.workload import percentile

from tracer import SESSION_ROOTS, Span

#: (name, unit) of every per-layer metric, in print order (direction: BENCHMARK.json).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.client.op_p50_ms", "ms"),
    ("core.client.op_p90_ms", "ms"),
    ("core.client.begin_self_ms", "ms"),
    ("core.client.finish_ms", "ms"),
    ("core.client.backup_encrypt_ms", "ms"),
    ("service.channel.provider_codec_ms_per_recovery", "ms"),
    ("service.channel.hsm_codec_ms_per_share", "ms"),
    ("service.channel.frames_per_recovery", "count"),
    ("service.channel.bytes_per_recovery", "B"),
    ("service.channel.bytes_per_backup", "B"),
    ("service.workers.queue_wait_ms_p50", "ms"),
    ("service.workers.queue_wait_ms_p90", "ms"),
    ("service.workers.epoch_queue_wait_ms_p50", "ms"),
    ("service.workers.busy_share", "ratio"),
    ("service.workers.jobs_per_recovery", "count"),
    ("service.batcher.submit_wait_ms_p50", "ms"),
    ("service.batcher.ticket_wait_ms_p50", "ms"),
    ("service.batcher.ticket_wait_ms_p90", "ms"),
    ("service.batcher.tick_ms_p50", "ms"),
    ("service.batcher.tick_overhead_ms_p50", "ms"),
    ("service.batcher.sessions_per_epoch", "count"),
    ("service.batcher.epochs_run", "count"),
    ("service.batcher.lease_timeouts", "count"),
    ("service.batcher.epoch_failures", "count"),
    ("service.batcher.stale_proof_refreshes", "count"),
    ("service.recovery.restart_first_recovery_s", "s"),
    ("log.run_update_ms_p50", "ms"),
    ("log.prepare_ms_p50", "ms"),
    ("log.certify_ms_p50", "ms"),
    ("log.prove_ms_p50", "ms"),
    ("log.root_ms_p50", "ms"),
    ("hsm.device.audit_ms_p50", "ms"),
    ("hsm.device.accept_ms_p50", "ms"),
    ("hsm.device.decrypt_share_ms_p50", "ms"),
    ("hsm.device.ec_mult_per_recovery", "count"),
    ("hsm.device.ecdsa_verify_per_recovery", "count"),
    ("hsm.device.aes_block_per_recovery", "count"),
    ("hsm.device.sha256_block_per_recovery", "count"),
    ("hsm.device.hmac_per_recovery", "count"),
    ("hsm.costmodel.model_ms_per_recovery", "ms"),
    ("hsm.fleet.keygen_s", "s"),
    ("crypto.ec.verify_aggregate_ms_p50", "ms"),
    ("crypto.bfe.decrypt_ms_p50", "ms"),
    ("crypto.bfe.puncture_ms_p50", "ms"),
    ("crypto.bfe.encrypt_ms_p50", "ms"),
    ("crypto.aes.us_per_block", "us"),
    ("crypto.aes.blocks_per_recovery", "count"),
    ("storage.securedel.delete_ms_p50", "ms"),
    ("storage.securedel.read_ms_p50", "ms"),
    ("storage.securedel.deletes_per_recovery", "count"),
    ("storage.securedel.setup_s_per_hsm", "s"),
    ("storage.wal.appends_per_recovery", "count"),
    ("storage.wal.append_ms_per_recovery", "ms"),
    ("storage.wal.bytes_per_recovery", "B"),
    ("storage.wal.appends_per_backup", "count"),
    ("storage.wal.bytes_per_backup", "B"),
    ("storage.blockstore.puts_per_recovery", "count"),
    ("storage.blockstore.bytes_per_user_byte", "ratio"),
    ("storage.journal.replay_ms", "ms"),
    ("core.protocol.restore_ms", "ms"),
    ("core.protocol.genesis_epoch_s", "s"),
    ("core.provider.upload_backup_ms_p50", "ms"),
    ("core.provider.fetch_backup_ms_p50", "ms"),
    ("core.provider.store_reply_ms_p50", "ms"),
    ("core.provider.reserve_attempt_ms_p50", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("host.ref_ms", "ms"),
    ("host.speed", "ratio"),
)

#: Spans that are time spent blocked on someone else, not work.
_WAITS = frozenset(("service.batcher.submit", "service.batcher.ticket_wait"))
_PROVIDER_RPC = "service.channel.provider."
_EPOCH_CHILDREN = frozenset(
    ("log.run_update", "service.workers.queue_wait.lane", "service.workers.job.lane")
)
_GENESIS_EPOCHS = frozenset(("log.run_update", "log.run_shard_update"))


def layer_of(name: str) -> str:
    """``log.certify`` -> ``log``; ``hsm.device.accept`` -> ``hsm.device``."""
    parts = name.split(".")
    return parts[0] if parts[0] == "log" else ".".join(parts[:2])


def _is_wait(name: str) -> bool:
    return name in _WAITS or name.startswith("service.workers.queue_wait.")


def _ms(span: Span) -> float:
    return (span[3] - span[2]) * 1e3


class SpanIndex:
    """The traced spans, indexed for window queries and self times."""

    def __init__(self, spans: Sequence[Span], start: float, end: float) -> None:
        self.start, self.end = start, end
        self.children: Dict[int, List[Span]] = defaultdict(list)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.before: Dict[str, List[Span]] = defaultdict(list)
        self.after: Dict[str, List[Span]] = defaultdict(list)
        for span in spans:
            if span[4] is not None:
                self.children[span[4]].append(span)
            if span[3] <= start:
                self.before[span[1]].append(span)
            elif span[2] >= end:
                self.after[span[1]].append(span)
            elif span[2] >= start and span[3] <= end:
                self.by_name[span[1]].append(span)

    def covered_ms(
        self, span: Span, wanted: Optional[Callable[[str], bool]] = None
    ) -> float:
        """Milliseconds of ``span`` covered by its children — all of them, or
        those whose name ``wanted`` accepts."""
        intervals = sorted(
            (max(child[2], span[2]), min(child[3], span[3]))
            for child in self.children.get(span[0], ())
            if wanted is None or wanted(child[1])
        )
        total, reach = 0.0, span[2]
        for lo, hi in intervals:
            if hi > reach:
                total += hi - max(lo, reach)
                reach = hi
        return total * 1e3

    def self_ms(self, span: Span) -> float:
        return _ms(span) - self.covered_ms(span)


def derive(
    index: SpanIndex,
    op: str,
    ops: int,
    num_hsms: int,
    counters: Dict[str, int],
    stats: Dict[str, int],
    counts: Dict[str, float],
    extras: Dict[str, float],
) -> Dict[str, Tuple[float, Optional[int]]]:
    """Every per-layer metric of one traced run, as ``(value, samples)``;
    ``samples`` is how many spans a timing rests on (None for a count).

    ``ops`` is the window's correct operations, ``counters`` and ``stats``
    are the tracer-counter and ``service.stats()`` deltas over the window,
    ``counts`` is the count pass, and ``extras`` holds values measured
    outside the spans (AES block time, host reference and speed, overhead
    ratio, restart time).  A metric with nothing to measure on this workload is 0.
    """
    out: Dict[str, Tuple[float, Optional[int]]] = {}
    named, before, after = index.by_name, index.before, index.after
    recover = op == "recover"
    sharded = bool(named["log.run_shard_update"])

    def put(metric: str, value: float, samples: Optional[int] = None) -> None:
        out[metric] = (float(value), samples)

    def put_p(metric: str, durations_ms: List[float], q: float = 0.5) -> None:
        put(metric, percentile(durations_ms, q) if durations_ms else 0.0, len(durations_ms))

    def put_span_p(metric: str, name: str, q: float = 0.5) -> None:
        put_p(metric, [_ms(s) for s in named[name]], q)

    def put_per_op(metric: str, total: float, wanted: bool = True) -> None:
        put(metric, total / ops if ops and wanted else 0.0)

    def put_count(metric: str, key: str, wanted: bool) -> None:
        put(metric, counts[key] if wanted else 0.0)

    root = "core.client.recover" if recover else "core.client.backup"
    put_span_p("core.client.op_p50_ms", root)
    put_span_p("core.client.op_p90_ms", root, 0.9)
    put_p("core.client.begin_self_ms", [
        _ms(s) - index.covered_ms(s, lambda name: name.startswith(_PROVIDER_RPC))
        for s in named["core.client.begin_recovery"]
    ])
    put_span_p("core.client.finish_ms", "core.client.finish_recovery")
    put_span_p("core.client.backup_encrypt_ms", "core.client.lhe_encrypt")

    rpc_spans = [s for name in list(named) if name.startswith(_PROVIDER_RPC)
                 for s in named[name]]
    put_per_op("service.channel.provider_codec_ms_per_recovery",
               sum(index.self_ms(s) for s in rpc_spans), recover)
    hsm_codec = [
        _ms(s) - index.covered_ms(s, "hsm.device.decrypt_share".__eq__)
        for s in named["service.channel.hsm_decrypt_share"]
    ]
    put("service.channel.hsm_codec_ms_per_share",
        statistics.mean(hsm_codec) if hsm_codec else 0.0, len(hsm_codec))
    put_count("service.channel.frames_per_recovery", "wire_frames", recover)
    put_count("service.channel.bytes_per_recovery", "wire_bytes", recover)
    put_count("service.channel.bytes_per_backup", "wire_bytes", not recover)

    put_span_p("service.workers.queue_wait_ms_p50", "service.workers.queue_wait.decrypt")
    put_span_p("service.workers.queue_wait_ms_p90", "service.workers.queue_wait.decrypt", 0.9)
    put_span_p("service.workers.epoch_queue_wait_ms_p50", "service.workers.queue_wait.epoch")
    device_jobs = named["service.workers.job.decrypt"] + named["service.workers.job.epoch"]
    put("service.workers.busy_share",
        sum(_ms(s) for s in device_jobs) / (num_hsms * (index.end - index.start) * 1e3))
    put_per_op("service.workers.jobs_per_recovery", len(device_jobs), recover)

    put_span_p("service.batcher.submit_wait_ms_p50", "service.batcher.submit")
    put_span_p("service.batcher.ticket_wait_ms_p50", "service.batcher.ticket_wait")
    put_span_p("service.batcher.ticket_wait_ms_p90", "service.batcher.ticket_wait", 0.9)
    busy_ticks = [s for s in named["service.batcher.tick"] if index.children.get(s[0])]
    put_p("service.batcher.tick_ms_p50", [_ms(s) for s in busy_ticks])
    put_p("service.batcher.tick_overhead_ms_p50", [
        _ms(s) - index.covered_ms(s, _EPOCH_CHILDREN.__contains__) for s in busy_ticks
    ])
    epochs = stats["epochs_run"]
    put("service.batcher.sessions_per_epoch", stats["sessions_served"] / epochs if epochs else 0.0)
    put("service.batcher.epochs_run", epochs)
    put("service.batcher.lease_timeouts", stats["lease_timeouts"])
    put("service.batcher.epoch_failures", stats["epoch_failures"])
    put("service.batcher.stale_proof_refreshes", len(named[_PROVIDER_RPC + "prove_inclusion"]))
    put("service.recovery.restart_first_recovery_s", extras["restart_first_recovery_s"])

    put_span_p("log.run_update_ms_p50", "log.run_shard_update" if sharded else "log.run_update")
    put_span_p("log.prepare_ms_p50", "log.prepare")
    put_span_p("log.certify_ms_p50", "log.certify")
    put_span_p("log.prove_ms_p50", "log.prove_sharded" if sharded else "log.prove")
    put_span_p("log.root_ms_p50", "log.root")

    put_span_p("hsm.device.audit_ms_p50", "hsm.device.audit")
    put_span_p("hsm.device.accept_ms_p50", "hsm.device.accept")
    put_span_p("hsm.device.decrypt_share_ms_p50", "hsm.device.decrypt_share")
    for op_name in ("ec_mult", "ecdsa_verify", "aes_block", "sha256_block", "hmac"):
        put_count(f"hsm.device.{op_name}_per_recovery", "hsm_" + op_name, recover)
    put_count("hsm.costmodel.model_ms_per_recovery", "hsm_model_ms", recover)
    put("hsm.fleet.keygen_s", sum(_ms(s) for s in before["hsm.fleet.keygen"]) / 1e3)

    put_span_p("crypto.ec.verify_aggregate_ms_p50", "crypto.ec.verify_aggregate")
    put_span_p("crypto.bfe.decrypt_ms_p50", "crypto.bfe.decrypt")
    put_span_p("crypto.bfe.puncture_ms_p50", "crypto.bfe.puncture")
    put_span_p("crypto.bfe.encrypt_ms_p50", "crypto.bfe.encrypt")
    put("crypto.aes.us_per_block", extras["aes_us_per_block"])
    put_count("crypto.aes.blocks_per_recovery", "aes_blocks", recover)

    put_span_p("storage.securedel.delete_ms_p50", "storage.securedel.delete")
    put_span_p("storage.securedel.read_ms_p50", "storage.securedel.read")
    put_per_op("storage.securedel.deletes_per_recovery",
               len(named["storage.securedel.delete"]), recover)
    tree_setups = [_ms(s) / 1e3 for s in before["storage.securedel.setup"]]
    put("storage.securedel.setup_s_per_hsm",
        statistics.mean(tree_setups) if tree_setups else 0.0, len(tree_setups))

    put_count("storage.wal.appends_per_recovery", "wal_appends", recover)
    put_per_op("storage.wal.append_ms_per_recovery",
               sum(_ms(s) for s in named["storage.wal.append"]), recover)
    put_count("storage.wal.bytes_per_recovery", "stored_bytes", recover)
    put_count("storage.wal.appends_per_backup", "wal_appends", not recover)
    put_count("storage.wal.bytes_per_backup", "stored_bytes", not recover)
    put_per_op("storage.blockstore.puts_per_recovery",
               counters.get("storage.blockstore.puts", 0), recover)
    put("storage.blockstore.bytes_per_user_byte",
        0.0 if recover else counts["stored_bytes"] / extras["payload_bytes"])
    put_p("storage.journal.replay_ms", [_ms(s) for s in after["storage.journal.replay"]])
    put_p("core.protocol.restore_ms", [_ms(s) for s in after["core.protocol.restore"]])
    put("core.protocol.genesis_epoch_s", sum(
        index.covered_ms(s, _GENESIS_EPOCHS.__contains__)
        for s in before["core.protocol.create"]
    ) / 1e3)

    put_span_p("core.provider.upload_backup_ms_p50", "core.provider.upload_backup")
    put_span_p("core.provider.fetch_backup_ms_p50", "core.provider.fetch_backup")
    put_span_p("core.provider.store_reply_ms_p50", "core.provider.store_reply")
    put_span_p("core.provider.reserve_attempt_ms_p50", "core.provider.reserve_attempt")
    put("trace.overhead_ratio", extras["overhead_ratio"])
    put("host.ref_ms", extras["host_ref_ms"])
    put("host.speed", extras["host_speed"])
    return {name: out[name] for name, _ in PER_LAYER}


def breakdown(index: SpanIndex, ops: int) -> Tuple[List[str], float]:
    """The one-screen table: per layer, calls and self/wait milliseconds per
    operation.  Rows above the rule are the blocking path — every span of a
    session's tree, so their self and wait times sum to the operation's wall
    time — and their share of the mean operation wall is given; rows below
    are the epoch path on the ticker, lane and worker threads, which runs
    while sessions wait on their tickets.  Returns the lines and the share
    of the mean operation wall the blocking path accounts for."""
    roots = [s for name in SESSION_ROOTS for s in index.by_name.get(name, ())]
    sessions = {s[0] for s in roots}
    wall_ms = sum(_ms(s) for s in roots)
    rows: Dict[Tuple[bool, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for name, spans in index.by_name.items():
        for span in spans:
            if name == "service.batcher.tick" and not index.children.get(span[0]):
                continue  # an idle tick of the ticker thread: the service is on, not used
            row = rows[(span[5] in sessions, layer_of(name))]
            row[0] += 1
            row[2 if _is_wait(name) else 1] += index.self_ms(span)
    if not ops or not wall_ms:
        return ["(no operations in the traced window)"], 0.0
    header = f"{'layer':<20}{'calls/op':>10}{'self ms/op':>12}{'wait ms/op':>12}{'share':>8}"
    lines = [header]
    attributed = 0.0
    for blocking in (True, False):
        if not blocking:
            lines.append("-" * len(header) + "  epoch path (overlaps ticket waits)")
        chosen = sorted(
            ((layer, row) for (flag, layer), row in rows.items() if flag is blocking),
            key=lambda item: -(item[1][1] + item[1][2]),
        )
        for layer, (calls, self_total, wait_total) in chosen:
            share = f"{(self_total + wait_total) / wall_ms:8.1%}" if blocking else ""
            attributed += self_total + wait_total if blocking else 0.0
            lines.append(
                f"{layer:<20}{calls / ops:10.1f}{self_total / ops:12.2f}"
                f"{wait_total / ops:12.2f}{share}"
            )
    return lines, attributed / wall_ms
