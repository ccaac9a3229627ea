"""The four workloads: shape, set-up, the closed-loop window, the gates.

Load shape (all workloads): closed loop — each client device waits for its
reply before sending the next request.  The generator is one process with one
or three client threads; the service's own threads (one FIFO worker per HSM,
ticker, lanes) are the program, not the load, and all of them share the one
core a pass is pinned to (``hostref``).  No message delay is injected:
latency is processor time only.

Why three clients and not two on the concurrent workloads: with two, a run
settles into one of two regimes — both sessions ride every epoch together,
or they alternate, each waiting out the other's lease — and stays there for
tens of seconds (1.83 against 1.28 recoveries/s on ``recover_wide``), so
single runs do not repeat.  With three the epochs mix and a run is steady.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.client import Client, RecoveryError
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.log.distributed import EcdsaMultiSig
from repro.service.recovery import RecoveryService
from repro.storage.blockstore import InMemoryBlockStore

TICK_INTERVAL = 0.02
LEASE_TIMEOUT = 5.0
PAYLOAD_BYTES = 32  # an AES key, as LHE wraps in the paper
RESTARTS = 2


@dataclass(frozen=True)
class Workload:
    """One named traffic shape.  ``pool_rate`` sizes the pre-loaded user
    pool (operations per second of window, with headroom over this host's
    measured rate): the window ends at its deadline or, on a much faster
    program, when the pool runs out."""

    name: str
    op: str  # "recover" or "backup"
    num_hsms: int
    cluster_size: int
    max_punctures: int
    shards: Optional[int]
    durable: bool
    clients: int
    pool_rate: float
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "recover_wide", "recover", 12, 3, 32, None, False, 3, 3.0,
        "Epoch-bound: a 12-device certify round (12 devices x 12-signature aggregate) is"
        " most of a session and three clients contend for the batcher lock and lane-0 leases.",
    ),
    Workload(
        "recover_narrow", "recover", 4, 3, 64, None, False, 1, 4.2,
        "Puncture-bound latency floor: a 4-device epoch is cheap, so decrypt_share ->"
        " puncture -> secure deletion -> AES dominates; one client, so no queue or lock wait.",
    ),
    Workload(
        "recover_sharded_durable", "recover", 12, 3, 32, 4, True, 3, 4.2,
        "The deployed shape: recover_wide's fleet and clients plus 4 log shards"
        " (3-device committees) and the journal; then restart and recover twice.",
    ),
    Workload(
        "backup_burst", "backup", 12, 3, 8, None, True, 1, 40.0,
        "The write path: encryption, one large frame and large WAL records; touches no"
        " HSM, log or batcher, so epoch and puncture optimisations predict no change.",
    ),
)
BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass
class User:
    client: Client
    pin: str
    payload: bytes


@dataclass
class Rig:
    """One set-up: a started service and its pre-loaded users."""

    deployment: Deployment
    service: RecoveryService
    users: List[User]
    reserved: List[User]  # pre-loaded, kept out of the window (restart gate)
    setup_began: float  # perf_counter values around everything setup_s covers
    setup_ended: float


def pool_size(workload: Workload, seconds: float, sessions: Optional[int]) -> int:
    """Users the window may consume (``sessions`` pins it, for smoke runs)."""
    return sessions if sessions is not None else math.ceil(workload.pool_rate * seconds)


def create_deployment(
    workload: Workload, rng: random.Random, max_punctures: Optional[int] = None
) -> Deployment:
    """The workload's fleet, log and (if durable) in-memory journal store.
    ``max_punctures`` shrinks the key trees for smoke runs."""
    params = SystemParams.for_testing(
        num_hsms=workload.num_hsms,
        cluster_size=workload.cluster_size,
        max_punctures=max_punctures or workload.max_punctures,
    )
    return Deployment.create(
        params,
        multisig=EcdsaMultiSig(),
        rng=random.Random(rng.getrandbits(64)),
        shards=workload.shards,
        store=InMemoryBlockStore() if workload.durable else None,
    )


def new_user(rng: random.Random, client: Client) -> "User":
    """A client with its seeded 4-digit PIN and 32-byte payload."""
    return User(client, f"{rng.randrange(10_000):04d}", rng.randbytes(PAYLOAD_BYTES))


def set_up(
    workload: Workload,
    seed: int,
    users: int,
    max_punctures: Optional[int] = None,
) -> Rig:
    """``Deployment.create`` + ``recovery_service()`` + ``start()`` + the
    workload's pre-loaded backups — everything ``setup_s`` covers.  The
    program sees only what ``seed`` generates: the fleet's key material,
    usernames, 4-digit PINs and 32-byte payloads."""
    began = time.perf_counter()
    rng = random.Random(seed)
    deployment = create_deployment(workload, rng, max_punctures)
    service = deployment.recovery_service(
        transport="wire", tick_interval=TICK_INTERVAL, lease_timeout=LEASE_TIMEOUT
    )
    service.start()
    reserve = RESTARTS if workload.durable and workload.op == "recover" else 0
    pool = []
    for i in range(users + reserve):
        user = new_user(rng, service.new_client(f"user-{seed}-{i}"))
        if workload.op == "recover":
            user.client.backup(user.payload, user.pin)
        pool.append(user)
    return Rig(
        deployment=deployment,
        service=service,
        users=pool[:users],
        reserved=pool[users:],
        setup_began=began,
        setup_ended=time.perf_counter(),
    )


#: ``speed(start, end)``: the host's speed over an interval, as a share of
#: the reference speed (``hostref.HostProbe.speed``).
Speed = Callable[[float, float], float]


def as_measured(start: float, end: float) -> float:
    """The ``Speed`` that leaves wall-clock values as they were measured."""
    return 1.0


@dataclass
class Window:
    """What one closed-loop window produced (times are ``perf_counter``)."""

    start: float
    closed: float  # the deadline, or when the pool ran out if that came first
    finished: float  # the last operation in flight at ``closed`` ended
    ops: List[Tuple[float, float]]  # (began, ended) of each correct operation
    attempted: int
    failures: List[str]
    done: List[User]  # users whose operation completed correctly, in order

    @property
    def correct(self) -> int:
        return len(self.ops)

    def latencies_ms(self, speed: Speed = as_measured) -> List[float]:
        """Latency of each correct operation that ended inside the window
        (one still in flight at ``closed`` ends under a lighter load)."""
        return [
            (ended - began) * speed(began, ended) * 1e3
            for began, ended in self.ops
            if ended <= self.closed
        ]

    def ops_per_s(self, speed: Speed = as_measured) -> float:
        """Correct operations per second of window.  An operation in flight
        at ``closed`` counts for the share of its duration inside the window:
        with twenty operations in a window, whole ones would quantise the
        rate in steps of 5 %."""
        credit = sum(
            max(0.0, min(ended, self.closed) - began) / (ended - began)
            for began, ended in self.ops
        )
        return credit / ((self.closed - self.start) * speed(self.start, self.closed))


def _operate(workload: Workload, user: User) -> Optional[str]:
    """Run the workload's operation for one user; a string names a failure."""
    if workload.op == "backup":
        index = user.client.backup(user.payload, user.pin)
        return None if index == 0 else f"backup index {index}, expected 0"
    recovered = user.client.recover(user.pin)
    return None if recovered == user.payload else "recovered plaintext differs"


def run_window(workload: Workload, users: List[User], seconds: float) -> Window:
    """Closed loop: ``workload.clients`` threads each take the next unused
    user until the deadline passes or the pool runs out.  An operation that
    raises, times out or returns wrong bytes counts as failed and
    contributes no latency."""
    lock = threading.Lock()
    remaining = iter(users)
    ops: List[Tuple[float, float]] = []
    failures: List[str] = []
    done: List[User] = []
    attempted = 0
    start = time.perf_counter()
    closed = start + seconds

    def client_loop() -> None:
        nonlocal attempted, closed
        while True:
            with lock:
                now = time.perf_counter()
                user = next(remaining, None) if now < closed else None
                if user is None:
                    closed = min(closed, now)
                    break
                attempted += 1
            began = time.perf_counter()
            try:
                failure = _operate(workload, user)
            except Exception as exc:  # noqa: BLE001 - a load generator reports, it does not crash
                failure = repr(exc)
            ended = time.perf_counter()
            with lock:
                if failure is None:
                    ops.append((began, ended))
                    done.append(user)
                else:
                    failures.append(f"{user.client.username}: {failure}")

    threads = [threading.Thread(target=client_loop) for _ in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Window(
        start=start,
        closed=closed,
        finished=time.perf_counter(),
        ops=ops,
        attempted=attempted,
        failures=failures,
        done=done,
    )


# -- correctness gates (outside every window) ---------------------------------
def check_service_counters(service: RecoveryService) -> List[str]:
    """No epoch may have failed and no lease may have timed out."""
    stats = service.stats()
    return [
        f"{key} = {stats[key]}, expected 0"
        for key in ("epoch_failures", "lease_timeouts")
        if stats[key] != 0
    ]


def check_puncture_held(user: User) -> List[str]:
    """An already-recovered user's second recovery must fail."""
    try:
        user.client.recover(user.pin)
    except RecoveryError:
        return []
    return [f"{user.client.username}: second recovery succeeded (puncture not held)"]


def check_backups_readable(rig: Rig, done: List[User]) -> List[str]:
    """``backup_burst`` ends by fetching 20 of its backups and recovering 3."""
    problems = []
    for user in done[:20]:
        name = user.client.username
        if user.client.provider.backup_count(name) != 1:
            problems.append(f"{name}: backup count is not 1")
        user.client.provider.fetch_backup(name)
    for user in done[:3]:
        if user.client.recover(user.pin) != user.payload:
            problems.append(f"{user.client.username}: backup did not recover")
    return problems


def restart_and_recover(rig: Rig) -> Tuple[List[Tuple[float, float]], List[str]]:
    """``RESTARTS`` x (``restart()`` -> ``start()`` -> one recovery of a
    pre-crash backup).  Returns the (began, ended) of each, from ``restart()``
    called to the first correct recovery, and any gate failure: the restored
    digest must equal the pre-crash one and the pre-crash backup must recover."""
    times, problems = [], []
    for user in rig.reserved:
        digest = rig.service.provider.log.digest
        began = time.perf_counter()
        revived = rig.service.restart()
        restored_digest = revived.provider.log.digest
        revived.start()
        client = revived.new_client(user.client.username)
        recovered = client.recover(user.pin)
        times.append((began, time.perf_counter()))
        if restored_digest != digest:
            problems.append("restored log digest differs from the pre-crash digest")
        if recovered != user.payload:
            problems.append(f"{user.client.username}: pre-crash backup did not recover")
        problems.extend(check_service_counters(revived))
        rig.service, rig.deployment = revived, revived.deployment
    return times, problems
