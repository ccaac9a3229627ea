"""Untrusted external block stores.

The paper models the service provider as an oracle ``S`` with
``S.Get(addr)`` and ``S.Put(addr, block)`` (Appendix C).  The provider is
untrusted: it may return stale, corrupted, or swapped blocks.  The secure-
deletion layer must *detect* all such tampering (integrity) and guarantee
that deleted plaintext is unrecoverable even given every block the provider
ever saw plus the HSM's post-deletion state (secure deletion).

``TamperingBlockStore`` implements that adversary for the test suite: it
remembers every version of every block ever written and can be instructed to
corrupt, replay, or swap blocks on future reads.

The same oracle abstraction now also carries the service's *durability*
layer (``repro.storage.wal`` / ``repro.storage.journal``): block puts are
the unit of atomicity, so ``CrashingBlockStore`` models a process dying
mid-write-sequence by raising :class:`CrashError` after a configured number
of puts — everything already written stays readable, everything after is
lost, exactly the contract crash-recovery tests need.

One durable store holds two owners' bytes: the provider's WAL records at the
low addresses, which its chain hash vouches for, and one :class:`RegionStore`
per HSM far above them, whose blocks the device alone vouches for (AE tag,
address as associated data, parent re-keyed on every puncture).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro import metering


class BlockStore:
    """Abstract provider-side block oracle."""

    def get(self, addr: int) -> bytes:
        """Return the block stored at ``addr`` (KeyError if absent)."""
        raise NotImplementedError

    def put(self, addr: int, block: bytes) -> None:
        """Store ``block`` at ``addr``, overwriting any previous version."""
        raise NotImplementedError

    def __contains__(self, addr: int) -> bool:
        raise NotImplementedError

    def delete(self, addr: int) -> None:
        """Drop a block (WAL compaction).  Optional; default is a no-op —
        an honest-but-lazy provider may keep history forever."""


class InMemoryBlockStore(BlockStore):
    """An honest provider: a dict of address -> block.

    Reads and writes report ``io_bytes`` to the ambient meter — in the real
    system every block crosses the USB transport between host and HSM, and
    that I/O dominates puncturable-decryption cost (Figure 9).
    """

    def __init__(self) -> None:
        self._blocks: Dict[int, bytes] = {}

    def get(self, addr: int) -> bytes:
        """Return the block at ``addr``, metering its size as I/O."""
        block = self._blocks[addr]
        metering.count("io_bytes", len(block))
        return block

    def put(self, addr: int, block: bytes) -> None:
        """Store ``block`` at ``addr``, metering its size as I/O."""
        metering.count("io_bytes", len(block))
        self._blocks[addr] = block

    def __contains__(self, addr: int) -> bool:
        return addr in self._blocks

    def delete(self, addr: int) -> None:
        """Remove a block if present (WAL compaction reclaims addresses)."""
        self._blocks.pop(addr, None)

    def __len__(self) -> int:
        return len(self._blocks)

    def total_bytes(self) -> int:
        """Total bytes across all stored blocks (storage-footprint stats)."""
        return sum(len(b) for b in self._blocks.values())


class RegionStore(BlockStore):
    """One HSM's key array, in place in a fixed region of a shared store.

    Address ``a`` of region ``index`` is address
    ``2**62 + index * 2**40 + a`` of ``store`` — far above any WAL sequence
    number, so the log sharing the store never walks, fences on or compacts
    a key block.  A put is exactly one put on ``store`` (one atomic write,
    one crash point), and a restart reads it back with nothing to replay.
    """

    def __init__(self, store: BlockStore, index: int) -> None:
        self._store = store
        self._base = (1 << 62) + (index << 40)

    def get(self, addr: int) -> bytes:
        """Return the region's block ``addr`` (KeyError if absent)."""
        return self._store.get(self._base + addr)

    def put(self, addr: int, block: bytes) -> None:
        """Store the region's block ``addr``: one put on the shared store."""
        self._store.put(self._base + addr, block)

    def __contains__(self, addr: int) -> bool:
        return self._base + addr in self._store


class TamperingBlockStore(InMemoryBlockStore):
    """A malicious provider for integrity / secure-deletion tests.

    - keeps a full history of every version of every block (an attacker
      snapshotting its own storage),
    - ``corrupt(addr)`` flips a bit of a stored block,
    - ``replay(addr, version)`` serves a stale version on the next read,
    - ``swap(a, b)`` swaps two blocks,
    - ``intercept`` lets tests install an arbitrary read transformer.
    """

    def __init__(self) -> None:
        super().__init__()
        self.history: Dict[int, List[bytes]] = defaultdict(list)
        self._replay_next: Dict[int, bytes] = {}
        self.intercept: Optional[Callable[[int, bytes], bytes]] = None

    def put(self, addr: int, block: bytes) -> None:
        """Store the block, also archiving it in the attacker's history."""
        self.history[addr].append(block)
        super().put(addr, block)

    def get(self, addr: int) -> bytes:
        """Serve the block — or a stale/intercepted one if so instructed."""
        if addr in self._replay_next:
            stale = self._replay_next.pop(addr)
            metering.count("io_bytes", len(stale))
            return stale
        block = super().get(addr)
        if self.intercept is not None:
            block = self.intercept(addr, block)
        return block

    def corrupt(self, addr: int, bit: int = 0) -> None:
        """Flip one bit of the stored block at ``addr``."""
        block = bytearray(self._blocks[addr])
        block[bit // 8] ^= 1 << (bit % 8)
        self._blocks[addr] = bytes(block)

    def replay(self, addr: int, version: int = 0) -> None:
        """Serve a stale historical ``version`` on the next read of ``addr``."""
        self._replay_next[addr] = self.history[addr][version]

    def swap(self, addr_a: int, addr_b: int) -> None:
        """Exchange the blocks stored at two addresses."""
        self._blocks[addr_a], self._blocks[addr_b] = (
            self._blocks[addr_b],
            self._blocks[addr_a],
        )


class CrashError(RuntimeError):
    """The simulated process died mid-write (see ``CrashingBlockStore``)."""


class CrashingBlockStore(InMemoryBlockStore):
    """An honest store whose *process* dies after N more successful puts.

    Crash-recovery tests wrap the service's durable store in one of these,
    arm it with :meth:`crash_after`, drive the workload until
    :class:`CrashError` fires, then "restart" by handing ``self.blocks`` —
    everything durably written before the crash — to a fresh deployment.
    Block writes are atomic: a put either lands whole before the crash or
    not at all (the failing put is *not* applied).
    """

    def __init__(self) -> None:
        super().__init__()
        self._puts_until_crash: Optional[int] = None

    def crash_after(self, puts: int) -> None:
        """Arm the store: the (puts+1)-th future put raises ``CrashError``."""
        self._puts_until_crash = puts

    def put(self, addr: int, block: bytes) -> None:
        """Store the block, or raise :class:`CrashError` if the armed
        crash countdown has expired (the failing put is not applied)."""
        if self._puts_until_crash is not None:
            if self._puts_until_crash <= 0:
                raise CrashError("simulated process crash during block put")
            self._puts_until_crash -= 1
        super().put(addr, block)

    @property
    def blocks(self) -> "InMemoryBlockStore":
        """The durable image a restarted process would see (same blocks,
        crash trigger disarmed)."""
        survivor = InMemoryBlockStore()
        survivor._blocks = dict(self._blocks)
        return survivor
