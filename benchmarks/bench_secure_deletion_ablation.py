"""§9.1 ablation: key-tree secure deletion vs whole-array re-encryption.

The paper: deleting one item from a 64 MB outsourced array by re-encrypting
the whole array takes 48 minutes on a SoloKey; the Di Crescenzo key tree
does it in logarithmic time, improving throughput ~4,423x.

We reproduce the comparison two ways: (1) modeled at the full 64 MB scale on
the SoloKey cost model, and (2) measured wall-clock on this host at a small
scale with both real implementations.
"""

import math

from repro.hsm.costmodel import CostModel
from repro.hsm.devices import SOLOKEY
from repro.metering import metered
from repro.storage.blockstore import InMemoryBlockStore
from repro.storage.securedel import NaiveSecureStore, SecureDeletionTree

from reporting import emit

MODEL = CostModel(SOLOKEY)
ARRAY_BYTES = 64 * 1024 * 1024


def modeled_naive_delete_seconds() -> float:
    """Read, decrypt, re-encrypt, write the whole 64 MB array."""
    blocks = ARRAY_BYTES / 16
    return MODEL.seconds(
        {"aes_block": 2 * blocks, "io_bytes": 2 * ARRAY_BYTES}
    )


def modeled_tree_delete_seconds() -> float:
    """Metered real tree deletion, with depth scaled to a 64 MB array."""
    store = InMemoryBlockStore()
    tree = SecureDeletionTree.setup(store, [bytes(32)] * 64)
    with metered() as meter:
        tree.delete(7)
    real_depth = tree.height
    depth = math.ceil(math.log2(ARRAY_BYTES / 32))
    scale = depth / real_depth
    counts = {op: units * scale for op, units in meter.counts.items()}
    return MODEL.seconds(counts)


def test_secure_deletion_ablation_modeled(benchmark):
    benchmark(modeled_tree_delete_seconds)
    naive = modeled_naive_delete_seconds()
    tree = modeled_tree_delete_seconds()
    emit(
        "secure_deletion_ablation",
        "Ablation: one deletion from a 64 MB outsourced key (SoloKey model)",
        [
            f"naive re-encryption: {naive / 60:8.1f} min   (paper: 48 min)",
            f"key-tree deletion:   {tree:8.3f} s",
            f"throughput gain:     {naive / tree:8,.0f}x   (paper: ~4,423x)",
        ],
        data={
            "metrics": {
                "naive_reencrypt_s": naive,
                "tree_delete_s": tree,
                "throughput_gain": naive / tree,
            }
        },
    )
    assert 10 * 60 < naive < 120 * 60
    assert tree < 5.0
    assert naive / tree > 500


class _CountingStore(InMemoryBlockStore):
    """Counts the fetches the tree asks of the provider."""

    gets = 0

    def get(self, addr: int) -> bytes:
        self.gets += 1
        return super().get(addr)


def test_secure_deletion_wallclock(benchmark):
    """Real wall-clock comparison at 1,024 blocks on this host."""
    blocks = [bytes(32)] * 1024

    tree_store = _CountingStore()
    tree = SecureDeletionTree.setup(tree_store, blocks)
    naive_store = InMemoryBlockStore()
    naive = NaiveSecureStore.setup(naive_store, blocks)

    deleted = iter(range(1024))
    benchmark(lambda: tree.delete(next(deleted)))

    import time

    start = time.perf_counter()
    naive.delete(0)
    naive_seconds = time.perf_counter() - start
    tree_store.gets = 0
    start = time.perf_counter()
    tree.delete(1000)
    tree_seconds = time.perf_counter() - start
    gets = tree_store.gets
    emit(
        "secure_deletion_wallclock",
        "Wall-clock deletion at 1,024 blocks (this host, real code)",
        [
            f"naive: {naive_seconds * 1000:8.1f} ms",
            f"tree:  {tree_seconds * 1000:8.1f} ms   ({naive_seconds / tree_seconds:.0f}x)",
            f"store gets per tree delete: {gets}   (tree height {tree.height})",
        ],
        data={
            "metrics": {
                "naive_delete_s": naive_seconds,
                "tree_delete_s": tree_seconds,
                "speedup": naive_seconds / tree_seconds,
                "tree_height": tree.height,
                "gets_per_tree_delete": gets,
            }
        },
    )
    assert tree_seconds < naive_seconds
    # Exact: one authenticated walk down the path, no second fetch on the
    # way back up (it was 2 x height).
    assert gets == tree.height
