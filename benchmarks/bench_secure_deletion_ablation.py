"""§9.1 ablation: key-tree secure deletion vs whole-array re-encryption.

The paper: deleting one item from a 64 MB outsourced array by re-encrypting
the whole array takes 48 minutes on a SoloKey; the Di Crescenzo key tree
does it in logarithmic time, improving throughput ~4,423x (48 min / 4,423 =
0.65 s: the tree side is the whole decrypt-and-puncture, not one delete).

We reproduce the comparison two ways: (1) modeled at the full 64 MB scale on
the SoloKey cost model — the tree side is the planner's one price; the
paper's two numbers are rows of ``BENCH_paper_fidelity.json`` — and (2)
measured wall-clock on this host at a small scale with both real
implementations.
"""

import time

from repro.crypto.bloom import BloomParams
from repro.hsm.costmodel import CostModel
from repro.hsm.devices import SOLOKEY
from repro.sim.capacity import build_throughput_model
from repro.storage.blockstore import InMemoryBlockStore
from repro.storage.securedel import DeletedBlockError, NaiveSecureStore, SecureDeletionTree

from reporting import emit

MODEL = CostModel(SOLOKEY)
ARRAY_BYTES = 64 * 1024 * 1024


def modeled_naive_delete_seconds() -> float:
    """Read, decrypt, re-encrypt, write the whole 64 MB array."""
    blocks = ARRAY_BYTES / 16
    return MODEL.seconds(
        {"aes_block": 2 * blocks, "io_bytes": 2 * ARRAY_BYTES}
    )


def test_secure_deletion_ablation_modeled(benchmark):
    naive = benchmark(modeled_naive_delete_seconds)
    operation = build_throughput_model(SOLOKEY).decrypt_puncture_seconds
    emit(
        "secure_deletion_ablation",
        "Ablation: deleting from a 64 MB outsourced key (SoloKey model)",
        [
            f"naive re-encryption:          {naive / 60:8.1f} min",
            f"key-tree decrypt-and-puncture:{operation:8.3f} s",
            f"throughput gain:              {naive / operation:8,.0f}x",
        ],
        data={
            "metrics": {
                "naive_reencrypt_s": naive,
                "decrypt_puncture_s": operation,
                "throughput_gain": naive / operation,
            }
        },
    )
    assert operation < naive / 500


class _CountingStore(InMemoryBlockStore):
    """Counts the fetches and writes the tree asks of the provider."""

    gets = puts = 0

    def get(self, addr: int) -> bytes:
        self.gets += 1
        return super().get(addr)

    def put(self, addr: int, block: bytes) -> None:
        self.puts += 1
        super().put(addr, block)


PUNCTURE_SLOTS = 4  # the paper's k
PUNCTURE_TAGS = 24


def _delete_one_by_one(tree: SecureDeletionTree, slots) -> None:
    for slot in slots:
        try:
            tree.delete(slot)
        except DeletedBlockError:
            pass  # an earlier tag took it


def puncture_rows(height: int):
    """One puncture's k slot deletions, done as k single deletes and as one
    batched delete, on twin trees of ``2^height`` slots over the same tags.

    Returns ``(metrics, line)``; the batched walk's oracle calls are checked
    *exactly* against the union sizes computed from the addresses.
    """
    params = BloomParams(1 << height, PUNCTURE_SLOTS, PUNCTURE_TAGS, 4)
    blocks = [bytes(32)] * params.num_slots
    stores = {"single": _CountingStore(), "batched": _CountingStore()}
    trees = {name: SecureDeletionTree.setup(store, blocks) for name, store in stores.items()}
    for store in stores.values():
        store.gets = store.puts = 0
    seconds = {"single": 0.0, "batched": 0.0}
    union_nodes = live_union_nodes = 0
    deleted = set()
    for n in range(PUNCTURE_TAGS):
        slots = params.slots_for_tag(b"bench-tag-%d" % n)
        path = trees["batched"]._path_addrs
        union_nodes += len({a for slot in slots for a in path(slot)[:-1]})
        live_union_nodes += len({a for slot in slots if slot not in deleted for a in path(slot)[:-1]})
        deleted.update(slots)
        start = time.perf_counter()
        _delete_one_by_one(trees["single"], slots)
        seconds["single"] += time.perf_counter() - start
        start = time.perf_counter()
        trees["batched"].walk(slots).delete()
        seconds["batched"] += time.perf_counter() - start

    def per(total):
        return total / PUNCTURE_TAGS

    metrics = {
        f"union_nodes_h{height}": per(union_nodes),
        f"live_union_nodes_h{height}": per(live_union_nodes),
    }
    for prefix, name in (("", "batched"), ("single_", "single")):
        metrics[f"{prefix}gets_per_puncture_h{height}"] = per(stores[name].gets)
        metrics[f"{prefix}puts_per_puncture_h{height}"] = per(stores[name].puts)
        metrics[f"{prefix}ms_per_puncture_h{height}"] = per(seconds[name]) * 1e3
    line = (
        f"puncture k={PUNCTURE_SLOTS} h={height}: {PUNCTURE_SLOTS} single deletes"
        f" {per(stores['single'].gets):5.1f} gets {per(stores['single'].puts):5.1f} puts"
        f" {per(seconds['single']) * 1e3:5.2f} ms | one batched delete"
        f" {per(stores['batched'].gets):5.1f} gets {per(stores['batched'].puts):5.1f} puts"
        f" {per(seconds['batched']) * 1e3:5.2f} ms"
    )
    # Exact: the batched walk fetches each node of the union once and seals
    # each node of the live union once.
    assert stores["batched"].gets == union_nodes
    assert stores["batched"].puts == live_union_nodes
    assert stores["batched"].puts < stores["single"].puts
    return metrics, line


def test_secure_deletion_wallclock(benchmark):
    """Real wall-clock comparison at 1,024 blocks on this host."""
    blocks = [bytes(32)] * 1024

    tree_store = _CountingStore()
    tree = SecureDeletionTree.setup(tree_store, blocks)
    naive_store = InMemoryBlockStore()
    naive = NaiveSecureStore.setup(naive_store, blocks)

    deleted = iter(range(1024))
    benchmark(lambda: tree.delete(next(deleted)))

    start = time.perf_counter()
    naive.delete(0)
    naive_seconds = time.perf_counter() - start
    tree_store.gets = 0
    start = time.perf_counter()
    tree.delete(1000)
    tree_seconds = time.perf_counter() - start
    gets = tree_store.gets
    puncture_metrics, puncture_lines = {}, []
    for height in (8, 9):
        metrics, line = puncture_rows(height)
        puncture_metrics.update(metrics)
        puncture_lines.append(line)
    emit(
        "secure_deletion_wallclock",
        "Wall-clock deletion at 1,024 blocks (this host, real code)",
        [
            f"naive: {naive_seconds * 1000:8.1f} ms",
            f"tree:  {tree_seconds * 1000:8.1f} ms   ({naive_seconds / tree_seconds:.0f}x)",
            f"store gets per tree delete: {gets}   (tree height {tree.height})",
            *puncture_lines,
        ],
        data={
            "metrics": {
                "naive_delete_s": naive_seconds,
                "tree_delete_s": tree_seconds,
                "speedup": naive_seconds / tree_seconds,
                "tree_height": tree.height,
                "gets_per_tree_delete": gets,
                **puncture_metrics,
            }
        },
    )
    assert tree_seconds < naive_seconds
    # Exact: one authenticated walk down the path, no second fetch on the
    # way back up (it was 2 x height).
    assert gets == tree.height
