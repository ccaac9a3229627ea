"""Secure-deletion key tree (Appendix C): reads, deletion, tampering."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from reference_symmetric import reference_walk
from repro.chaos.entropy import DeterministicEntropy
from repro.crypto.gcm import AuthenticationError, ae_decrypt
from repro.metering import metered
from repro.storage.blockstore import InMemoryBlockStore, TamperingBlockStore
from repro.storage.securedel import (
    DeletedBlockError,
    NaiveSecureStore,
    SecureDeletionTree,
)


def make_tree(count=10, store=None):
    store = store if store is not None else InMemoryBlockStore()
    blocks = [bytes([i]) * 32 for i in range(count)]
    return SecureDeletionTree.setup(store, blocks), blocks, store


class TestReads:
    def test_all_blocks_readable(self):
        tree, blocks, _ = make_tree(10)
        for i, block in enumerate(blocks):
            assert tree.read(i) == block

    def test_non_power_of_two_count(self):
        tree, blocks, _ = make_tree(7)
        for i, block in enumerate(blocks):
            assert tree.read(i) == block

    def test_single_block(self):
        tree, blocks, _ = make_tree(1)
        assert tree.read(0) == blocks[0]

    def test_out_of_range(self):
        tree, _, _ = make_tree(4)
        with pytest.raises(IndexError):
            tree.read(99)

    def test_root_key_is_only_secret(self):
        tree, _, _ = make_tree(4)
        assert len(tree.root_key) == 16


class TestDeletion:
    def test_deleted_block_unreadable(self):
        tree, _, _ = make_tree(8)
        tree.delete(3)
        with pytest.raises(DeletedBlockError):
            tree.read(3)

    def test_neighbours_survive(self):
        tree, blocks, _ = make_tree(8)
        tree.delete(3)
        assert tree.read(2) == blocks[2]
        assert tree.read(4) == blocks[4]

    def test_double_delete_raises(self):
        tree, _, _ = make_tree(8)
        tree.delete(3)
        with pytest.raises(DeletedBlockError):
            tree.delete(3)

    def test_root_key_rotates_on_delete(self):
        tree, _, _ = make_tree(8)
        before = tree.root_key
        tree.delete(0)
        assert tree.root_key != before

    def test_delete_all(self):
        tree, blocks, _ = make_tree(4)
        for i in range(4):
            tree.delete(i)
        for i in range(4):
            with pytest.raises(DeletedBlockError):
                tree.read(i)


class TestSecureDeletionProperty:
    def test_full_rollback_cannot_resurrect(self):
        """The defining property: a provider that snapshots *every* block
        version ever written, then rolls all of them back after a deletion,
        still cannot make the (new) root key decrypt the deleted block."""
        store = TamperingBlockStore()
        blocks = [bytes([i]) * 32 for i in range(8)]
        tree = SecureDeletionTree.setup(store, blocks)
        tree.delete(5)
        for addr in list(store.history):
            store._blocks[addr] = store.history[addr][0]
        with pytest.raises((AuthenticationError, DeletedBlockError)):
            tree.read(5)

    def test_partial_replay_cannot_resurrect(self):
        store = TamperingBlockStore()
        blocks = [bytes([i]) * 32 for i in range(8)]
        tree = SecureDeletionTree.setup(store, blocks)
        tree.delete(2)
        # Replay only the path nodes the deletion rewrote.
        for addr in tree._path_addrs(2)[:-1]:
            if len(store.history[addr]) > 1:
                store.replay(addr, 0)
        with pytest.raises((AuthenticationError, DeletedBlockError)):
            tree.read(2)


class TestIntegrity:
    def test_corrupted_leaf_detected(self):
        store = TamperingBlockStore()
        tree, _, _ = make_tree(8, store)
        store.corrupt((1 << tree.height) + 3)
        with pytest.raises(AuthenticationError):
            tree.read(3)

    def test_corrupted_internal_node_detected(self):
        store = TamperingBlockStore()
        tree, _, _ = make_tree(8, store)
        store.corrupt(1)  # the root node
        with pytest.raises(AuthenticationError):
            tree.read(0)

    def test_swapped_blocks_detected(self):
        """Address binding: serving leaf j's ciphertext for leaf i fails."""
        store = TamperingBlockStore()
        tree, _, _ = make_tree(8, store)
        base = 1 << tree.height
        store.swap(base + 0, base + 1)
        with pytest.raises(AuthenticationError):
            tree.read(0)


class CountingBlockStore(InMemoryBlockStore):
    """Counts the oracle calls the tree makes."""

    def __init__(self):
        super().__init__()
        self.gets = self.puts = 0

    def get(self, addr):
        self.gets += 1
        return super().get(addr)

    def put(self, addr, block):
        self.puts += 1
        super().put(addr, block)


class TestOnePassDeletion:
    def test_delete_fetches_each_path_node_once(self):
        """One authenticated walk down, h puts back up: a delete costs h
        ``get``s (it cost 2h when the way up fetched and opened every node
        again) and a read is what it was, h + 1 ``get``s and no ``put``."""
        store = CountingBlockStore()
        tree, _, _ = make_tree(64, store)
        assert tree.height == 6
        for index in (0, 21, 63):
            store.gets = store.puts = 0
            tree.delete(index)
            assert (store.gets, store.puts) == (tree.height, tree.height)
        store.gets = store.puts = 0
        tree.read(22)
        assert (store.gets, store.puts) == (tree.height + 1, 0)

    @pytest.mark.parametrize("depth", [0, 2, 5])
    def test_tampering_aborts_the_delete_before_any_write(self, depth):
        """The walk down is the only open left, so it is the one that must
        catch a bad node — and it does so before the first put: root key
        and store are as they were, and the block is still readable once
        the provider serves the right bytes again."""
        store = TamperingBlockStore()
        tree, blocks, _ = make_tree(64, store)
        addr = tree._path_addrs(37)[depth]
        root_before, blocks_before = tree.root_key, dict(store._blocks)
        store.corrupt(addr)
        with pytest.raises(AuthenticationError):
            tree.delete(37)
        assert tree.root_key == root_before
        blocks_before[addr] = store._blocks[addr]  # only the tampering itself
        assert store._blocks == blocks_before
        store.corrupt(addr)  # flip the bit back
        assert tree.read(37) == blocks[37]

    def test_sibling_swap_aborts_the_delete_before_any_write(self):
        """Address binding on the way down: a sibling's (validly sealed)
        node served in place of the path's fails its tag."""
        store = TamperingBlockStore()
        tree, _, _ = make_tree(64, store)
        addr = tree._path_addrs(37)[3]
        store.swap(addr, addr ^ 1)
        root_before, blocks_before = tree.root_key, dict(store._blocks)
        with pytest.raises(AuthenticationError):
            tree.delete(37)
        assert tree.root_key == root_before
        assert store._blocks == blocks_before

    @pytest.mark.parametrize("depth", [0, 3, 6])
    def test_withheld_block_is_refused_like_a_bad_tag(self, depth):
        """A block the provider does not serve is a block that fails its
        tag: the same error, before any write (depth 6 is the leaf, which
        only a read fetches)."""
        store = TamperingBlockStore()
        tree, blocks, _ = make_tree(64, store)
        addr = tree._path_addrs(37)[depth]
        withheld = store._blocks.pop(addr)
        root_before, blocks_before = tree.root_key, dict(store._blocks)
        with pytest.raises(AuthenticationError):
            tree.read(37)
        if depth < tree.height:
            with pytest.raises(AuthenticationError):
                tree.delete(37)
        assert tree.root_key == root_before and store._blocks == blocks_before
        store._blocks[addr] = withheld
        assert tree.read(37) == blocks[37]

    def test_seeded_deletes_leave_the_parents_bytes_and_counts(self):
        """Same puts, same entropy draws in the same order, same modeled
        cost: captured by running this workload on the two-pass delete.
        The cost model still prices Appendix C's second fetch-and-open of
        every node (transport bytes and AES blocks) although the host no
        longer performs it."""
        with DeterministicEntropy(0x0DE1E7E):
            store = InMemoryBlockStore()
            tree = SecureDeletionTree.setup(store, [bytes([i]) * 32 for i in range(64)])
            with metered() as meter:
                for index in range(0, 64, 4):
                    tree.delete(index)
        assert dict(meter.counts) == {
            "aes_block": 1152,  # 16 deletes x 6 nodes x 3 AE calls x 4 blocks
            "flash_read_bytes": 1536,
            "io_bytes": 17280,  # 16 x 6 x 3 transfers x 60-byte nodes
        }
        digest = hashlib.sha256()
        for addr in sorted(store._blocks):
            digest.update(addr.to_bytes(8, "big") + store._blocks[addr])
        assert digest.hexdigest() == (
            "aa86d409c9f2c99e5018a86b14e6cb1e9b21f664119a10a3fe606a4e3b3c5f7f"
        )
        assert tree.root_key.hex() == "d43804d2f6b3a65c1570fd9b257ae6ca"


def _union(tree, indices):
    """Internal nodes on the union of the indices' root-to-leaf paths."""
    return {addr for index in indices for addr in tree._path_addrs(index)[:-1]}


def _readable(tree, count):
    """Which of the first ``count`` blocks still read (and what they hold)."""
    out = {}
    for i in range(count):
        try:
            out[i] = tree.read(i)
        except DeletedBlockError:
            pass
    return out


class TestBatchedWalk:
    """The multi-path walk: ``read`` and ``delete`` are its one-index case,
    a puncture's k slots are its k-index case."""

    def test_oracle_calls_are_the_union_and_the_live_union(self):
        store = CountingBlockStore()
        tree, blocks, _ = make_tree(64, store)
        tree.delete(21)
        indices = [20, 21, 23, 40]  # 21 is already gone; 20..23 share 4 levels
        live = [20, 23, 40]
        root_before = tree.root_key
        store.gets = store.puts = 0
        walk = tree.walk(indices)
        assert (store.gets, store.puts) == (len(_union(tree, indices)), 0)
        assert walk.read(23) == blocks[23]
        assert store.gets == len(_union(tree, indices)) + 1  # + the leaf
        with pytest.raises(DeletedBlockError):
            walk.read(21)
        store.gets = 0
        assert walk.delete() == len(live)
        assert (store.gets, store.puts) == (0, len(_union(tree, live)))
        assert len(_union(tree, live)) < len(live) * tree.height
        assert tree.root_key != root_before
        assert set(_readable(tree, 64)) == set(range(64)) - set(indices)

    def test_all_already_deleted_writes_nothing(self):
        store = CountingBlockStore()
        tree, _, _ = make_tree(16, store)
        for index in (3, 9):
            tree.delete(index)
        root_before, blocks_before = tree.root_key, dict(store._blocks)
        store.gets = store.puts = 0
        assert tree.walk([3, 9, 3]).delete() == 0
        assert (store.gets, store.puts) == (len(_union(tree, [3, 9])), 0)
        assert tree.root_key == root_before and store._blocks == blocks_before

    def test_out_of_range_raises_before_any_oracle_call(self):
        store = CountingBlockStore()
        tree, _, _ = make_tree(16, store)
        store.gets = store.puts = 0
        for indices in ([2, 16], [-1], [5, 99, 6]):
            with pytest.raises(IndexError):
                tree.walk(indices)
        with pytest.raises(IndexError):
            tree.delete(16)
        assert (store.gets, store.puts) == (0, 0)

    def test_duplicates_delete_once(self):
        store = CountingBlockStore()
        tree, _, _ = make_tree(16, store)
        store.puts = 0
        assert tree.walk([7, 7, 7]).delete() == 1
        assert store.puts == tree.height

    @pytest.mark.parametrize("victim", [40, 23])
    def test_tampering_anywhere_on_the_union_aborts_before_any_write(self, victim):
        """A bad node on the *last* index's path (below where it leaves the
        others) is seen by the walk down, before the first index is read or
        anything is re-keyed."""
        store = TamperingBlockStore()
        tree, blocks, _ = make_tree(64, store)
        addr = tree._path_addrs(victim)[-2]  # the leaf's parent
        root_before, blocks_before = tree.root_key, dict(store._blocks)
        store.corrupt(addr)
        with pytest.raises(AuthenticationError):
            tree.walk([20, 23, 40])
        blocks_before[addr] = store._blocks[addr]
        assert tree.root_key == root_before and store._blocks == blocks_before
        store.corrupt(addr)
        assert tree.read(20) == blocks[20]

    def test_model_is_charged_one_index_at_a_time(self):
        """Appendix C's device does not batch: a k-index delete reports what
        k single deletes report (and a walk that reads first, what the read
        plus the deletes report), although the host opened and sealed only
        the union."""
        indices = [20, 21, 23, 40, 21]
        single, _, _ = make_tree(64)
        with metered() as one_by_one:
            single.read(23)
            for index in indices:
                try:
                    single.delete(index)
                except DeletedBlockError:
                    pass
        batched, _, _ = make_tree(64)
        with metered() as one_walk:
            walk = batched.walk(indices)
            walk.read(23)
            walk.delete()
        assert dict(one_walk.counts) == dict(one_by_one.counts)


class TestWalkAtEveryFailurePoint:
    """The walk down opens a tree level per cipher call, but the modeled
    device opens a node at a time.  Against ``reference_walk`` — the
    node-at-a-time walk it replaced — every refusal must come at the same
    point of the bill: k = 4 walks, four nodes wide from the second level
    down, each union node tampered with and then withheld in turn."""

    @staticmethod
    def _outcome(walk, tree, store, indices):
        """(payloads or the exception type, the meter, puts made)."""
        puts = sum(len(versions) for versions in store.history.values())
        with metered() as meter:
            try:
                outcome = walk(tree, indices)
            except Exception as exc:  # compared by type below
                outcome = type(exc)
        return outcome, dict(meter.counts), sum(len(v) for v in store.history.values()) - puts

    @staticmethod
    def _level_batched(tree, indices):
        return tree.walk(indices)._payloads

    @pytest.mark.parametrize("height, indices", [(7, [5, 40, 70, 120]), (9, [5, 150, 300, 480])])
    def test_refused_anywhere_as_the_node_at_a_time_walk(self, height, indices):
        store = TamperingBlockStore()
        tree = SecureDeletionTree.setup(store, [bytes([i % 256]) * 32 for i in range(1 << height)])
        union = sorted(_union(tree, indices))
        assert max(sum(1 for a in union if a.bit_length() == d) for d in range(1, height + 1)) == 4

        def both():
            new = self._outcome(self._level_batched, tree, store, indices)
            return new, self._outcome(reference_walk, tree, store, indices)

        new, ref = both()
        assert new == ref and isinstance(new[0], dict) and sorted(new[0]) == union
        for addr in union:
            store.corrupt(addr)
            new, ref = both()
            store.corrupt(addr)  # flip the bit back
            assert new == ref and new[0] is AuthenticationError and new[2] == 0, addr
            withheld = store._blocks.pop(addr)
            new, ref = both()
            store._blocks[addr] = withheld
            assert new == ref and new[0] is AuthenticationError and new[2] == 0, addr


class TestBatchForwardSecrecy:
    """``TestSecureDeletionProperty`` for a batch: neither the old root key
    over the new store nor the new root key over the old store opens any
    deleted leaf."""

    INDICES = [5, 6, 12, 13]

    def _deleted_tree(self):
        store = TamperingBlockStore()
        tree = SecureDeletionTree.setup(store, [bytes([i]) * 32 for i in range(16)])
        old_root, old_blocks = tree.root_key, dict(store._blocks)
        assert tree.walk(self.INDICES).delete() == len(self.INDICES)
        return tree, store, old_root, old_blocks

    def test_old_root_key_over_the_new_store(self):
        tree, store, old_root, _ = self._deleted_tree()
        stale = SecureDeletionTree(store, tree.height, old_root)
        for index in self.INDICES:
            with pytest.raises(AuthenticationError):
                stale.read(index)

    def test_new_root_key_over_the_old_store(self):
        tree, store, _, old_blocks = self._deleted_tree()
        store._blocks = dict(old_blocks)
        for index in self.INDICES:
            with pytest.raises(AuthenticationError):
                tree.read(index)

    def test_new_root_key_over_any_mix_of_versions(self):
        """Replaying any subset of the rewritten nodes never resurrects a
        deleted leaf (every version of every node is in the history)."""
        tree, store, _, _ = self._deleted_tree()
        rewritten = sorted(addr for addr, versions in store.history.items() if len(versions) > 1)
        assert rewritten == sorted(_union(tree, self.INDICES))
        for mask in range(1, 1 << len(rewritten)):
            for bit, addr in enumerate(rewritten):
                store._blocks[addr] = store.history[addr][0 if mask >> bit & 1 else -1]
            for index in self.INDICES:
                with pytest.raises((AuthenticationError, DeletedBlockError)):
                    tree.read(index)

    def test_each_rekeyed_node_gets_one_fresh_key(self):
        """Every node on the union is sealed exactly once, under a key that
        is new, distinct per node, and written nowhere but in its parent."""
        tree, store, _, old_blocks = self._deleted_tree()
        union = _union(tree, self.INDICES)
        assert all(len(store.history[addr]) == 2 for addr in union)
        keys = {1: tree.root_key}
        for addr in sorted(union):
            payload = ae_decrypt(keys[addr], store.get(addr), aad=b"securedel-node" + addr.to_bytes(8, "big"))
            keys[2 * addr], keys[2 * addr + 1] = payload[:16], payload[16:]
        fresh = [keys[addr] for addr in union]
        assert len(set(fresh)) == len(fresh)
        everything_stored = b"".join(old_blocks.values()) + b"".join(store._blocks.values())
        for key in fresh:
            assert key not in everything_stored


class TestNaiveStore:
    def test_roundtrip_and_delete(self):
        store = InMemoryBlockStore()
        blocks = [bytes([i]) * 16 for i in range(1, 6)]
        naive = NaiveSecureStore.setup(store, blocks)
        assert naive.read(2) == blocks[2]
        naive.delete(2)
        with pytest.raises(DeletedBlockError):
            naive.read(2)
        assert naive.read(3) == blocks[3]

    def test_key_rotates_on_delete(self):
        store = InMemoryBlockStore()
        naive = NaiveSecureStore.setup(store, [b"A" * 16, b"B" * 16])
        before = naive._key
        naive.delete(0)
        assert naive._key != before

    def test_unequal_blocks_rejected(self):
        with pytest.raises(ValueError):
            NaiveSecureStore.setup(InMemoryBlockStore(), [b"a", b"bb"])

    def test_out_of_range(self):
        naive = NaiveSecureStore.setup(InMemoryBlockStore(), [b"A" * 16])
        with pytest.raises(IndexError):
            naive.read(5)


@given(
    count=st.integers(1, 20),
    deletions=st.lists(st.integers(0, 19), max_size=8, unique=True),
)
@settings(max_examples=20, deadline=None)
def test_delete_read_consistency_property(count, deletions):
    """After any sequence of deletions, exactly the deleted indices fail."""
    tree, blocks, _ = make_tree(count)
    deleted = set()
    for index in deletions:
        if index >= count:
            continue
        tree.delete(index)
        deleted.add(index)
    for i in range(count):
        if i in deleted:
            with pytest.raises(DeletedBlockError):
                tree.read(i)
        else:
            assert tree.read(i) == blocks[i]


@given(
    count=st.integers(2, 40),
    pre=st.lists(st.integers(0, 39), max_size=6),
    batch=st.lists(st.integers(0, 39), max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_batched_delete_equals_one_by_one_property(count, pre, batch):
    """One batched delete leaves exactly the readable / deleted sets the
    same deletes done one at a time leave (duplicates and already-deleted
    indices included), reports the same op counts, and touches the store
    |union| + |union of live paths| times."""
    pre = [i for i in pre if i < count]
    batch = [i for i in batch if i < count]
    store = CountingBlockStore()
    batched, blocks, _ = make_tree(count, store)
    single, _, _ = make_tree(count)
    for tree in (batched, single):
        for index in set(pre):
            tree.delete(index)

    live = set(batch) - set(pre)
    root_before = batched.root_key
    store.gets = store.puts = 0
    with metered() as one_walk:
        assert batched.walk(batch).delete() == len(live)
    assert store.gets == len(_union(batched, batch))
    assert store.puts == len(_union(batched, live))
    assert (batched.root_key == root_before) == (not live)

    with metered() as one_by_one:
        for index in batch:
            try:
                single.delete(index)
            except DeletedBlockError:
                pass
    assert dict(one_walk.counts) == dict(one_by_one.counts)

    expected = {i: blocks[i] for i in range(count) if i not in set(pre) | set(batch)}
    assert _readable(batched, count) == expected == _readable(single, count)
