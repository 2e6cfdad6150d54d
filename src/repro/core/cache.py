"""Image and latent caches.

The MoDM cache stores *final images* plus their CLIP image embeddings — a
model-agnostic representation retrievable by any model family (§3.1, §5.5).
Maintenance is a FIFO sliding window by default (§5.4); alternative
policies (LRU, utility-based) are available through the eviction-policy
registry, including the Nirvana-style utility eviction the paper argues
against.

Retrieval is one masked matrix-vector product followed by an ``argmax`` —
O(n) with vectorized constants — instead of a full O(n log n) sort, which
is what lets the scan stay at the paper's 0.05 s / 100k-entry budget as
occupancy grows (§5.2).  Eviction bookkeeping is O(1) amortized (FIFO/LRU)
or O(log n) (utility heap) via lazy tombstones, never an O(n) list scan.

Past that budget — million-entry caches — even the exact O(n) scan is the
bottleneck, so retrieval is pluggable: ``backend="ivf"`` puts an
IVF-partitioned approximate index (:mod:`repro.core.ann`) behind the same
``retrieve``/``retrieve_topk``/``retrieve_batch`` surface, scanning only
the ``nprobe`` nearest coarse cells per query with an exact re-rank over
the gathered candidates.  The default ``"exact"`` backend leaves every
scan path byte-identical to the pre-index implementation.

:class:`LatentCache` models what Nirvana stores instead: per-image stacks of
intermediate latents that are heavier (~2.5 MB vs ~1.4 MB) and only usable
by the model that produced them.
"""

from __future__ import annotations

import collections
import heapq
import math
from dataclasses import dataclass
from typing import (
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

import numpy as np

from repro.core.ann import IVFIndex, IVFParams, IVFState, RETRIEVAL_BACKENDS
from repro.core.journal import SnapCounter
from repro.diffusion.latent import CachedLatent, SyntheticImage

#: Measured retrieval latency: 0.05 s against 100k cached embeddings (§5.2),
#: scaling linearly with occupancy.
RETRIEVAL_SECONDS_PER_ENTRY = 0.05 / 100_000

PayloadT = TypeVar("PayloadT")


@dataclass
class CacheEntry(Generic[PayloadT]):
    """A cached payload with its retrieval embedding and usage stats."""

    entry_id: int
    payload: PayloadT
    embedding: np.ndarray
    inserted_at: float
    hits: int = 0
    last_hit_at: float = float("-inf")

    @property
    def image(self) -> PayloadT:
        """Alias for image caches, where the payload is the image."""
        return self.payload


# ----------------------------------------------------------------------
# Eviction policies
# ----------------------------------------------------------------------
class EvictionPolicy:
    """Decides which slot a full cache vacates next.

    Implementations keep their own bookkeeping keyed by ``(entry_id, slot)``
    and invalidate lazily: stale references (evicted or replaced entries)
    are detected on access by comparing against the live entry table, so no
    operation ever scans or removes from the middle of a container.
    """

    name = "base"

    def on_insert(self, slot: int, entry: CacheEntry) -> None:
        """Record a freshly inserted entry."""

    def on_hit(self, slot: int, entry: CacheEntry) -> None:
        """Record a confirmed cache hit against a live entry."""

    def on_evict(self, slot: int, entry: CacheEntry) -> None:
        """Forget an entry the cache just removed."""

    def victim(
        self, entries: Sequence[Optional[CacheEntry]]
    ) -> int:
        """Slot to evict next; ``entries`` is the live slot table."""
        raise NotImplementedError

    def state(self):
        """Opaque bookkeeping snapshot (None for stateless policies)."""
        return None

    def restore_state(self, state) -> None:
        """Adopt a bookkeeping snapshot produced by :meth:`state`."""
        assert state is None


#: Registry of eviction policies selectable by name (``config.cache_policy``).
EVICTION_POLICIES: Dict[str, Type[EvictionPolicy]] = {}


def register_eviction_policy(name: str):
    """Class decorator adding an :class:`EvictionPolicy` to the registry."""

    def decorate(cls: Type[EvictionPolicy]) -> Type[EvictionPolicy]:
        cls.name = name
        EVICTION_POLICIES[name] = cls
        return cls

    return decorate


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Instantiate a registered policy; raises on unknown names."""
    try:
        cls = EVICTION_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{tuple(sorted(EVICTION_POLICIES))}"
        ) from None
    return cls()


def _is_stale(
    entries: Sequence[Optional[CacheEntry]], entry_id: int, slot: int
) -> bool:
    entry = entries[slot]
    return entry is None or entry.entry_id != entry_id


@register_eviction_policy("fifo")
class FifoEviction(EvictionPolicy):
    """Sliding window (§5.4): evict the oldest insertion.

    A :class:`collections.deque` of ``(entry_id, slot)`` pairs, oldest at
    the left.  Stale pairs (slots since reused) are lazy tombstones popped
    on the way to the next victim — every operation is O(1) amortized.
    """

    def __init__(self) -> None:
        self._queue: collections.deque = collections.deque()

    def on_insert(self, slot: int, entry: CacheEntry) -> None:
        self._queue.append((entry.entry_id, slot))

    def victim(self, entries: Sequence[Optional[CacheEntry]]) -> int:
        while self._queue:
            entry_id, slot = self._queue[0]
            if _is_stale(entries, entry_id, slot):
                self._queue.popleft()
                continue
            return slot
        raise RuntimeError("fifo policy asked for a victim on empty cache")

    def state(self):
        return list(self._queue)

    def restore_state(self, state) -> None:
        self._queue = collections.deque(state)


@register_eviction_policy("lru")
class LruEviction(EvictionPolicy):
    """Evict the least recently *used* entry (hit or insert).

    An ``OrderedDict`` keyed by slot, most recent at the right; hits
    ``move_to_end`` in O(1).
    """

    def __init__(self) -> None:
        self._order: "collections.OrderedDict[int, int]" = (
            collections.OrderedDict()
        )

    def on_insert(self, slot: int, entry: CacheEntry) -> None:
        self._order[slot] = entry.entry_id
        self._order.move_to_end(slot)

    def on_hit(self, slot: int, entry: CacheEntry) -> None:
        if self._order.get(slot) == entry.entry_id:
            self._order.move_to_end(slot)

    def on_evict(self, slot: int, entry: CacheEntry) -> None:
        self._order.pop(slot, None)

    def victim(self, entries: Sequence[Optional[CacheEntry]]) -> int:
        for slot, entry_id in self._order.items():
            if not _is_stale(entries, entry_id, slot):
                return slot
        raise RuntimeError("lru policy asked for a victim on empty cache")

    def state(self):
        return list(self._order.items())

    def restore_state(self, state) -> None:
        self._order = collections.OrderedDict(state)


@register_eviction_policy("utility")
class UtilityEviction(EvictionPolicy):
    """Evict the entry with the fewest hits, oldest breaking ties.

    The Nirvana-style alternative §5.4 ablates.  A min-heap of
    ``(hits, entry_id, slot)`` keys; every hit pushes an updated key and
    the outdated one becomes a lazy tombstone, so eviction is O(log n)
    amortized instead of an O(n) scan.  ``_current`` holds each slot's
    authoritative key; whenever stale keys outnumber live ones the heap
    is compacted, bounding it at O(live entries) even on hit-heavy runs
    with rare evictions.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int]] = []
        self._current: Dict[int, Tuple[int, int]] = {}

    def _push(self, slot: int, entry: CacheEntry) -> None:
        self._current[slot] = (entry.hits, entry.entry_id)
        heapq.heappush(self._heap, (entry.hits, entry.entry_id, slot))
        if len(self._heap) > 2 * len(self._current) + 16:
            self._heap = [
                (hits, entry_id, s)
                for s, (hits, entry_id) in self._current.items()
            ]
            heapq.heapify(self._heap)

    def on_insert(self, slot: int, entry: CacheEntry) -> None:
        self._push(slot, entry)

    def on_hit(self, slot: int, entry: CacheEntry) -> None:
        self._push(slot, entry)

    def on_evict(self, slot: int, entry: CacheEntry) -> None:
        self._current.pop(slot, None)

    def victim(self, entries: Sequence[Optional[CacheEntry]]) -> int:
        while self._heap:
            hits, entry_id, slot = self._heap[0]
            if self._current.get(slot) != (hits, entry_id):
                heapq.heappop(self._heap)
                continue
            return slot
        raise RuntimeError(
            "utility policy asked for a victim on empty cache"
        )

    def state(self):
        return (list(self._heap), dict(self._current))

    def restore_state(self, state) -> None:
        heap, current = state
        self._heap = list(heap)
        self._current = dict(current)


# ----------------------------------------------------------------------
# Vector cache
# ----------------------------------------------------------------------
class VectorCache(Generic[PayloadT]):
    """Fixed-capacity cache with cosine-similarity retrieval.

    Embeddings live in a preallocated matrix so retrieval is one matrix-
    vector product — mirroring the paper's GPU-resident embedding store
    (100k embeddings fit in 0.29 GB; retrieval takes 0.05 s).  The best
    match is a masked ``argmax`` over live slots, O(n) instead of the
    O(n log n) full sort.

    ``policy`` selects eviction from :data:`EVICTION_POLICIES`:
    ``"fifo"`` implements the sliding window of §5.4, ``"lru"`` evicts the
    least recently used entry, and ``"utility"`` evicts the entry with the
    fewest hits (oldest breaking ties), the Nirvana-style alternative §5.4
    ablates.
    """

    def __init__(
        self,
        capacity: int,
        embed_dim: int,
        policy: str = "fifo",
        backend: str = "exact",
        ann: Optional[IVFParams] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if backend not in RETRIEVAL_BACKENDS:
            raise ValueError(
                f"unknown retrieval backend {backend!r}; "
                f"available: {list(RETRIEVAL_BACKENDS)}"
            )
        self._capacity = capacity
        self._embed_dim = embed_dim
        self._policy_name = policy
        self._backend = backend
        self._policy = make_eviction_policy(policy)
        # snap: derived (both buffers rebuilt from entries on restore)
        self._matrix = np.zeros((capacity, embed_dim))
        self._live = np.zeros(capacity, dtype=bool)  # snap: derived
        # IVF index over the (fixed) matrix/live buffers; None on the
        # exact backend, which keeps the pre-index scan path untouched.
        self._index: Optional[IVFIndex] = (
            IVFIndex(self._matrix, self._live, ann or IVFParams())
            if backend == "ivf"
            else None
        )
        # Running sum of live embeddings — an O(d) centroid sketch the
        # cluster router's cache-affinity policy reads on every arrival.
        self._embedding_sum = np.zeros(embed_dim)
        self._entries: List[Optional[CacheEntry[PayloadT]]] = (
            [None] * capacity
        )
        self._free_slots: List[int] = list(range(capacity - 1, -1, -1))
        # snap: derived (entry_id -> slot, rebuilt on restore)
        self._slot_of: Dict[int, int] = {}
        # SnapCounter, not itertools.count: entry ids key staleness
        # checks and must survive snapshot/restore exactly.
        self._ids = SnapCounter()
        self.last_inserted: Optional[CacheEntry[PayloadT]] = None
        self.insertions = 0
        self.evictions = 0
        self.lookups = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy_name

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def index(self) -> Optional[IVFIndex]:
        """The IVF index (``None`` on the exact backend)."""
        return self._index

    def __len__(self) -> int:
        return self._capacity - len(self._free_slots)

    def entries(self) -> List[CacheEntry[PayloadT]]:
        """Live entries, oldest first."""
        ordered = sorted(
            (e for e in self._entries if e is not None),
            key=lambda e: e.entry_id,
        )
        return ordered

    def storage_bytes(self) -> int:
        """Total payload storage (uses each payload's ``size_bytes``)."""
        return sum(
            getattr(e.payload, "size_bytes", 0)
            for e in self._entries
            if e is not None
        )

    def scan_entries(self) -> int:
        """Modelled entries touched per query (sublinear once IVF trains)."""
        n = len(self)
        if self._index is not None and self._index.trained:
            return self._index.scan_entries(n)
        return n

    def retrieval_latency_s(self) -> float:
        """Scheduler-side latency of one similarity scan at current size."""
        return self.scan_entries() * RETRIEVAL_SECONDS_PER_ENTRY

    def coarse_centroids(self) -> Optional[np.ndarray]:
        """Semantic sketch of the contents, one centroid per row.

        With a trained IVF index this is the per-cell running means —
        the multi-centroid sketch cache-affinity routing scores against;
        otherwise it degrades to the single running-mean
        :meth:`centroid` as a 1-row matrix.  ``None`` when empty.
        """
        if self._index is not None:
            coarse = self._index.coarse_centroids()
            if coarse is not None:
                return coarse
        single = self.centroid()
        if single is None:
            return None
        return single[None, :]

    def centroid(self) -> Optional[np.ndarray]:
        """Mean of the live embeddings, or None when the cache is empty.

        Maintained as a running sum (O(d) per insert/evict, never a
        matrix scan), so the cluster router can read a semantic sketch of
        this cache's contents on every arrival.  The running sum drifts
        from the exact column mean by float-accumulation error only,
        which is irrelevant at routing granularity.
        """
        n = len(self)
        if n == 0:
            return None
        return self._embedding_sum / n

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        payload: PayloadT,
        embedding: np.ndarray,
        now: float,
    ) -> Optional[CacheEntry[PayloadT]]:
        """Insert a payload; returns the evicted entry, if any."""
        if embedding.shape != (self._embed_dim,):
            raise ValueError(
                f"embedding must have shape ({self._embed_dim},), "
                f"got {embedding.shape}"
            )
        evicted: Optional[CacheEntry[PayloadT]] = None
        if not self._free_slots:
            evicted = self._evict()
        slot = self._free_slots.pop()
        entry = CacheEntry(
            entry_id=next(self._ids),
            payload=payload,
            embedding=np.asarray(embedding, dtype=float),
            inserted_at=now,
        )
        self._entries[slot] = entry
        self._matrix[slot] = entry.embedding
        self._live[slot] = True
        self._embedding_sum += entry.embedding
        if self._index is not None:
            self._index.add(slot, entry.embedding)
        self._slot_of[entry.entry_id] = slot
        self._policy.on_insert(slot, entry)
        self.last_inserted = entry
        self.insertions += 1
        return evicted

    def _evict(self) -> CacheEntry[PayloadT]:
        slot = self._policy.victim(self._entries)
        entry = self._entries[slot]
        assert entry is not None
        if self._index is not None:
            self._index.remove(slot, entry.embedding)
        self._entries[slot] = None
        self._matrix[slot] = 0.0
        self._live[slot] = False
        self._embedding_sum -= entry.embedding
        self._slot_of.pop(entry.entry_id, None)
        self._free_slots.append(slot)
        self._policy.on_evict(slot, entry)
        self.evictions += 1
        return entry

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def retrieve(
        self, query: np.ndarray
    ) -> Tuple[Optional[CacheEntry[PayloadT]], float]:
        """Most-similar entry and its cosine similarity (Eq. 1).

        Returns ``(None, 0.0)`` on an empty cache.  Does not count a hit —
        the scheduler decides hit/miss after thresholding and then calls
        :meth:`record_hit`.
        """
        self._check_query(query)
        self.lookups += 1
        if len(self) == 0:
            return None, 0.0
        # sqrt(dot) is exactly what np.linalg.norm computes for 1-D floats,
        # without the linalg dispatch overhead (hot path: one call per
        # scheduler decision).
        qnorm = math.sqrt(float(np.dot(query, query)))
        if qnorm == 0.0:
            return None, 0.0
        if self._index is not None and self._index.ready(len(self)):
            found = self._index.search(query / qnorm)
            if found is not None:
                slot, sim = found
                entry = self._entries[slot]
                assert entry is not None
                return entry, sim
            # Every probed cell empty/tombstoned: exact fallback below.
        sims = self._matrix @ (query / qnorm)
        # Mask dead slots (zero rows, sim exactly 0.0) so they can never
        # shadow a live entry with a negative similarity.  A full cache —
        # the steady state — has no dead slots and skips the masking pass.
        if self._free_slots:
            slot = int(np.argmax(np.where(self._live, sims, -np.inf)))
        else:
            slot = int(np.argmax(sims))
        entry = self._entries[slot]
        assert entry is not None
        return entry, float(sims[slot])

    def retrieve_topk(
        self, query: np.ndarray, k: int
    ) -> List[Tuple[CacheEntry[PayloadT], float]]:
        """The ``k`` most-similar live entries, best first.

        Uses ``argpartition`` — O(n + k log k), not a full sort.  Returns
        fewer than ``k`` pairs when occupancy is below ``k`` — or, on
        the IVF backend, when the probed cells hold fewer than ``k``
        live entries (entries outside the probe set are invisible to
        an approximate lookup).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        self._check_query(query)
        self.lookups += 1
        n_live = len(self)
        if n_live == 0:
            return []
        qnorm = math.sqrt(float(np.dot(query, query)))
        if qnorm == 0.0:
            return []
        if self._index is not None and self._index.ready(n_live):
            found = self._index.search_topk(query / qnorm, k)
            if found:
                out = []
                for slot, sim in found:
                    entry = self._entries[slot]
                    assert entry is not None
                    out.append((entry, sim))
                return out
            # Every probed cell empty/tombstoned: exact fallback below.
        sims = self._matrix @ (query / qnorm)
        masked = (
            np.where(self._live, sims, -np.inf)
            if self._free_slots
            else sims
        )
        k_eff = min(k, n_live)
        if k_eff < masked.shape[0]:
            top = np.argpartition(masked, -k_eff)[-k_eff:]
        else:
            top = np.arange(masked.shape[0])
        top = top[np.argsort(masked[top])[::-1]][:k_eff]
        out: List[Tuple[CacheEntry[PayloadT], float]] = []
        for slot in top:
            entry = self._entries[int(slot)]
            if entry is not None:
                out.append((entry, float(sims[int(slot)])))
        return out

    def retrieve_batch(
        self, queries: np.ndarray
    ) -> List[Tuple[Optional[CacheEntry[PayloadT]], float]]:
        """Best match per row of ``queries`` via one matrix-matrix product.

        The batched path the Request Scheduler uses for same-tick arrivals;
        a single-row batch takes the exact matrix-vector path of
        :meth:`retrieve` so singleton batches are bit-for-bit identical to
        sequential calls.
        """
        if queries.ndim != 2 or queries.shape[1] != self._embed_dim:
            raise ValueError(
                f"queries must have shape (n, {self._embed_dim}), "
                f"got {queries.shape}"
            )
        n = queries.shape[0]
        if n == 1:
            return [self.retrieve(queries[0])]
        if (
            self._index is not None
            and len(self)
            and self._index.ready(len(self))
        ):
            # Per-row IVF searches: candidate gathering is inherently
            # per-query, and routing every row through the single-query
            # path keeps batched results bit-identical to sequential
            # calls (each row still pays only the probed cells, so the
            # batch stays sublinear in cache size).
            return [self.retrieve(queries[i]) for i in range(n)]
        self.lookups += n
        empty: Tuple[Optional[CacheEntry[PayloadT]], float] = (None, 0.0)
        if len(self) == 0:
            return [empty] * n
        norms = np.linalg.norm(queries, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        sims = (queries / safe[:, None]) @ self._matrix.T
        if self._free_slots:
            best = np.argmax(
                np.where(self._live[None, :], sims, -np.inf), axis=1
            )
        else:
            best = np.argmax(sims, axis=1)
        out: List[Tuple[Optional[CacheEntry[PayloadT]], float]] = []
        for i in range(n):
            if norms[i] == 0.0:
                out.append(empty)
                continue
            slot = int(best[i])
            entry = self._entries[slot]
            assert entry is not None
            out.append((entry, float(sims[i, slot])))
        return out

    def record_hit(self, entry: CacheEntry[PayloadT], now: float) -> None:
        """Count a confirmed cache hit against ``entry``."""
        entry.hits += 1
        entry.last_hit_at = now
        slot = self._slot_of.get(entry.entry_id)
        if slot is not None:
            self._policy.on_hit(slot, entry)

    def _check_query(self, query: np.ndarray) -> None:
        if query.shape != (self._embed_dim,):
            raise ValueError(
                f"query must have shape ({self._embed_dim},), "
                f"got {query.shape}"
            )

    # ------------------------------------------------------------------
    # Snapshot / restore / clear (fault-tolerance surface)
    # ------------------------------------------------------------------
    def snapshot(self) -> "VectorCacheState":
        """Copy of the full cache state, IVF index included.

        Payloads and embeddings are shared by reference (immutable once
        cached); the mutable per-entry stats (``hits``/``last_hit_at``)
        are copied as scalars, so the snapshot is unaffected by later
        hits against the live cache.  Side-effect-free.
        """
        entries = [
            (
                slot,
                e.entry_id,
                e.payload,
                e.embedding,
                e.inserted_at,
                e.hits,
                e.last_hit_at,
            )
            for slot, e in enumerate(self._entries)
            if e is not None
        ]
        return VectorCacheState(
            capacity=self._capacity,
            embed_dim=self._embed_dim,
            policy_name=self._policy_name,
            backend=self._backend,
            entries=entries,
            free_slots=list(self._free_slots),
            embedding_sum=self._embedding_sum.copy(),
            policy_state=self._policy.state(),
            last_inserted_id=(
                None
                if self.last_inserted is None
                else self.last_inserted.entry_id
            ),
            ids_value=self._ids.value,
            insertions=self.insertions,
            evictions=self.evictions,
            lookups=self.lookups,
            index_state=(
                None
                if self._index is None
                else self._index.snapshot_state()
            ),
        )

    def restore(self, state: "VectorCacheState") -> None:
        """Adopt a snapshot in place.

        In place matters: the IVF index holds references to this
        cache's ``_matrix``/``_live`` buffers, so restore writes into
        them instead of reallocating.
        """
        if (
            state.capacity != self._capacity
            or state.embed_dim != self._embed_dim
            or state.policy_name != self._policy_name
            or state.backend != self._backend
        ):
            raise ValueError(
                "cache snapshot shape mismatch: snapshot is "
                f"(capacity={state.capacity}, dim={state.embed_dim}, "
                f"policy={state.policy_name!r}, "
                f"backend={state.backend!r}); cache is "
                f"(capacity={self._capacity}, dim={self._embed_dim}, "
                f"policy={self._policy_name!r}, "
                f"backend={self._backend!r})"
            )
        self._entries = [None] * self._capacity
        self._matrix[:] = 0.0
        self._live[:] = False
        self._slot_of = {}
        by_id: Dict[int, CacheEntry[PayloadT]] = {}
        for (
            slot,
            entry_id,
            payload,
            embedding,
            inserted_at,
            hits,
            last_hit_at,
        ) in state.entries:
            entry = CacheEntry(
                entry_id=entry_id,
                payload=payload,
                embedding=embedding,
                inserted_at=inserted_at,
                hits=hits,
                last_hit_at=last_hit_at,
            )
            self._entries[slot] = entry
            self._matrix[slot] = embedding
            self._live[slot] = True
            self._slot_of[entry_id] = slot
            by_id[entry_id] = entry
        self._free_slots = list(state.free_slots)
        # The running sum is order-dependent float accumulation — it
        # cannot be recomputed from the entries without drifting from
        # the live cache by rounding, so the captured copy is adopted.
        self._embedding_sum[:] = state.embedding_sum
        self._policy = make_eviction_policy(self._policy_name)
        self._policy.restore_state(state.policy_state)
        self.last_inserted = (
            None
            if state.last_inserted_id is None
            else by_id.get(state.last_inserted_id)
        )
        self._ids.value = state.ids_value
        self.insertions = state.insertions
        self.evictions = state.evictions
        self.lookups = state.lookups
        if self._index is not None:
            if state.index_state is None:
                raise ValueError(
                    "snapshot has no IVF state but cache has an index"
                )
            self._index.restore_state(state.index_state)

    def clear(self) -> None:
        """Cold restart: drop every entry, keep counter positions.

        The id counter is NOT rewound — stale ``(entry_id, slot)``
        tombstones in eviction bookkeeping must never collide with ids
        issued after the restart.  Cumulative traffic counters persist
        (a reboot does not un-serve past lookups), and the IVF index
        keeps its RNG stream position for the same reason.
        """
        self._entries = [None] * self._capacity
        self._matrix[:] = 0.0
        self._live[:] = False
        self._embedding_sum[:] = 0.0
        self._free_slots = list(range(self._capacity - 1, -1, -1))
        self._slot_of = {}
        self._policy = make_eviction_policy(self._policy_name)
        self.last_inserted = None
        if self._index is not None:
            self._index.clear()

    def snapshot_entries(
        self, state: "VectorCacheState"
    ) -> List[tuple]:
        """``(entry_id, payload, embedding, inserted_at)`` per entry of
        a snapshot, ascending entry id (the cache-migration surface:
        deterministic order, no slot/index internals exposed)."""
        return sorted(
            (
                (entry_id, payload, embedding, inserted_at)
                for (
                    _slot,
                    entry_id,
                    payload,
                    embedding,
                    inserted_at,
                    _hits,
                    _last_hit_at,
                ) in state.entries
            ),
            key=lambda item: item[0],
        )


@dataclass
class VectorCacheState:
    """Opaque snapshot of a :class:`VectorCache` (see ``snapshot``)."""

    capacity: int
    embed_dim: int
    policy_name: str
    backend: str
    # (slot, entry_id, payload, embedding, inserted_at, hits,
    #  last_hit_at) per live entry, ascending slot.
    entries: List[tuple]
    free_slots: List[int]
    embedding_sum: np.ndarray
    policy_state: object
    last_inserted_id: Optional[int]
    ids_value: int
    insertions: int
    evictions: int
    lookups: int
    index_state: Optional[IVFState]


class ImageCache(VectorCache[SyntheticImage]):
    """MoDM's final-image cache (any model family can consume entries)."""


def make_image_cache(
    capacity: int,
    embed_dim: int,
    policy: str = "fifo",
    backend: str = "exact",
    ann: Optional[IVFParams] = None,
    tiering=None,
):
    """Build an image cache: flat by default, tiered (quantized hot
    tier + ``pread`` cold tier, :mod:`repro.core.tiering`) when a
    ``TieredCacheConfig`` is passed."""
    if tiering is not None:
        # Imported lazily: tiering builds on this module's eviction
        # registry, so a top-level import would be circular.
        from repro.core.tiering import TieredImageCache

        return TieredImageCache(
            capacity=capacity,
            embed_dim=embed_dim,
            tiering=tiering,
            policy=policy,
            backend=backend,
            ann=ann,
        )
    return ImageCache(
        capacity=capacity,
        embed_dim=embed_dim,
        policy=policy,
        backend=backend,
        ann=ann,
    )


class LatentCache(VectorCache[CachedLatent]):
    """Nirvana-style latent cache, restricted to one producing model.

    ``retrieve_for_model`` filters out entries a different model produced;
    with a single-model baseline this never triggers, but it documents the
    §3.1 fragmentation cost of latent caching in multi-model settings.
    """

    def retrieve_for_model(
        self, query: np.ndarray, model_name: str
    ) -> Tuple[Optional[CacheEntry[CachedLatent]], float]:
        entry, sim = self.retrieve(query)
        if entry is not None and not entry.payload.usable_by(model_name):
            return None, 0.0
        return entry, sim

    def retrieve_batch_for_model(
        self, queries: np.ndarray, model_name: str
    ) -> List[Tuple[Optional[CacheEntry[CachedLatent]], float]]:
        """Batched :meth:`retrieve_for_model` over rows of ``queries``."""
        out = []
        for entry, sim in self.retrieve_batch(queries):
            if entry is not None and not entry.payload.usable_by(
                model_name
            ):
                out.append((None, 0.0))
            else:
                out.append((entry, sim))
        return out
