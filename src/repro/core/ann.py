"""IVF-partitioned approximate-nearest-neighbor retrieval index.

The exact retrieval path scans every live cache slot per query — one
masked matrix-vector product, O(n·d).  That is the right call at the
paper's 100k operating point, but the production target ("millions of
users") puts millions of entries behind the semantic cache, where an
exact scan per request re-enters the critical path.  This module
supplies the sublinear alternative: an IVF (inverted-file) index that
partitions the embedding space into ``nlist`` coarse cells and, per
query, scans only the ``nprobe`` nearest cells' members.

Design, in the order a request sees it:

* **Lazy spherical k-means training** — the index trains itself on the
  first search after occupancy reaches ``train_min`` live entries:
  unit-normalized live embeddings (subsampled past ``train_sample``)
  are clustered into ``nlist`` unit centroids by a fixed number of
  Lloyd iterations.  Everything is seeded through :mod:`repro._rng`
  (``seed_for``/``rng_for``), so training is bit-reproducible across
  runs and machines.  Before training the owning cache serves queries
  through its exact path, so a cold cache behaves identically to the
  exact backend.
* **Packed inverted lists** — each cell stores its members' embeddings
  in a contiguous block (the classic IVF layout; float32 by default,
  float16 for the tiered cache's quantized hot tier), so probing a
  cell is one sequential block-matvec instead of a row gather from the
  big matrix — gather overhead, not flops, dominates the re-rank at
  scale.  Inserts assign their slot to the nearest coarse centroid in
  O(nlist·d) and append to that cell's block; evictions flip a
  row-valid bit (a lazy tombstone) and cells compact once tombstones
  outnumber live rows.  Cells also keep a running sum of their live
  members, generalizing the cache-global ``centroid()`` running-mean
  sketch to one mean per cell — the cluster router's cache-affinity
  policy reads these per-cell means instead of maintaining its own
  sketch.
* **Multi-probe search with exact re-rank** — a query scores the
  ``nlist`` coarse centroids (one small matvec), scans the ``nprobe``
  best cells' blocks in float32, masks tombstoned rows, and re-scores
  the winners against the cache's float64 embedding matrix — so the
  *similarities* the scheduler thresholds are always the canonical
  :func:`canonical_sim`; only *which* entries were considered is
  approximate.  Ties break toward the lowest slot id and every step is
  a deterministic function of the index state.
* **Drift control** — assignment anchors are fixed between trainings;
  after ``retrain_inserts`` insertions (default: two full cache
  turnovers) the index retrains from the current live set so anchors
  track the workload.

Memory overhead beyond the owning cache: the float32 blocks (half the
f64 matrix's bytes, amortized-doubling slack at most 2x that) plus
O(capacity) slot bookkeeping and O(nlist·d) centroid state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro._rng import rng_for

#: Retrieval backends ``VectorCache`` accepts (``config.retrieval_backend``).
RETRIEVAL_BACKENDS: Tuple[str, ...] = ("exact", "ivf")

#: Packed-block element types (``IVFParams.block_dtype``).  ``fp32`` is
#: the historical layout; ``fp16`` halves block memory for the tiered
#: cache's quantized hot tier (the coarse scan decodes per probed cell,
#: and the exact f64 re-rank keeps returned similarities exact).
BLOCK_DTYPES: Tuple[str, ...] = ("fp32", "fp16")

_U64 = 2.0**-53  # float64 unit roundoff


# ----------------------------------------------------------------------
# Canonical similarity
# ----------------------------------------------------------------------
def unit_query(query: np.ndarray) -> Optional[np.ndarray]:
    """``query`` scaled to unit norm, or None for a zero query.

    ``sqrt(dot)`` is what ``np.linalg.norm`` computes for 1-D floats,
    without the linalg dispatch overhead.  Every retrieval path
    normalizes through here, so a query has one unit vector whichever
    path scores it.
    """
    qnorm = math.sqrt(float(np.dot(query, query)))
    if qnorm == 0.0:
        return None
    return query / qnorm


def canonical_sim(row: np.ndarray, query_unit: np.ndarray) -> float:
    """The similarity every retrieval path returns (Eq. 1): one float64
    ``np.dot`` of a cached embedding with the unit query.

    A matrix product scores a row with whatever bits its kernel produces
    at that row's position, so scans only *screen* candidates; winners
    are re-scored here, making results independent of the scan's
    precision, layout and batch shape.
    """
    return float(np.dot(row, query_unit))


def screen_margin(dim: int, dtype, max_norm: float) -> float:
    """Bound on ``|screened score - canonical_sim|`` for any row of norm
    at most ``max_norm`` against a unit query.

    With unit roundoffs ``u`` (screen dtype) and ``u64``, and
    ``g(n, u) = n·u / (1 - n·u)``, for row ``e`` and query ``q``
    (``sum|e_j q_j| <= |e|·|q|``):

    * canonical ``np.dot`` vs the exact dot: ``g(d, u64)·|e||q|``;
    * a float64 screen (any summation order): ``g(d, u64)·|e||q|``;
    * a float32 screen rounds ``e`` and ``q`` (``(2u + u²)·|e||q|``)
      then sums in float32 (``g(d, u)·(1 + u)²·|e||q|``).

    One more ``u·|e|`` covers rounding the shortlist threshold to the
    screen dtype.  ``max_norm`` and the unit query's norm are computed
    values, each within ``(d + 2)·u64`` of the truth, and ``d·tiny``
    absorbs underflow.
    """
    u = float(np.finfo(dtype).eps) / 2.0
    g64 = dim * _U64 / (1.0 - dim * _U64)
    if u == _U64:
        screen = g64
    else:
        screen = (2.0 + u) * u + dim * u / (1.0 - dim * u) * (1.0 + u) ** 2
    slack = (1.0 + (dim + 2) * _U64) ** 2
    coef = g64 + screen + u
    return coef * max_norm * slack + dim * float(np.finfo(dtype).tiny)


class ScreenMargin:
    """Running maximum of inserted row norms and the
    :func:`screen_margin` (``value``) it implies.

    Grows on insert and only resets with the rows it covers, so an
    evicted row can leave the margin wider than the live rows need —
    which changes how many rows are re-scored, never the result.
    """

    def __init__(self, dim: int, dtype) -> None:
        self._dim = dim
        self._dtype = np.dtype(dtype)
        self.reset()

    def reset(self) -> None:
        """Cover no rows."""
        self._set(0.0)

    def grow(self, row: np.ndarray) -> None:
        """Cover one more row (one norm)."""
        norm = math.sqrt(float(np.dot(row, row)))
        if norm > self.max_norm:
            self._set(norm)

    def grow_rows(self, rows: np.ndarray) -> None:
        """Cover every row of a 2-D block."""
        if rows.shape[0]:
            norm = math.sqrt(float(np.einsum("ij,ij->i", rows, rows).max()))
            if norm > self.max_norm:
                self._set(norm)

    def _set(self, norm: float) -> None:
        self.max_norm = norm
        self.value = screen_margin(self._dim, self._dtype, norm)


def canonical_best(
    sims: np.ndarray,
    margin: float,
    row: Callable[[int], np.ndarray],
    query_unit: np.ndarray,
) -> Optional[Tuple[int, float]]:
    """Index and :func:`canonical_sim` of the canonical best row.

    ``sims`` are screened scores (``-inf`` for rows that cannot win),
    each within ``margin`` of its row's canonical similarity, and
    ``row(i)`` returns row ``i``'s embedding.  The canonical winner
    scores at least ``max(sims) - 2·margin`` on the screen, so only rows
    above that line are re-scored — almost always just the screen's
    argmax.  Exact ties go to the lowest index.  None when every score
    is ``-inf``.
    """
    best = int(sims.argmax())
    top = float(sims[best])
    if top == -math.inf:
        return None
    near = sims >= top - 2.0 * margin
    if np.count_nonzero(near) == 1:
        return best, canonical_sim(row(best), query_unit)
    best, top = -1, -math.inf
    for i in np.flatnonzero(near):
        sim = canonical_sim(row(int(i)), query_unit)
        if sim > top:
            best, top = int(i), sim
    return best, top


def canonical_topk(
    sims: np.ndarray,
    margin: float,
    k: int,
    row: Callable[[int], np.ndarray],
    query_unit: np.ndarray,
) -> List[Tuple[int, float]]:
    """The ``k`` canonical best rows, best first (lowest index on ties).

    Same contract as :func:`canonical_best`; ``k`` must not exceed the
    number of finite scores.  The canonical k-th best is at least the
    screen's k-th best minus ``margin``, so every canonical top-``k``
    row screens within ``2·margin`` of the screen's k-th best.
    """
    if k == 1:
        found = canonical_best(sims, margin, row, query_unit)
        return [] if found is None else [found]
    if k < sims.shape[0]:
        kth = float(sims[np.argpartition(sims, -k)[-k:]].min())
    else:
        kth = float(sims.min())
    shortlist = np.flatnonzero(sims >= kth - 2.0 * margin)
    exact = np.array(
        [canonical_sim(row(int(i)), query_unit) for i in shortlist]
    )
    order = np.lexsort((shortlist, -exact))[:k]
    return [(int(shortlist[i]), float(exact[i])) for i in order]


def rerank_rows(
    rows: np.ndarray, query_unit: np.ndarray, k: int, margin: float
) -> List[Tuple[int, float]]:
    """Canonical top-``k`` of gathered float64 ``rows`` (indices into
    ``rows``), screened by one matrix-vector product; ``margin`` is a
    float64 :class:`ScreenMargin` value covering every row."""
    return canonical_topk(
        rows @ query_unit,
        margin,
        min(k, rows.shape[0]),
        rows.__getitem__,
        query_unit,
    )


@dataclass
class IVFState:
    """Opaque snapshot of an :class:`IVFIndex` (see ``snapshot_state``).

    Everything except the owning cache's matrix/live buffers, which the
    cache snapshot carries; restoring re-binds the existing buffers.
    """

    centroids: Optional[np.ndarray]
    lists: List[List[int]]
    # ``None`` when captured with ``include_blocks=False`` (the tiered
    # cache's block-free snapshots): restore then allocates exact-size
    # zeroed blocks and the owner refills live rows from its cold store.
    blocks: Optional[List[Optional[np.ndarray]]]
    valid: List[Optional[np.ndarray]]
    stale: List[int]
    cell_sums: Optional[np.ndarray]
    cell_counts: Optional[np.ndarray]
    assign: np.ndarray
    row_of: np.ndarray
    inserts_since_train: int
    trainings: int


@dataclass(frozen=True)
class IVFParams:
    """Tunables of an :class:`IVFIndex` (zeros mean "auto").

    ``nlist`` — number of coarse cells; auto picks ``~sqrt(capacity)``
    clamped to [8, 4096], the standard IVF sizing.  ``nprobe`` — cells
    scanned per query; recall rises and speedup falls with it.
    ``train_min`` — live entries required before the index trains (auto:
    ``max(256, 4·nlist)``); below it the cache serves exact.
    ``train_sample`` caps the k-means training subsample,
    ``train_iters`` the Lloyd iterations.  ``retrain_inserts`` — inserts
    between automatic retrainings (auto: ``2·capacity``; the running
    per-cell means track drift in between).  ``seed`` namespaces every
    random draw through :func:`repro._rng.rng_for`.

    ``block_dtype`` — element type of the packed per-cell blocks:
    ``"fp32"`` (default, the historical layout, bit-identical) or
    ``"fp16"`` (half the block memory; probed blocks are decoded to f32
    for the scan, and the exact re-rank keeps returned similarities
    exact either way).  ``rerank`` — size of the exact-re-rank
    shortlist: the top-``rerank`` block-scan candidates are re-scored
    against the f64 matrix and the best *exact* similarity wins.  The
    default 1 re-scores only the block-scan winner (the historical
    behavior, preserved bit-for-bit); quantized blocks want a wider
    shortlist because the fp16 scan can misorder near-ties.
    """

    nlist: int = 0
    nprobe: int = 8
    train_min: int = 0
    train_sample: int = 65_536
    train_iters: int = 10
    retrain_inserts: int = 0
    block_dtype: str = "fp32"
    rerank: int = 1
    seed: str = "ivf"

    def __post_init__(self) -> None:
        if self.nlist < 0:
            raise ValueError("nlist must be >= 0 (0 = auto)")
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.train_min < 0:
            raise ValueError("train_min must be >= 0 (0 = auto)")
        if self.train_sample < 1:
            raise ValueError("train_sample must be >= 1")
        if self.train_iters < 1:
            raise ValueError("train_iters must be >= 1")
        if self.retrain_inserts < 0:
            raise ValueError("retrain_inserts must be >= 0 (0 = auto)")
        if self.block_dtype not in BLOCK_DTYPES:
            raise ValueError(
                f"unknown block_dtype {self.block_dtype!r}; "
                f"available: {list(BLOCK_DTYPES)}"
            )
        if self.rerank < 1:
            raise ValueError("rerank must be >= 1")

    def resolved_nlist(self, capacity: int) -> int:
        if self.nlist:
            return min(self.nlist, capacity)
        return max(8, min(4096, round(math.sqrt(capacity))))

    def resolved_train_min(self, capacity: int) -> int:
        nlist = self.resolved_nlist(capacity)
        if self.train_min:
            return self.train_min
        return max(256, 4 * nlist)

    def resolved_retrain_inserts(self, capacity: int) -> int:
        if self.retrain_inserts:
            return self.retrain_inserts
        return 2 * capacity

    def resolved_block_dtype(self) -> np.dtype:
        if self.block_dtype == "fp16":
            return np.dtype(np.float16)
        return np.dtype(np.float32)


class IVFIndex:
    """Inverted-file index over a cache's preallocated embedding matrix.

    ``matrix`` and ``live`` are the owning cache's buffers (never
    reallocated); the index reads them for training and exact re-ranking
    but only the cache mutates them.  The cache drives the index through
    :meth:`add` / :meth:`remove` on insert/evict and :meth:`ready` /
    :meth:`search` / :meth:`search_topk` on retrieval.

    Per-cell state is row-parallel: ``_lists[c][r]`` is the slot whose
    float32 embedding sits in ``_blocks[c][r]`` and whose liveness bit
    is ``_valid[c][r]``.  ``_row_of[slot]`` locates a live slot's row in
    its assigned cell, so eviction flips one bit without scanning.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        live: np.ndarray,
        params: IVFParams,
    ):
        capacity, _ = matrix.shape
        self._matrix = matrix  # snap: derived (cache-owned buffer)
        self._live = live  # snap: derived (cache-owned buffer)
        self.params = params  # snap: derived (immutable config)
        self.nlist = params.resolved_nlist(capacity)  # snap: derived
        # Clamped to nlist: below that occupancy train() cannot fit the
        # requested cells, and an unclamped gate would make every
        # retrieval in [train_min, nlist) attempt (and abort) training.
        self.train_min = max(  # snap: derived (from params)
            params.resolved_train_min(capacity), self.nlist
        )
        # snap: derived (from params)
        self._retrain_inserts = params.resolved_retrain_inserts(capacity)
        # snap: derived (from params)
        self._block_dtype = params.resolved_block_dtype()
        self._centroids: Optional[np.ndarray] = None  # (nlist, d), unit
        self._lists: List[List[int]] = []
        # snap: derived (per-cell memo of _lists; rebuilt lazily)
        self._list_arrays: List[Optional[np.ndarray]] = []
        self._blocks: List[Optional[np.ndarray]] = []  # (cap, d) f32
        self._valid: List[Optional[np.ndarray]] = []  # (cap,) bool
        self._stale: List[int] = []  # tombstoned rows per cell
        # Running sums/counts of each cell's *live* members — the
        # per-cell generalization of VectorCache's centroid sketch.
        self._cell_sums: Optional[np.ndarray] = None
        self._cell_counts: Optional[np.ndarray] = None
        # slot -> assigned cell (-1 = unassigned/dead) and slot -> row
        # within that cell's block.
        self._assign = np.full(capacity, -1, dtype=np.int64)
        self._row_of = np.zeros(capacity, dtype=np.int64)
        # Memoized coarse_centroids() result; the cluster router reads
        # the sketch on every arrival, so rebuild it only after the
        # cell sums actually change (insert/evict/train).
        self._coarse_memo: Optional[np.ndarray] = None  # snap: derived
        self._inserts_since_train = 0
        self.trainings = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @property
    def trained(self) -> bool:
        return self._centroids is not None

    def ready(self, n_live: int) -> bool:
        """True when searches should take the IVF path; trains lazily.

        Called by the cache on every retrieval: trains the index the
        first time occupancy reaches ``train_min`` (and again after
        ``retrain_inserts`` insertions), then reports whether the coarse
        structure exists.
        """
        if n_live >= self.train_min and (
            not self.trained
            or self._inserts_since_train >= self._retrain_inserts
        ):
            self.train()
        return self.trained

    def train(self) -> None:
        """(Re)fit coarse centroids from live embeddings and rebuild cells."""
        slots = np.flatnonzero(self._live)
        if slots.size < max(2, self.nlist):
            return
        data = self._matrix[slots]
        norms = np.sqrt(np.einsum("ij,ij->i", data, data))
        norms[norms == 0.0] = 1.0
        data = data / norms[:, None]
        rng = rng_for(self.params.seed, "ivf-train", self.trainings)
        if slots.size > self.params.train_sample:
            sample = rng.choice(
                slots.size, size=self.params.train_sample, replace=False
            )
            sample.sort()
            train_data = data[sample]
        else:
            train_data = data
        self._centroids = _spherical_kmeans(
            train_data, self.nlist, self.params.train_iters, rng
        )
        self._rebuild_cells(slots, data)
        self._inserts_since_train = 0
        self.trainings += 1

    def build_from_chunks(self, chunk_source, n_live: int) -> None:
        """Train + build cells by streaming ``(slots, rows)`` chunks.

        The bulk counterpart of :meth:`train` for corpora that do not
        fit in RAM: ``chunk_source()`` must return a *fresh* iterator of
        ``(slots, rows)`` pairs — an int64 slot array and the matching
        float64 embedding rows — covering every live slot exactly once
        in a deterministic order.  Three sequential passes (sample
        gather, assignment + running sums, block fill) replace the
        incremental path's full-matrix materialization, so peak memory
        is one chunk plus the packed blocks.  Deterministic: the k-means
        sample is drawn by stream position from the same
        ``rng_for(seed, "ivf-train", trainings)`` stream the incremental
        path uses.
        """
        if n_live < max(2, self.nlist):
            raise ValueError(
                f"cannot build: {n_live} live rows < "
                f"max(2, nlist={self.nlist})"
            )
        nlist = self.nlist
        dim = self._matrix.shape[1]
        rng = rng_for(self.params.seed, "ivf-train", self.trainings)
        n_sample = min(n_live, self.params.train_sample)
        if n_sample < n_live:
            sample = rng.choice(n_live, size=n_sample, replace=False)
            sample.sort()
        else:
            sample = np.arange(n_live)
        # Pass 1: gather the training sample by stream position.
        train_rows = np.empty((n_sample, dim))
        pos = 0
        filled = 0
        for _slots, rows in chunk_source():
            m = rows.shape[0]
            take = sample[(sample >= pos) & (sample < pos + m)] - pos
            if take.size:
                train_rows[filled : filled + take.size] = rows[take]
                filled += take.size
            pos += m
        if pos != n_live or filled != n_sample:
            raise ValueError(
                f"chunk_source yielded {pos} rows, expected {n_live}"
            )
        norms = np.sqrt(
            np.einsum("ij,ij->i", train_rows, train_rows)
        )
        norms[norms == 0.0] = 1.0
        # Bound the training assignment temporary at large nlist: the
        # default 16k-row chunk against 4096 centroids is a ~0.5 GiB
        # float64 matrix per Lloyd iteration, real money against the
        # bulk path's resident-memory budget.  nlist <= 1024 keeps the
        # default (and its exact historical rounding).
        self._centroids = _spherical_kmeans(
            train_rows / norms[:, None],
            nlist,
            self.params.train_iters,
            rng,
            argmax_chunk=max(
                1024, min(16_384, (1 << 24) // max(1, nlist))
            ),
        )
        # Pass 2: assign every row, accumulate per-cell counts/sums.
        self._assign[:] = -1
        counts = np.zeros(nlist, dtype=np.int64)
        sums = np.zeros((nlist, dim))
        # Bound the argmax temporary at ~32 MB regardless of nlist.
        argmax_chunk = max(1024, (1 << 22) // max(1, nlist))
        for slots, rows in chunk_source():
            rnorms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            rnorms[rnorms == 0.0] = 1.0
            assign = _chunked_argmax(
                rows / rnorms[:, None], self._centroids, argmax_chunk
            )
            self._assign[slots] = assign
            counts += np.bincount(assign, minlength=nlist)
            np.add.at(sums, assign, rows)
        # Exact-size blocks (no doubling slack at bulk scale).
        self._blocks = [
            np.empty((int(c), dim), dtype=self._block_dtype)
            if c
            else None
            for c in counts
        ]
        self._valid = [
            np.ones(int(c), dtype=bool) if c else None for c in counts
        ]
        member_arrays: List[Optional[np.ndarray]] = [
            np.empty(int(c), dtype=np.int64) if c else None
            for c in counts
        ]
        cursors = np.zeros(nlist, dtype=np.int64)
        # Pass 3: scatter rows into their cells in stream order.
        for slots, rows in chunk_source():
            assign = self._assign[slots]
            order = np.argsort(assign, kind="stable")
            cells, starts = np.unique(
                assign[order], return_index=True
            )
            bounds = np.append(starts, order.size)
            for j in range(cells.size):
                cell = int(cells[j])
                grp = order[starts[j] : bounds[j + 1]]
                cur = int(cursors[cell])
                stop = cur + grp.size
                self._blocks[cell][cur:stop] = rows[grp]
                member_arrays[cell][cur:stop] = slots[grp]
                cursors[cell] = stop
        self._lists = [
            [] if arr is None else arr.tolist()
            for arr in member_arrays
        ]
        for arr in member_arrays:
            if arr is not None:
                self._row_of[arr] = np.arange(arr.size)
        self._list_arrays = list(member_arrays)
        self._stale = [0] * nlist
        self._cell_sums = sums
        self._cell_counts = counts
        self._coarse_memo = None
        self._inserts_since_train = 0
        self.trainings += 1

    def _rebuild_cells(
        self, slots: np.ndarray, unit_data: np.ndarray
    ) -> None:
        assert self._centroids is not None
        nlist = self._centroids.shape[0]
        dim = self._matrix.shape[1]
        assign = _chunked_argmax(unit_data, self._centroids)
        self._assign[:] = -1
        self._assign[slots] = assign
        order = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=nlist)
        self._lists = []
        self._blocks = []
        self._valid = []
        start = 0
        for cell in range(nlist):
            stop = start + int(counts[cell])
            members = slots[order[start:stop]]
            self._row_of[members] = np.arange(members.size)
            self._lists.append(members.tolist())
            if members.size:
                self._blocks.append(
                    self._matrix[members].astype(self._block_dtype)
                )
                self._valid.append(np.ones(members.size, dtype=bool))
            else:
                self._blocks.append(None)
                self._valid.append(None)
            start = stop
        self._list_arrays = [None] * nlist
        self._stale = [0] * nlist
        self._cell_sums = np.zeros((nlist, dim))
        np.add.at(self._cell_sums, assign, self._matrix[slots])
        self._cell_counts = counts.astype(np.int64)
        self._coarse_memo = None

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def _append_row(
        self, cell: int, slot: int, embedding: np.ndarray
    ) -> None:
        row = len(self._lists[cell])
        block = self._blocks[cell]
        if block is None or row >= block.shape[0]:
            grown = np.empty(
                (max(8, 2 * row), self._matrix.shape[1]),
                dtype=self._block_dtype,
            )
            valid = np.zeros(grown.shape[0], dtype=bool)
            if block is not None:
                grown[:row] = block[:row]
                valid[:row] = self._valid[cell][:row]
            self._blocks[cell] = grown
            self._valid[cell] = valid
            block = grown
        block[row] = embedding
        self._valid[cell][row] = True
        self._lists[cell].append(slot)
        self._list_arrays[cell] = None
        self._row_of[slot] = row

    def add(self, slot: int, embedding: np.ndarray) -> None:
        """Assign a freshly inserted slot to its nearest coarse cell."""
        self._inserts_since_train += 1
        if not self.trained:
            return
        # argmax of dot(emb, unit centroids): positive scaling of the
        # embedding cannot change the winner, so the raw embedding is
        # scored directly (a zero embedding lands in cell 0).
        cell = int(np.argmax(self._centroids @ embedding))
        self._assign[slot] = cell
        self._append_row(cell, slot, embedding)
        self._cell_sums[cell] += embedding
        self._cell_counts[cell] += 1
        self._coarse_memo = None

    def remove(self, slot: int, embedding: np.ndarray) -> None:
        """Tombstone an evicted slot (row-valid bit flip, no scan)."""
        if not self.trained:
            return
        cell = int(self._assign[slot])
        if cell < 0:
            return
        self._assign[slot] = -1
        self._valid[cell][self._row_of[slot]] = False
        self._cell_sums[cell] -= embedding
        self._cell_counts[cell] -= 1
        self._coarse_memo = None
        self._stale[cell] += 1
        live_members = len(self._lists[cell]) - self._stale[cell]
        if self._stale[cell] > max(16, live_members):
            self._compact(cell)

    def _compact(self, cell: int) -> None:
        """Drop a cell's tombstoned rows, repacking the live ones."""
        members = self._cell_members(cell)
        keep = self._valid[cell][: members.size]
        kept = members[keep]
        self._lists[cell] = kept.tolist()
        self._list_arrays[cell] = None
        if kept.size:
            self._blocks[cell] = self._blocks[cell][: members.size][
                keep
            ]
            self._valid[cell] = np.ones(kept.size, dtype=bool)
            self._row_of[kept] = np.arange(kept.size)
        else:
            self._blocks[cell] = None
            self._valid[cell] = None
        self._stale[cell] = 0

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _cell_members(self, cell: int) -> np.ndarray:
        arr = self._list_arrays[cell]
        if arr is None:
            arr = np.asarray(self._lists[cell], dtype=np.int64)
            self._list_arrays[cell] = arr
        return arr

    def _probe(
        self, query_unit: np.ndarray
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Concatenated (slots, f32 sims) over the probed cells.

        Tombstoned rows score ``-inf`` so they can never win; cells are
        visited in a deterministic order, so the concatenation — and
        therefore every downstream argmax tie-break — is a pure
        function of the index state.  Returns ``(None, None)`` when
        every probed cell is empty (callers fall back to exact).
        """
        assert self._centroids is not None
        csims = self._centroids @ query_unit
        nprobe = min(self.params.nprobe, csims.shape[0])
        if nprobe < csims.shape[0]:
            probe = np.argpartition(csims, -nprobe)[-nprobe:]
        else:
            probe = np.arange(csims.shape[0])
        q32 = query_unit.astype(np.float32)
        slot_parts = []
        sim_parts = []
        for cell in probe:
            cell = int(cell)
            m = len(self._lists[cell])
            if m == 0:
                continue
            block = self._blocks[cell][:m]
            if block.dtype != np.float32:
                # Quantized (fp16) blocks decode per probed cell: numpy
                # has no BLAS half-precision matvec, so an explicit f32
                # upcast keeps the scan on the fast path (decode cost is
                # bounded by the probed fraction, not cache size).
                block = block.astype(np.float32)
            sims = block @ q32
            if self._stale[cell]:
                sims[~self._valid[cell][:m]] = -np.inf
            slot_parts.append(self._cell_members(cell))
            sim_parts.append(sims)
        if not slot_parts:
            return None, None
        return np.concatenate(slot_parts), np.concatenate(sim_parts)

    def search(
        self, query_unit: np.ndarray, margin: float
    ) -> Optional[Tuple[int, float]]:
        """Best live slot and its exact similarity, or None.

        With ``rerank == 1`` (the default) only the block-scan winner is
        re-scored — the historical behavior, bit-for-bit: block-sim ties
        (identical cached embeddings) break toward the lowest slot id,
        matching :meth:`search_topk`'s ordering for duplicate entries.
        With ``rerank > 1`` the top-``rerank`` block candidates (plus
        any tied at the selection boundary) are re-ranked against the
        f64 matrix and the best canonical similarity wins (lowest slot
        id breaking exact ties) — the shortlist that makes a quantized
        block scan safe against near-tie misordering.  Either way the
        returned similarity is :func:`canonical_sim`.  ``margin`` is the
        owning cache's float64 :class:`ScreenMargin` value.
        """
        slots, sims = self._probe(query_unit)
        if slots is None:
            return None
        best = int(np.argmax(sims))
        best_sim = sims[best]
        if best_sim == -np.inf:
            return None  # every probed row tombstoned
        rerank = self.params.rerank
        if rerank <= 1:
            best_slot = int(slots[sims == best_sim].min())
            return best_slot, canonical_sim(
                self._matrix[best_slot], query_unit
            )
        valid = np.flatnonzero(sims > -np.inf)
        vsims = sims[valid]
        r = min(rerank, valid.size)
        if r < valid.size:
            kth = vsims[np.argpartition(vsims, -r)[-r:]].min()
            sel = slots[valid[vsims >= kth]]
        else:
            sel = slots[valid]
        # Ascending slots, so the re-rank's lowest-index tie-break is
        # the lowest slot id.
        sel = np.sort(sel)
        [(top, sim)] = rerank_rows(
            self._matrix[sel], query_unit, 1, margin
        )
        return int(sel[top]), sim

    def search_topk(
        self, query_unit: np.ndarray, k: int, margin: float
    ) -> List[Tuple[int, float]]:
        """Top-``k`` live slots over the probed cells, best first.

        Approximate in the IVF sense: entries outside the probed cells
        are invisible, so fewer than ``k`` pairs can come back even when
        occupancy exceeds ``k``.  Selection runs on the f32 blocks; the
        selected rows are re-ranked by :func:`canonical_sim` (lowest
        slot id breaking ties); ``margin`` as in :meth:`search`.
        """
        slots, sims = self._probe(query_unit)
        if slots is None:
            return []
        valid = np.flatnonzero(sims > -np.inf)
        if valid.size == 0:
            return []
        # The shortlist is at least ``rerank`` wide so a quantized block
        # scan cannot silently drop the exact winner (rerank=1 keeps
        # the historical selection width bit-for-bit).
        r = max(k, self.params.rerank)
        if r < valid.size:
            vsims = sims[valid]
            kth = vsims[np.argpartition(vsims, -r)[-r:]].min()
            # >= kth keeps every candidate tied at the selection
            # boundary, so the f64 re-rank — not argpartition's
            # arbitrary tie order — decides which of them survive.
            sel = slots[valid[vsims >= kth]]
        else:
            sel = slots[valid]
        sel = np.sort(sel)
        return [
            (int(sel[i]), sim)
            for i, sim in rerank_rows(
                self._matrix[sel], query_unit, k, margin
            )
        ]

    # ------------------------------------------------------------------
    # Snapshot / restore / clear
    # ------------------------------------------------------------------
    def snapshot_state(self, include_blocks: bool = True) -> IVFState:
        """Copy every mutable structure except the cache's buffers.

        Side-effect-free: no memo builds, no compactions — capturing a
        snapshot must not perturb the live run's future behaviour.

        ``include_blocks=False`` omits the packed block copies (the
        dominant cost at bulk scale) — the tiered cache's snapshots do
        this because every block row is reconstructible from its cold
        store; see :meth:`restore_state`.
        """
        return IVFState(
            centroids=(
                None
                if self._centroids is None
                else self._centroids.copy()
            ),
            lists=[list(members) for members in self._lists],
            blocks=(
                [
                    None if block is None else block.copy()
                    for block in self._blocks
                ]
                if include_blocks
                else None
            ),
            valid=[
                None if valid is None else valid.copy()
                for valid in self._valid
            ],
            stale=list(self._stale),
            cell_sums=(
                None
                if self._cell_sums is None
                else self._cell_sums.copy()
            ),
            cell_counts=(
                None
                if self._cell_counts is None
                else self._cell_counts.copy()
            ),
            assign=self._assign.copy(),
            row_of=self._row_of.copy(),
            inserts_since_train=self._inserts_since_train,
            trainings=self.trainings,
        )

    def restore_state(self, state: IVFState) -> None:
        """Adopt a snapshot; the matrix/live buffer bindings are kept
        (the owning cache restores their contents).

        A block-free snapshot (``include_blocks=False``) restores to
        exact-size zeroed blocks; the owner must refill the *valid* rows
        from its row source afterwards (tombstoned rows may stay zero —
        the probe masks them to ``-inf`` before they can influence any
        result, and exact-size blocks only drop doubling slack the
        search never reads).
        """
        self._centroids = (
            None if state.centroids is None else state.centroids.copy()
        )
        self._lists = [list(members) for members in state.lists]
        if state.blocks is None:
            dim = self._matrix.shape[1]
            self._blocks = [
                np.zeros((len(members), dim), dtype=self._block_dtype)
                if members
                else None
                for members in state.lists
            ]
        else:
            self._blocks = [
                None if block is None else block.copy()
                for block in state.blocks
            ]
        self._valid = [
            None if valid is None else valid.copy()
            for valid in state.valid
        ]
        self._stale = list(state.stale)
        self._cell_sums = (
            None if state.cell_sums is None else state.cell_sums.copy()
        )
        self._cell_counts = (
            None
            if state.cell_counts is None
            else state.cell_counts.copy()
        )
        self._assign[:] = state.assign
        self._row_of[:] = state.row_of
        self._inserts_since_train = state.inserts_since_train
        self.trainings = state.trainings
        self._list_arrays = [None] * len(self._lists)
        self._coarse_memo = None

    def refill_rows(self, slots: np.ndarray, rows: np.ndarray) -> None:
        """Re-quantize ``rows`` into the packed blocks of ``slots``.

        The second half of a block-free snapshot restore: after
        :meth:`restore_state` allocated zeroed blocks, the owning cache
        streams its row source through here and each slot currently
        assigned to a cell gets its exact row written back (quantized to
        the block dtype).  Slots with no cell assignment — dead, or
        inserted while untrained — are skipped.
        """
        if not self.trained or slots.size == 0:
            return
        cells = self._assign[slots]
        mask = cells >= 0
        if not mask.any():
            return
        cells = cells[mask]
        members = slots[mask]
        data = rows[mask]
        order = np.argsort(cells, kind="stable")
        cells_sorted = cells[order]
        uniq, starts = np.unique(cells_sorted, return_index=True)
        bounds = np.append(starts, cells_sorted.size)
        for j in range(uniq.size):
            cell = int(uniq[j])
            grp = order[starts[j] : bounds[j + 1]]
            block = self._blocks[cell]
            block[self._row_of[members[grp]]] = data[grp].astype(
                self._block_dtype
            )

    def clear(self) -> None:
        """Back to untrained, keeping the RNG stream position.

        A cold restart drops all structure but must NOT rewind
        ``trainings``: it indexes the k-means RNG stream, and replaying
        a draw would correlate post-restart training with pre-kill
        training in a way a real reboot never would.
        """
        self._centroids = None
        self._lists = []
        self._list_arrays = []
        self._blocks = []
        self._valid = []
        self._stale = []
        self._cell_sums = None
        self._cell_counts = None
        self._assign[:] = -1
        self._row_of[:] = 0
        self._coarse_memo = None
        self._inserts_since_train = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def coarse_centroids(self) -> Optional[np.ndarray]:
        """Per-cell means of live members, one row per non-empty cell.

        The multi-centroid semantic sketch the cluster router's
        cache-affinity policy scores against — running sums, never a
        matrix scan, memoized between cache mutations (the router reads
        it per arrival; treat the returned array as read-only).
        """
        if not self.trained:
            return None
        if self._coarse_memo is None:
            occupied = self._cell_counts > 0
            if not occupied.any():
                return None
            self._coarse_memo = (
                self._cell_sums[occupied]
                / self._cell_counts[occupied, None]
            )
        return self._coarse_memo

    def scan_entries(self, n_live: int) -> int:
        """Modelled per-query work in entry-scan units.

        The coarse scan touches ``nlist`` centroids and the block scan
        an expected ``n_live·nprobe/nlist`` members (uniform-occupancy
        approximation), so the scheduler's modelled retrieval latency
        stays sublinear in cache size.
        """
        if not self.trained:
            return n_live
        expected = math.ceil(
            n_live * min(1.0, self.params.nprobe / self.nlist)
        )
        return min(n_live, self.nlist + expected)


def _spherical_kmeans(
    data: np.ndarray,
    nlist: int,
    iters: int,
    rng: np.random.Generator,
    argmax_chunk: int = 16_384,
) -> np.ndarray:
    """Unit centroids from unit ``data`` rows via Lloyd iterations.

    Deterministic given ``rng``: initial centroids are a uniform sample
    of distinct rows; an emptied cluster keeps its previous centroid.
    With fewer rows than ``nlist`` the surplus centroids reuse sampled
    rows (choice with replacement) — harmless, they converge apart or
    stay duplicates and the probe scan tolerates both.
    ``argmax_chunk`` bounds the per-iteration assignment temporary
    (``chunk x nlist`` float64); chunking can perturb BLAS summation
    order, so callers that must stay bit-identical to history keep the
    default.
    """
    n = data.shape[0]
    replace = n < nlist
    init = rng.choice(n, size=nlist, replace=replace)
    centroids = data[init].copy()
    for _ in range(iters):
        assign = _chunked_argmax(data, centroids, argmax_chunk)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, data)
        counts = np.bincount(assign, minlength=nlist)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        norms = np.sqrt(
            np.einsum("ij,ij->i", centroids, centroids)
        )
        norms[norms == 0.0] = 1.0
        centroids /= norms[:, None]
    return centroids


def _chunked_argmax(
    data: np.ndarray, centroids: np.ndarray, chunk: int = 16_384
) -> np.ndarray:
    """Row-wise ``argmax(data @ centroids.T)`` without a giant temporary."""
    n = data.shape[0]
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        out[start:stop] = np.argmax(
            data[start:stop] @ centroids.T, axis=1
        )
    return out
