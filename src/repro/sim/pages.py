"""Page tables with per-page popularity and fractional DRAM residency.

Each managed :class:`~repro.tasks.task.DataObject` becomes a
:class:`PagedObject`: a vector of per-page access weights (how the object's
main-memory accesses distribute over its pages) plus a vector of DRAM
residency in ``[0, 1]`` per page.

Residency is *fractional* so that both software placement (pages are fully in
one tier: residency 0 or 1) and Memory Mode's hardware cache (a page is
resident for whatever fraction of its accesses hit the direct-mapped DRAM
cache) flow through the same accounting.  The task-level quantity everything
downstream consumes is the access-weighted DRAM fraction
(:meth:`PagedObject.dram_access_fraction`), the paper's ``r_dram_acc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.common import PAGE_SIZE, make_rng, zipf_weights
from repro.tasks.task import DataObject

__all__ = [
    "PagedObject",
    "PageTable",
    "MigrationBatch",
    "TieredPagedObject",
    "TieredPageTable",
    "TieredMigrationBatch",
]


def _guarded(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A zeroed float64 buffer of ``n`` lanes, returned as a
    ``(writable, read-only)`` pair of aliases of that buffer.

    The read-only alias wraps the buffer through the buffer protocol rather
    than as a numpy view, so slices of it name *it* (not the writable
    buffer) as their ``.base``.
    """
    rw = np.zeros(n, dtype=np.float64)
    ro = np.frombuffer(rw.data, dtype=np.float64)
    ro.flags.writeable = False
    return rw, ro


#: cache lines per page: element-level popularity is averaged over this
#: many draws per page, because a 4 KiB page mixes hot and cold lines
LINES_PER_PAGE = 64


def _page_weights(spec: DataObject, rng=None) -> np.ndarray:
    """Per-page access weights of ``spec``, summing to 1 (read-only).

    Zipf popularity lives at cache-line granularity; page-level hotness is
    the sum of the page's line weights.  Drawing Zipf directly per page
    would overstate page skew by ~64x and make hardware caching look far
    better than it is.  Uniform objects spread accesses evenly.
    """
    n_pages = spec.n_pages
    if spec.hotness == "zipf":
        lines = zipf_weights(n_pages * LINES_PER_PAGE, spec.zipf_s, rng=make_rng(rng))
        weight = lines.reshape(n_pages, LINES_PER_PAGE).sum(axis=1)
        weight /= weight.sum()
    else:
        weight = np.full(n_pages, 1.0 / n_pages)
    weight.flags.writeable = False
    return weight


class PagedObject:
    """Pages of one data object.

    ``weight`` (per-page fraction of the object's main-memory accesses,
    summing to 1) and ``residency`` (per-page DRAM residency in ``[0, 1]``)
    are read-only arrays.  Residency changes only through
    :meth:`set_residency` and :meth:`set_pages`, which drop the cached
    :meth:`dram_pages` / :meth:`dram_access_fraction` values and the owning
    table's memo; an in-place write anywhere else raises ``ValueError``
    instead of leaving the caches stale.
    """

    __slots__ = (
        "spec", "n_pages", "_weight", "_residency", "_rw",
        "_pages", "_fraction", "_memo",
    )

    def __init__(self, spec: DataObject, rng=None) -> None:
        self.spec = spec
        self.n_pages = spec.n_pages
        self._weight = _page_weights(spec, rng)
        self._rw, self._residency = _guarded(self.n_pages)
        #: the owning table's memo (shared dict, so no reference cycle)
        self._memo: dict | None = None
        self._pages: float | None = None
        self._fraction: float | None = None

    # -- pickling: the writable alias is rebuilt, not copied separately
    def __getstate__(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "_rw"}

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        residency = state.pop("_residency")
        for key, value in state.items():
            setattr(self, key, value)
        self._rw, self._residency = _guarded(self.n_pages)
        self._rw[:] = residency
        self._weight.flags.writeable = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def owner(self) -> str | None:
        return self.spec.owner

    @property
    def weight(self) -> np.ndarray:
        """Per-page access weights.  Assigning replaces a standalone
        object's vector; a table adopts it into its read-only arena."""
        return self._weight

    @weight.setter
    def weight(self, value: np.ndarray) -> None:
        self._weight = np.asarray(value, dtype=np.float64)
        self._invalidate()

    @property
    def residency(self) -> np.ndarray:
        """Read-only per-page DRAM residency; write via :meth:`set_pages`
        or :meth:`set_residency`."""
        return self._residency

    def _invalidate(self) -> None:
        self._pages = self._fraction = None
        if self._memo is not None:
            self._memo.clear()

    def dram_pages(self) -> float:
        """Equivalent number of pages resident in DRAM (cached)."""
        if self._pages is None:
            self._pages = float(self._residency.sum())
        return self._pages

    def dram_bytes(self) -> float:
        return self.dram_pages() * PAGE_SIZE

    def dram_access_fraction(self) -> float:
        """Access-weighted fraction of this object served from DRAM (cached)."""
        if self._fraction is None:
            self._fraction = float(self._weight @ self._residency)
        return self._fraction

    def set_pages(self, idx, value: float | np.ndarray) -> None:
        """Set the residency of pages ``idx`` (index array, mask or slice)."""
        self._rw[idx] = value
        self._invalidate()

    def set_residency(self, value: float | np.ndarray) -> None:
        """Set residency for every page (scalar broadcast or full vector)."""
        arr = np.asarray(value, dtype=np.float64)
        rw = self._rw
        if arr.ndim == 0:
            rw[:] = float(arr)
        else:
            if arr.shape != (self.n_pages,):
                raise ValueError("residency vector has wrong length")
            rw[:] = arr
        self._invalidate()
        if (rw < -1e-12).any() or (rw > 1 + 1e-12).any():
            raise ValueError("residency must be within [0, 1]")
        np.clip(rw, 0.0, 1.0, out=rw)

    def hottest_pm_pages(self, limit: int | None = None) -> np.ndarray:
        """Indices of pages not yet (fully) in DRAM, hottest first.

        Ties are broken by page id (stable sort), so the ordering is a
        deterministic function of (rate, id) regardless of how candidates
        happen to be laid out.
        """
        candidates = np.flatnonzero(self.residency < 1.0 - 1e-12)
        order = np.argsort(-self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]

    def coldest_dram_pages(self, limit: int | None = None) -> np.ndarray:
        """Indices of pages (partially) in DRAM, coldest first; ties broken
        by page id (stable sort)."""
        candidates = np.flatnonzero(self.residency > 1e-12)
        order = np.argsort(self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]


@dataclass(frozen=True)
class MigrationBatch:
    """A set of page moves requested by a placement policy for one tick."""

    #: (object name, page indices, promote?) triples.  ``promote=True`` moves
    #: pages PM->DRAM; ``False`` demotes them DRAM->PM.
    moves: tuple[tuple[str, np.ndarray, bool], ...]

    @property
    def n_pages(self) -> int:
        return int(sum(len(idx) for _, idx, _ in self.moves))

    @property
    def bytes_moved(self) -> int:
        return self.n_pages * PAGE_SIZE


class PageTable:
    """All paged objects of a workload plus DRAM capacity accounting.

    Page state is stored struct-of-arrays (PERFORMANCE.md): one contiguous
    weight arena and one residency arena cover every object, and each
    :class:`PagedObject`'s ``weight``/``residency`` are views into them.
    There is exactly one copy of the data, so per-object methods and bulk
    arena consumers (the sim's batched kernels, sampling profilers) read
    the same bits by construction.  Object segments are padded to
    :data:`_ARENA_ALIGN` float64 lanes (one cache line) so per-object views
    keep the alignment fresh allocations would have; padding lanes are
    never written and stay zero.

    Both arenas are read-only; every write goes through a
    :class:`PagedObject` mutator, which drops the memoised
    :meth:`dram_used_bytes` and :meth:`access_fractions`.  Recomputing them
    on demand is the same per-object reductions summed in object order, so
    the memo is bit-identical to a from-scratch recomputation.
    """

    #: float64 lanes per arena segment boundary (8 * 8 B = one cache line)
    _ARENA_ALIGN = 8

    def __init__(
        self,
        objects: Iterable[DataObject],
        dram_capacity_bytes: int,
        rng=None,
    ) -> None:
        rng = make_rng(rng)
        self._objects: dict[str, PagedObject] = {}
        for spec in objects:
            if spec.name in self._objects:
                raise ValueError(f"duplicate object {spec.name!r}")
            self._objects[spec.name] = PagedObject(spec, rng=rng)
        if dram_capacity_bytes < 0:
            raise ValueError("DRAM capacity must be non-negative")
        self.dram_capacity_bytes = dram_capacity_bytes
        #: memoised ``dram_used_bytes``/``access_fractions``; every object
        #: holds this dict and clears it on a write
        self._memo: dict[str, object] = {}
        self._build_arena()

    def _build_arena(self) -> None:
        """Adopt every object's page vectors into the shared arenas."""
        objs = list(self._objects.values())
        pos = 0
        align = self._ARENA_ALIGN
        self._slices: dict[str, slice] = {}
        for o in objs:
            self._slices[o.name] = slice(pos, pos + o.n_pages)
            pos += -(-o.n_pages // align) * align
        self._weight_arena = np.zeros(pos, dtype=np.float64)
        rw, self._residency_arena = _guarded(pos)
        for o in objs:
            sl = self._slices[o.name]
            self._weight_arena[sl] = o.weight
            rw[sl] = o.residency
        self._weight_arena.flags.writeable = False
        for o in objs:
            sl = self._slices[o.name]
            o._weight = self._weight_arena[sl]
            o._rw = rw[sl]
            o._residency = self._residency_arena[sl]
            o._memo = self._memo

    # -- pickling: numpy views detach from their base under pickle, so the
    # arena is dropped and rebuilt from the objects' (copied) vectors
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_weight_arena", None)
        state.pop("_residency_arena", None)
        state.pop("_slices", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_arena()

    @property
    def weight_arena(self) -> np.ndarray:
        """The shared per-page access-weight arena (read-only).

        Object segments are located by :meth:`object_slice`; lanes between
        segments are alignment padding and always zero.
        """
        return self._weight_arena

    @property
    def residency_arena(self) -> np.ndarray:
        """The shared per-page DRAM-residency arena (read-only).

        Objects' ``residency`` views alias this memory, so batched
        consumers may read it wholesale instead of walking objects.
        """
        return self._residency_arena

    def object_slice(self, name: str) -> slice:
        """Arena slice holding ``name``'s pages (exclusive of padding)."""
        return self._slices[name]

    def __iter__(self) -> Iterator[PagedObject]:
        return iter(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def object(self, name: str) -> PagedObject:
        return self._objects[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._objects)

    @property
    def total_pages(self) -> int:
        return sum(o.n_pages for o in self)

    @property
    def total_bytes(self) -> int:
        return sum(o.spec.size_bytes for o in self)

    def dram_used_bytes(self) -> float:
        used = self._memo.get("used")
        if used is None:
            used = self._memo["used"] = sum(o.dram_bytes() for o in self)
        return used

    def dram_free_bytes(self) -> float:
        return self.dram_capacity_bytes - self.dram_used_bytes()

    def dram_free_pages(self) -> int:
        return int(self.dram_free_bytes() // PAGE_SIZE)

    def place_all(self, residency: float) -> None:
        """Blanket placement: residency for every page of every object.

        Raises if the result would not fit in DRAM (used by the DRAM-only
        baseline, which requires the footprint to fit).
        """
        need = residency * self.total_bytes
        if need > self.dram_capacity_bytes + PAGE_SIZE:
            raise ValueError(
                f"placement needs {need:.0f} B of DRAM, "
                f"capacity is {self.dram_capacity_bytes} B"
            )
        for obj in self:
            obj.set_residency(residency)

    def apply_batch(self, batch: MigrationBatch) -> int:
        """Apply a migration batch, clamping promotions to free DRAM.

        Returns the number of pages actually moved.  Demotions are applied
        first so a batch can express swap traffic (demote cold, promote hot)
        without transiently exceeding capacity.
        """
        moved = 0
        for name, idx, promote in batch.moves:
            if promote:
                continue
            obj = self.object(name)
            sel = idx[obj.residency[idx] > 1e-12]
            obj.set_pages(sel, 0.0)
            moved += len(sel)
        for name, idx, promote in batch.moves:
            if not promote:
                continue
            obj = self.object(name)
            sel = idx[obj.residency[idx] < 1.0 - 1e-12]
            free = self.dram_free_pages()
            if free <= 0:
                continue
            sel = sel[:free]
            obj.set_pages(sel, 1.0)
            moved += len(sel)
        return moved

    def _fractions(self) -> dict[str, float]:
        fractions = self._memo.get("fractions")
        if fractions is None:
            fractions = self._memo["fractions"] = {
                o.name: o.dram_access_fraction() for o in self
            }
        return fractions

    def access_fractions(self) -> dict[str, float]:
        """Per-object access-weighted DRAM fractions (``r_dram`` inputs).

        A fresh copy of the memo, so callers may mutate it freely.
        """
        return dict(self._fractions())

    def access_fraction_vectors(self) -> dict[str, tuple[float, float]]:
        """Per-object (DRAM, PM) access-fraction vectors ``(r, 1 - r)``:
        the 2-tier form of :meth:`TieredPageTable.access_fraction_vectors`
        that the machine model prices.  A fresh copy of the memo, rebuilt
        only after a residency write.
        """
        vectors = self._memo.get("vectors")
        if vectors is None:
            vectors = self._memo["vectors"] = {
                name: (r, 1.0 - r) for name, r in self._fractions().items()
            }
        return dict(vectors)

    def sample_pages(
        self, n: int, rng=None, weights: Mapping[str, np.ndarray] | None = None
    ) -> list[tuple[str, np.ndarray]]:
        """Uniformly sample ``n`` pages across the whole space.

        This is the application-agnostic random page sampling that the paper
        identifies as a root cause of load imbalance: it knows nothing about
        tasks, only addresses.  Returns per-object arrays of sampled page
        indices (with multiplicity).
        """
        rng = make_rng(rng)
        names = self.names
        sizes = np.array([self.object(nm).n_pages for nm in names])
        total = sizes.sum()
        if total == 0 or n <= 0:
            return []
        picks = rng.integers(0, total, size=n)
        bounds = np.cumsum(sizes)
        which = np.searchsorted(bounds, picks, side="right")
        out: list[tuple[str, np.ndarray]] = []
        for i, nm in enumerate(names):
            mask = which == i
            if mask.any():
                start = bounds[i] - sizes[i]
                out.append((nm, picks[mask] - start))
        return out

# ----------------------------------------------------------------------
# N-tier residency (TopologySpec-backed)
# ----------------------------------------------------------------------

class TieredPagedObject:
    """Pages of one data object across N tiers.

    ``tier_residency`` is an ``(n_tiers, n_pages)`` matrix whose columns
    sum to 1: column ``p`` says what fraction of page ``p`` lives on each
    tier (fastest first).  Software placement keeps pages fully in one
    tier (a single 1 per column); the fractional form exists for the same
    reason :class:`PagedObject`'s residency does -- hardware-cache-style
    policies account partial hits through the same vectors.
    """

    __slots__ = ("spec", "n_pages", "n_tiers", "weight", "tier_residency")

    def __init__(self, spec: DataObject, n_tiers: int, rng=None) -> None:
        if n_tiers < 2:
            raise ValueError("need at least two tiers")
        self.spec = spec
        self.n_pages = spec.n_pages
        self.n_tiers = n_tiers
        self.weight = _page_weights(spec, rng)
        self.tier_residency = np.zeros((n_tiers, self.n_pages), dtype=np.float64)
        self.tier_residency[-1, :] = 1.0  # born in the slowest tier

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def owner(self) -> str | None:
        return self.spec.owner

    def tier_pages(self, k: int) -> float:
        """Equivalent number of this object's pages resident on tier ``k``."""
        return float(self.tier_residency[k].sum())

    def tier_access_fractions(self) -> np.ndarray:
        """Access-weighted per-tier fraction vector (sums to 1)."""
        return self.tier_residency @ self.weight

    def hottest_pages_slower_than(
        self, k: int, limit: int | None = None
    ) -> np.ndarray:
        """Pages with residency on a tier slower than ``k``, hottest first
        (ties broken by page id via stable sort)."""
        slower = self.tier_residency[k + 1 :].sum(axis=0)
        candidates = np.flatnonzero(slower > 1e-12)
        order = np.argsort(-self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]

    def coldest_pages_in(self, k: int, limit: int | None = None) -> np.ndarray:
        """Pages with residency on tier ``k``, coldest first."""
        candidates = np.flatnonzero(self.tier_residency[k] > 1e-12)
        order = np.argsort(self.weight[candidates], kind="stable")
        idx = candidates[order]
        return idx if limit is None else idx[:limit]


@dataclass(frozen=True)
class TieredMigrationBatch:
    """Page moves across an N-tier topology for one tick."""

    #: (object name, page indices, destination tier index) triples
    moves: tuple[tuple[str, np.ndarray, int], ...]

    @property
    def n_pages(self) -> int:
        return int(sum(len(idx) for _, idx, _ in self.moves))

    @property
    def bytes_moved(self) -> int:
        return self.n_pages * PAGE_SIZE


class TieredPageTable:
    """All paged objects of a workload plus per-tier capacity accounting.

    Mirrors :class:`PageTable`'s struct-of-arrays layout: one weight arena
    and one ``(n_tiers, lanes)`` residency arena cover every object, with
    each object's vectors as views.  *Every* tier is capacity-checked --
    including the slowest, which the 2-tier table treats as an unbounded
    backing store -- so the conformance harness's over-commit invariant is
    enforceable uniformly.
    """

    _ARENA_ALIGN = PageTable._ARENA_ALIGN

    def __init__(
        self,
        objects: Iterable[DataObject],
        capacities_bytes: Sequence[int],
        rng=None,
    ) -> None:
        caps = tuple(int(c) for c in capacities_bytes)
        if len(caps) < 2:
            raise ValueError("need capacities for at least two tiers")
        if any(c < 0 for c in caps):
            raise ValueError("tier capacities must be non-negative")
        self.capacities_bytes = caps
        self.n_tiers = len(caps)
        rng = make_rng(rng)
        self._objects: dict[str, TieredPagedObject] = {}
        for spec in objects:
            if spec.name in self._objects:
                raise ValueError(f"duplicate object {spec.name!r}")
            self._objects[spec.name] = TieredPagedObject(
                spec, self.n_tiers, rng=rng
            )
        if self.total_pages > sum(self.tier_capacity_pages):
            raise ValueError("workload does not fit in the topology")
        self._build_arena()
        self.place_waterfall()

    # -- arena ---------------------------------------------------------
    def _build_arena(self) -> None:
        objs = list(self._objects.values())
        starts: list[int] = []
        pos = 0
        align = self._ARENA_ALIGN
        for o in objs:
            starts.append(pos)
            pos += -(-o.n_pages // align) * align
        self._weight_arena = np.zeros(pos, dtype=np.float64)
        self._residency_arena = np.zeros((self.n_tiers, pos), dtype=np.float64)
        self._slices: dict[str, slice] = {}
        for o, start in zip(objs, starts):
            sl = slice(start, start + o.n_pages)
            self._slices[o.name] = sl
            self._weight_arena[sl] = o.weight
            self._residency_arena[:, sl] = o.tier_residency
            o.weight = self._weight_arena[sl]
            o.tier_residency = self._residency_arena[:, sl]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_weight_arena", None)
        state.pop("_residency_arena", None)
        state.pop("_slices", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_arena()

    @property
    def weight_arena(self) -> np.ndarray:
        return self._weight_arena

    @property
    def residency_arena(self) -> np.ndarray:
        """The shared ``(n_tiers, lanes)`` residency arena."""
        return self._residency_arena

    def object_slice(self, name: str) -> slice:
        return self._slices[name]

    # -- mapping -------------------------------------------------------
    def __iter__(self) -> Iterator[TieredPagedObject]:
        return iter(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def object(self, name: str) -> TieredPagedObject:
        return self._objects[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._objects)

    @property
    def total_pages(self) -> int:
        return sum(o.n_pages for o in self._objects.values())

    @property
    def total_bytes(self) -> int:
        return sum(o.spec.size_bytes for o in self._objects.values())

    # -- capacity ------------------------------------------------------
    @property
    def tier_capacity_pages(self) -> tuple[int, ...]:
        return tuple(c // PAGE_SIZE for c in self.capacities_bytes)

    def tier_used_pages(self, k: int) -> float:
        return float(self._residency_arena[k].sum())

    def tier_used_bytes(self, k: int) -> float:
        return self.tier_used_pages(k) * PAGE_SIZE

    def tier_free_pages(self, k: int) -> int:
        return int(self.tier_capacity_pages[k] - self.tier_used_pages(k))

    def used_pages_vector(self) -> tuple[float, ...]:
        return tuple(self.tier_used_pages(k) for k in range(self.n_tiers))

    # -- placement -----------------------------------------------------
    def place_waterfall(self) -> None:
        """Deterministic initial placement: fill the slowest tier first,
        overflowing page-by-page into faster tiers (object insertion
        order, ascending page ids) -- what first-touch in far memory
        leaves you with, and the state every policy starts from."""
        free = list(self.tier_capacity_pages)
        for obj in self:
            obj.tier_residency[:, :] = 0.0
            placed = 0
            for k in range(self.n_tiers - 1, -1, -1):
                take = min(obj.n_pages - placed, free[k])
                if take <= 0:
                    continue
                obj.tier_residency[k, placed : placed + take] = 1.0
                free[k] -= take
                placed += take
                if placed == obj.n_pages:
                    break

    def apply_batch(self, batch: TieredMigrationBatch) -> int:
        """Apply a migration batch, clamping every move to the destination
        tier's free pages.

        Moves toward slower tiers are applied first (mirroring the 2-tier
        table's demotions-first rule) so swap traffic never transiently
        over-commits a fast tier.  Returns pages actually moved.
        """
        moved = 0
        order = sorted(
            range(len(batch.moves)),
            key=lambda i: -batch.moves[i][2],
        )
        for i in order:
            name, idx, dst = batch.moves[i]
            if not 0 <= dst < self.n_tiers:
                raise ValueError(f"destination tier {dst} out of range")
            obj = self.object(name)
            sel = idx[obj.tier_residency[dst, idx] < 1.0 - 1e-12]
            free = self.tier_free_pages(dst)
            if free <= 0:
                continue
            sel = sel[:free]
            obj.tier_residency[:, sel] = 0.0
            obj.tier_residency[dst, sel] = 1.0
            moved += len(sel)
        return moved

    # -- queries -------------------------------------------------------
    def access_fraction_vectors(self) -> dict[str, np.ndarray]:
        """Per-object per-tier access-weighted fraction vectors."""
        return {o.name: o.tier_access_fractions() for o in self}

    def sample_pages(
        self, n: int, rng=None
    ) -> list[tuple[str, np.ndarray]]:
        """Uniform page sampling across the space (see PageTable)."""
        rng = make_rng(rng)
        names = self.names
        sizes = np.array([self.object(nm).n_pages for nm in names])
        total = sizes.sum()
        if total == 0 or n <= 0:
            return []
        picks = rng.integers(0, total, size=n)
        bounds = np.cumsum(sizes)
        which = np.searchsorted(bounds, picks, side="right")
        out: list[tuple[str, np.ndarray]] = []
        for i, nm in enumerate(names):
            mask = which == i
            if mask.any():
                start = bounds[i] - sizes[i]
                out.append((nm, picks[mask] - start))
        return out
