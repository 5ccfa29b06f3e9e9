"""Precompiled execution plans for the stepwise engine.

The stepwise engine performs the device model's tile multiplies in the
device model's order, mesh-wide.  Everything that program indexes by —
the per-step owner tables, the mapping's reshape/transpose copy
recipes, the block origins — depends only on the problem *signature*,
never on operand values, so an :class:`IndexPlan` compiles it once per
``(shape, variant, params, pool)`` signature:

- the **owner tables**: the full ``(GRID, GRID*GRID)`` int32 gather
  tables, plus their :class:`~repro.core.sharing.OwnerSlots`
  compression (validated against the full tables at build time), which
  serves each sharing step's two operands as broadcast *views* over a
  4-D reshape of the tile stacks — the step's 64 tile multiplies stay
  one batched ``np.matmul``, reading owner tiles in place exactly as
  the register networks deliver them;
- the **copy recipes**: each mapping's
  :class:`~repro.core.mapping.StackCopySpec` (frozen reshape shapes,
  transpose axes and their inverses), applied to block origins held in
  contiguous int32 tables;
- the **4-D stack shapes** the broadcast formulation multiplies over.

Plans are immutable after build (every array is marked read-only), so
one plan is safely shared by all CG worker threads of a parallel
batch.  :class:`PlanCache` wraps them in the same LRU idiom as
:class:`~repro.core.context.ExecutionContext`'s staging-plan cache,
with eviction tied to a *byte budget* modeled on LDM pressure: the
default budget is one LDM's worth of bytes per core group served, so
shape churn cannot grow the cache without bound.  The build happens
under the cache lock — concurrent workers requesting the same
signature get exactly one build, which the ``plan.cache.builds``
counter asserts in the regression tests.

Everything here changes wall-clock only: a warm-plan run's outputs and
analytic DMA / register-communication statistics are bit-identical to
a cold-plan run, and to the device engine at the 16-deep tiles of
``BlockingParams.small`` (enforced by
``tests/property/test_prop_engine.py``; see
:mod:`repro.core.engine.vectorized` for the paper blocking).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.mapping import BUF_A, BUF_B, BUF_C, StackCopySpec
from repro.core.params import GRID, BlockingParams
from repro.core.sharing import OwnerSlots, step_owner_indices, step_owner_slots
from repro.obs.tracer import ensure_tracer
from repro.utils.stats import StatsProtocol

__all__ = [
    "IndexPlan",
    "PlanCache",
    "PlanCacheStats",
    "PlanSignature",
    "default_plan_cache",
]


@dataclass(frozen=True)
class PlanSignature:
    """The cache key: everything the index tables depend on.

    The tables are pure functions of the (padded) problem shape, the
    variant (scheme + mapping + buffering contract), the thread-level
    tile sizes, and the pool scope the owning cache serves — nothing
    else.  Operand *values* never enter a plan, which is what makes
    plans shareable across threads and requests.
    """

    m: int
    n: int
    k: int
    variant: str
    p_m: int
    p_n: int
    p_k: int
    double_buffered: bool
    #: the owning cache's pool size (``n_core_groups``) — plans built
    #: for different pool scopes never alias.
    scope: int


@dataclass(frozen=True)
class PlanCacheStats(StatsProtocol):
    """Counters of one plan cache (the ``plan.cache.*`` namespace)."""

    #: lookups served by a resident plan.
    hits: int
    #: lookups that found no resident plan.
    misses: int
    #: plans actually compiled (== misses: builds happen under the
    #: cache lock, so a signature is never built twice by racing
    #: threads — the regression tests assert this equality).
    builds: int
    #: plans dropped by the byte-budget LRU.
    evictions: int
    #: resident index-table bytes (must stay <= the budget).
    bytes: int
    #: resident plans.
    plans: int


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=np.int32)
    out.setflags(write=False)
    return out


class IndexPlan:
    """Every index table one stepwise execution needs, frozen.

    Built by :meth:`build` (normally via
    :meth:`PlanCache.get_or_build`) and immutable afterwards; the
    engine reads it from any number of threads concurrently.
    """

    __slots__ = (
        "signature", "scheme", "grid",
        "owner_a", "owner_b", "slots",
        "a_spec", "b_spec", "c_spec",
        "m_origins", "n_origins", "k_origins",
        "a4_shape", "b4_shape", "c4_shape",
        "nbytes",
    )

    def __init__(self, signature: PlanSignature, scheme, grid, owner_a,
                 owner_b, slots: OwnerSlots, specs, origins, shapes) -> None:
        self.signature = signature
        self.scheme = scheme
        self.grid = grid
        self.owner_a = owner_a
        self.owner_b = owner_b
        self.slots = slots
        self.a_spec, self.b_spec, self.c_spec = specs
        self.m_origins, self.n_origins, self.k_origins = origins
        self.a4_shape, self.b4_shape, self.c4_shape = shapes
        self.nbytes = (
            self.owner_a.nbytes + self.owner_b.nbytes
            + self.slots.a_slots.nbytes + self.slots.b_slots.nbytes
            + self.m_origins.nbytes + self.n_origins.nbytes
            + self.k_origins.nbytes
            + self.a_spec.nbytes + self.b_spec.nbytes + self.c_spec.nbytes
        )

    @classmethod
    def build(cls, signature: PlanSignature, impl,
              params: BlockingParams) -> "IndexPlan":
        """Compile the plan for one admissible (shape, variant) pair."""
        scheme = impl.scheme
        grid = params.check_shape(signature.m, signature.n, signature.k)
        grid_m, grid_n, grid_k = grid
        owner_a, owner_b = (
            _freeze(table) for table in step_owner_indices(scheme)
        )
        slots = step_owner_slots(scheme)
        expanded_a, expanded_b = slots.expand()
        if not (np.array_equal(expanded_a, owner_a)
                and np.array_equal(expanded_b, owner_b)):  # pragma: no cover
            raise ConfigError(
                f"owner-slot compression disagrees with the full "
                f"{scheme.value!r} gather tables — plan build aborted"
            )
        specs = impl.mapping_cls(params).copy_specs
        p = params
        return cls(
            signature=signature,
            scheme=scheme,
            grid=grid,
            owner_a=owner_a,
            owner_b=owner_b,
            slots=slots,
            specs=(specs[BUF_A], specs[BUF_B], specs[BUF_C]),
            origins=(
                _freeze(np.arange(grid_m) * p.b_m),
                _freeze(np.arange(grid_n) * p.b_n),
                _freeze(np.arange(grid_k) * p.b_k),
            ),
            shapes=(
                (GRID, GRID, p.p_m, p.p_k),
                (GRID, GRID, p.p_k, p.p_n),
                (GRID, GRID, p.p_m, p.p_n),
            ),
        )

    # -- execution surface ----------------------------------------------

    def load_a(self, mat: np.ndarray, blk_i: int, blk_l: int,
               stack: np.ndarray) -> None:
        self.a_spec.gather(mat, self.m_origins[blk_i], self.k_origins[blk_l],
                           stack)

    def load_b(self, mat: np.ndarray, blk_l: int, blk_j: int,
               stack: np.ndarray) -> None:
        self.b_spec.gather(mat, self.k_origins[blk_l], self.n_origins[blk_j],
                           stack)

    def load_c(self, mat: np.ndarray, blk_i: int, blk_j: int,
               stack: np.ndarray) -> None:
        self.c_spec.gather(mat, self.m_origins[blk_i], self.n_origins[blk_j],
                           stack)

    def store_c(self, mat: np.ndarray, blk_i: int, blk_j: int,
                stack: np.ndarray) -> None:
        self.c_spec.scatter(mat, self.m_origins[blk_i], self.n_origins[blk_j],
                            stack)

    def step_views(self, a4: np.ndarray, b4: np.ndarray,
                   step: int) -> tuple[np.ndarray, np.ndarray]:
        """The two operand views of sharing step ``step`` — no copies.

        Over the 4-D stacks, selecting the owner line and broadcasting
        it against the free mesh axis reproduces the full gather tables
        exactly (the slot compression validated at build time): entry
        ``(r, c)`` of the broadcast product multiplies the same two
        tiles ``step_owner_indices`` would have gathered, so the
        batched ``np.matmul`` performs the identical BLAS calls on the
        identical operands — bit for bit.
        """
        if self.slots.a_axis == 1:
            # pe scheme: column `step` owns A, row `step` owns B
            return a4[:, step][:, None], b4[step][None, :]
        # row scheme: the Sec IV-A ownership transpose
        return a4[step][None, :], b4[:, step][:, None]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.signature
        return (
            f"IndexPlan({s.variant} {s.m}x{s.n}x{s.k}, "
            f"grid={self.grid}, {self.nbytes} B)"
        )


class PlanCache:
    """A byte-budgeted LRU of :class:`IndexPlan`\\ s, safe across threads.

    The idiom is :class:`~repro.core.context.ExecutionContext`'s
    staging-plan cache — ``OrderedDict`` recency order, move-to-end on
    hit, evict from the cold end — applied to index plans and bounded
    by *bytes* instead of entry count.  The default budget models LDM
    pressure: one 64 KB LDM's worth of bytes per core group served
    (``spec.ldm_doubles * 8 * n_core_groups``), roughly a dozen
    resident plans per CG, so a serving tier cycling through shape bins
    keeps its working set warm while unbounded shape churn evicts
    oldest-first.

    ``get_or_build`` holds the cache lock across the build.  That is a
    deliberate throughput trade: a build costs microseconds (index
    algebra only, no operand traffic), and serializing it guarantees
    **one build per signature per cache** no matter how many CG workers
    race on the same shape — the property the ``builds`` counter
    asserts in CI.
    """

    def __init__(
        self,
        *,
        spec: SW26010Spec = DEFAULT_SPEC,
        n_core_groups: int = 1,
        max_bytes: int | None = None,
    ) -> None:
        pool = int(n_core_groups)
        if pool < 1:
            raise ConfigError(f"n_core_groups must be >= 1, got {pool}")
        if max_bytes is None:
            max_bytes = pool * spec.ldm_doubles * 8
        max_bytes = int(max_bytes)
        if max_bytes < 1:
            raise ConfigError(f"max_bytes must be >= 1, got {max_bytes}")
        self.n_core_groups = pool
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._plans: OrderedDict[PlanSignature, IndexPlan] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._builds = 0
        self._evictions = 0

    def signature(self, impl, params: BlockingParams, m: int, n: int,
                  k: int) -> PlanSignature:
        """The cache key for one admissible call."""
        return PlanSignature(
            m=int(m), n=int(n), k=int(k),
            variant=impl.traits.name,
            p_m=params.p_m, p_n=params.p_n, p_k=params.p_k,
            double_buffered=params.double_buffered,
            scope=self.n_core_groups,
        )

    def get_or_build(self, impl, params: BlockingParams, m: int, n: int,
                     k: int, tracer=None) -> IndexPlan:
        """Return the resident plan for this signature, building at most once.

        A build is reported as a ``plan.build`` span on ``tracer`` (so
        the trace CLI's phase report separates plan compilation from
        execution time); hits cost one lock acquisition and a dict
        lookup.
        """
        sig = self.signature(impl, params, m, n, k)
        with self._lock:
            plan = self._plans.get(sig)
            if plan is not None:
                self._plans.move_to_end(sig)
                self._hits += 1
                return plan
            self._misses += 1
            with ensure_tracer(tracer).span(
                "plan.build", cat="plan", variant=sig.variant,
                m=sig.m, n=sig.n, k=sig.k,
            ):
                plan = IndexPlan.build(sig, impl, params)
            self._builds += 1
            self._plans[sig] = plan
            self._bytes += plan.nbytes
            # keep at least the plan just built: a single oversized plan
            # must still execute, it just pins the cache to one entry.
            while self._bytes > self.max_bytes and len(self._plans) > 1:
                _, victim = self._plans.popitem(last=False)
                self._bytes -= victim.nbytes
                self._evictions += 1
            return plan

    def clear(self) -> None:
        """Drop every resident plan (``Session.close`` drains through here)."""
        with self._lock:
            self._plans.clear()
            self._bytes = 0

    def stats(self) -> PlanCacheStats:
        """A consistent counter snapshot (lock-held read)."""
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                builds=self._builds,
                evictions=self._evictions,
                bytes=self._bytes,
                plans=len(self._plans),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __bool__(self) -> bool:
        # a cache is always truthy — never let "empty" read as "absent"
        # at `plan_cache or default_plan_cache()` call sites.
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"PlanCache(plans={s.plans}, bytes={s.bytes}/{self.max_bytes}, "
            f"hits={s.hits}, builds={s.builds})"
        )


#: lazily built process-wide cache for callers that pass no cache of
#: their own (bare ``dgemm`` calls) — this is what makes "one build per
#: signature per process" hold by default.
_DEFAULT_CACHE: PlanCache | None = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache (built on first use).

    Scoped to the chip's four core groups, so its byte budget covers
    the largest pool a bare call can be dispatched over.  Sessions and
    schedulers own *their own* caches (drained on close); this one
    backs unscoped entry points.
    """
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = PlanCache(n_core_groups=4)
        return _DEFAULT_CACHE
