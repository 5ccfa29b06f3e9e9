"""Scoped staging of DGEMM operands in core-group main memory.

The paper's host-side contract (Sec II/IV) is that the MPE stages
operands into the CG's main memory, the CPE cluster streams blocks via
DMA, and the result is read back.  :class:`ExecutionContext` is that
contract as a first-class object with a safe lifecycle:

- **unique handle names** — every context draws a process-unique
  namespace, so calls sharing one :class:`CoreGroup` can never clobber
  each other's staged operands; genuine name collisions raise
  :class:`~repro.errors.ConfigError` instead of silently overwriting;
- **guaranteed free-on-exit** — staged handles are released when the
  context closes (``with`` block or :meth:`close`), even when a variant
  raises mid-run, so ``MainMemory.used_bytes`` always returns to its
  pre-call baseline;
- **staging-plan cache** — plans are keyed on ``(slot, rows, cols)``
  (dtype and order are fixed by the model: f64, column-major; the
  blocking parameters enter through the padded target shape), so a
  batch of same-shape multiplies restages resident regions in place
  instead of reallocating per item;
- **zero-copy staging** — an operand that is already float64,
  Fortran-contiguous and at its staged shape is bound into main memory
  as a read-only view of the caller's array instead of being copied;
  the counters, which describe the modelled memory, read the same
  either way;
- **per-context stat deltas** — DMA, register-communication and
  staging counters are exposed relative to the context's baseline, so
  batch accounting needs no manual snapshot bookkeeping.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.errors import ConfigError
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.arch.core_group import CoreGroup
from repro.arch.memory import MatrixHandle
from repro.utils.stats import StatsProtocol

__all__ = ["ContextStats", "ExecutionContext"]

#: process-wide source of unique context namespaces.
_CONTEXT_IDS = count(1)


@dataclass(frozen=True)
class ContextStats(StatsProtocol):
    """Traffic and staging counters attributed to one context.

    ``delta``/``plus``/``zero``/``as_dict`` come from
    :class:`~repro.utils.stats.StatsProtocol`; :meth:`since` is the
    delta spelled in baseline terms, kept because "traffic since that
    snapshot" is how every caller reads.
    """

    #: bytes moved by DMA between main memory and LDM.
    dma_bytes: int
    dma_transactions: int
    #: bytes moved over the register-communication mesh.
    regcomm_bytes: int
    #: operands staged through this context.
    staged: int
    #: stagings served by the plan cache (an in-place restage).
    plan_hits: int
    #: new main-memory regions the model allocated.  A model fact, not
    #: a host copy: a bound operand counts as a copied one would.
    allocations: int

    def since(self, earlier: "ContextStats") -> "ContextStats":
        """Counter deltas relative to an earlier snapshot."""
        return self.delta(earlier)


class ExecutionContext:
    """A scope that owns every operand it stages on a core group.

    Use as a context manager around a sequence of calls that should
    share staging plans (the batched hot path), or let
    :func:`repro.core.api.dgemm` create a throwaway one per call::

        with ExecutionContext(cg) as ctx:
            for item in items:
                dgemm(item.a, item.b, context=ctx, pad=True)
        # every staged handle is freed here, raise or no raise

    The plan cache holds at most ``cache_capacity`` resident staging
    allocations (least-recently-used eviction), which bounds the
    context's footprint when shapes keep changing, as in a shrinking LU
    trailing sequence.
    """

    def __init__(
        self,
        core_group: CoreGroup | None = None,
        *,
        spec: SW26010Spec = DEFAULT_SPEC,
        namespace: str | None = None,
        cache_capacity: int = 6,
    ) -> None:
        if cache_capacity < 1:
            raise ConfigError(f"cache_capacity must be >= 1, got {cache_capacity}")
        self.core_group = core_group or CoreGroup(spec)
        self.namespace = namespace or f"ctx{next(_CONTEXT_IDS)}"
        self.cache_capacity = cache_capacity
        #: (slot, rows, cols) -> resident handle name, LRU order.
        self._plans: OrderedDict[tuple[str, int, int], str] = OrderedDict()
        self._entered = False
        self._busy = False
        self._staged = 0
        self._plan_hits = 0
        self._allocations = 0
        self._mark_baselines()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ExecutionContext":
        if self._entered:
            raise ConfigError(
                f"ExecutionContext {self.namespace!r} is not reentrant"
            )
        self._entered = True
        self._mark_baselines()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._entered = False
        self.close()
        return False

    def close(self) -> None:
        """Free every handle this context staged (idempotent)."""
        memory = self.core_group.memory
        while self._plans:
            _, name = self._plans.popitem(last=False)
            try:
                memory.free(name)
            except KeyError:
                pass  # already released externally

    @classmethod
    @contextlib.contextmanager
    def scoped(
        cls,
        context: "ExecutionContext | None" = None,
        core_group: CoreGroup | None = None,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        """Yield ``context`` unchanged, or a fresh context closed on exit.

        This is the shared entry idiom of ``dgemm`` and the application
        layers: an externally supplied context keeps its staging plans
        alive across calls; an internally created one is a per-call
        scope that frees its operands no matter how the body exits.
        """
        if context is not None:
            if core_group is not None and context.core_group is not core_group:
                raise ConfigError(
                    "core_group differs from context.core_group — pass one "
                    "or the other, not two different devices"
                )
            yield context
            return
        with cls(core_group, spec=spec) as ctx:
            yield ctx

    @contextlib.contextmanager
    def executing(self):
        """Guard one device call; rejects interleaved use of a context.

        Two in-flight calls sharing a context would race on its staging
        slots, which is exactly the silent-clobber bug fixed by
        per-context namespaces — so it raises loudly instead.
        """
        if self._busy:
            raise ConfigError(
                f"ExecutionContext {self.namespace!r} is already executing a "
                "call; interleaved calls must use separate contexts"
            )
        self._busy = True
        try:
            yield self
        finally:
            self._busy = False

    # -- staging -------------------------------------------------------

    def stage(
        self,
        slot: str,
        array: np.ndarray,
        rows: int | None = None,
        cols: int | None = None,
    ) -> MatrixHandle:
        """Stage input operand ``array`` under this context's ``slot``.

        ``rows``/``cols`` grow the target region with zero padding.  An
        operand that is float64, Fortran-contiguous and already at the
        target shape is bound as a read-only view of ``array``
        (:meth:`MainMemory.bind <repro.arch.memory.MainMemory.bind>`):
        no copy, and an engine write to it raises.  Any other operand
        (another dtype or layout, a broadcast, or padded here) is copied
        once.  A same-``(slot, shape)`` restage counts as a plan hit and
        an in-place store either way.
        """
        array = np.asarray(array)
        if array.ndim != 2:
            raise ConfigError(f"expected a 2-D matrix, got ndim={array.ndim}")
        r, c = array.shape
        t_rows = r if rows is None else int(rows)
        t_cols = c if cols is None else int(cols)
        if (array.dtype == np.float64 and array.flags.f_contiguous
                and (r, c) == (t_rows, t_cols)):
            view = array.view()
            view.flags.writeable = False
            return self._stage(slot, view, t_rows, t_cols, bind=True)
        return self._stage(slot, array, t_rows, t_cols)

    def bind(self, slot: str, array: np.ndarray) -> MatrixHandle:
        """Stage ``array`` itself, writeable, as ``slot``'s matrix.

        The output path: :func:`~repro.core.api.dgemm` binds the result
        array it will return as C, and the engine accumulates into it.
        ``array`` must be 2-D, Fortran-contiguous float64.
        """
        return self._stage(slot, array, *array.shape, bind=True)

    def stage_zeros(self, slot: str, rows: int, cols: int) -> MatrixHandle:
        """Stage a zeroed ``rows x cols`` matrix (no input copy)."""
        return self._stage(slot, None, rows, cols)

    def _stage(
        self, slot: str, array: np.ndarray | None, rows: int, cols: int,
        bind: bool = False,
    ) -> MatrixHandle:
        if not self._entered:
            raise ConfigError(
                f"ExecutionContext {self.namespace!r} is not open — stage "
                "inside its 'with' block so every staged operand is "
                "guaranteed to be freed"
            )
        memory = self.core_group.memory
        key = (str(slot), rows, cols)
        name = self._plans.get(key)
        if name is None:
            name = f"{self.namespace}.{slot}[{rows}x{cols}]"
            if any(h.name == name for h in memory.handles()):
                raise ConfigError(
                    f"staging name {name!r} already exists in this core "
                    "group's main memory — another owner holds it; stage "
                    "through a context with a distinct namespace"
                )
        else:
            self._plans.move_to_end(key)
            self._plan_hits += 1
        allocations_before = memory.stats.allocations
        handle = (memory.bind(name, array) if bind
                  else memory.store(name, array, rows=rows, cols=cols))
        self._staged += 1
        self._allocations += memory.stats.allocations - allocations_before
        if key not in self._plans:
            self._plans[key] = name
            while len(self._plans) > self.cache_capacity:
                _, victim = self._plans.popitem(last=False)
                try:
                    memory.free(victim)
                except KeyError:
                    pass
        return handle

    def read(self, handle: MatrixHandle | str) -> np.ndarray:
        """Defensive copy of a staged matrix (result read-back)."""
        return self.core_group.memory.read(handle)

    # -- accounting ----------------------------------------------------

    def _mark_baselines(self) -> None:
        cg = self.core_group
        self._bytes0 = cg.memory.used_bytes
        self._dma_bytes0 = cg.dma.stats.bytes_total
        self._dma_tx0 = cg.dma.stats.transactions
        self._regcomm0 = cg.regcomm.stats.bytes_moved

    @property
    def baseline_bytes(self) -> int:
        """``MainMemory.used_bytes`` when this context (re)opened.

        The memory-budget invariant: after the context closes,
        ``used_bytes`` is back at this value.
        """
        return self._bytes0

    @property
    def staged_names(self) -> tuple[str, ...]:
        """Handle names currently held by the plan cache."""
        return tuple(self._plans.values())

    @property
    def dma_bytes(self) -> int:
        return self.core_group.dma.stats.bytes_total - self._dma_bytes0

    @property
    def dma_transactions(self) -> int:
        return self.core_group.dma.stats.transactions - self._dma_tx0

    @property
    def regcomm_bytes(self) -> int:
        return self.core_group.regcomm.stats.bytes_moved - self._regcomm0

    def stats(self) -> ContextStats:
        """All per-context deltas in one frozen record."""
        return ContextStats(
            dma_bytes=self.dma_bytes,
            dma_transactions=self.dma_transactions,
            regcomm_bytes=self.regcomm_bytes,
            staged=self._staged,
            plan_hits=self._plan_hits,
            allocations=self._allocations,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionContext({self.namespace!r}, plans={len(self._plans)}, "
            f"staged={self._staged}, hits={self._plan_hits})"
        )
