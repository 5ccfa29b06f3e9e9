"""Public DGEMM entry point.

``dgemm`` wraps the whole device pipeline: stage operands into the core
group's main memory, run the chosen variant's functional execution, and
hand the result back.  It mirrors the BLAS contract (non-transposed,
column-major, f64) with the paper's shape restriction — dimensions must
be multiples of the CG block factors — relaxed by ``pad=True``.

Staging goes through a scoped :class:`~repro.core.context.ExecutionContext`:
operands get context-unique handle names (so concurrent calls sharing a
core group cannot clobber each other), and every staged handle is freed
when the scope exits — including when a variant raises — so
``MainMemory.used_bytes`` always returns to its pre-call baseline.  Pass
``context=`` to share staging plans across calls (the batched hot path).

The host copies only what the model cannot use in place.  A and B
that are Fortran-ordered float64 at their staged shape are bound as
read-only views of the caller's arrays; others are copied once.  C is
staged as the array ``dgemm`` returns (zeros, or one copy of the
caller's C), so the engine accumulates into the result and nothing is
copied out.  Only host-padded staging copies C in and the result out.
The staging counters (:class:`~repro.core.context.ContextStats`,
:class:`~repro.arch.memory.MemoryStats`) are facts of the modelled
memory and read the same whichever way an operand is staged.

Padding is a fact of the modeled device.  The engine decides how much
of it the host holds (:meth:`~repro.core.engine.Engine.needs_padded_staging`):
the fused ``vectorized`` engine stages the shared variants' operands at
their logical extents and only books the padded block grid, while
``device``, ``stepwise`` and RAW stage zero-padded operands.
"""

from __future__ import annotations

import numpy as np

from repro.api import apply_trans, as_gemm_request
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.arch.core_group import CoreGroup
from repro.core.context import ExecutionContext
from repro.core.engine import DEFAULT_ENGINE, get_engine
from repro.core.engine.plans import default_plan_cache
from repro.core.params import BlockingParams
from repro.core.reference import contract_violation
from repro.core.variants import get_variant
from repro.obs.registry import (
    cg_meter,
    combine_meters,
    context_meter,
    plan_cache_meter,
)
from repro.obs.tracer import ensure_tracer

__all__ = ["dgemm"]


def dgemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: str = "N",
    transb: str = "N",
    variant: str = "SCHED",
    engine: str = DEFAULT_ENGINE,
    params: BlockingParams | None = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    core_group: CoreGroup | None = None,
    context: ExecutionContext | None = None,
    pad: bool = False,
    check: bool = False,
    tracer=None,
    plan_cache=None,
) -> np.ndarray:
    """Compute ``alpha * a @ b + beta * c`` on the simulated CG.

    Parameters
    ----------
    a, b, c:
        f64 matrices (any memory order; staged column-major).  They are
        never written.  Fortran-ordered ``a`` and ``b`` are read in
        place while the call runs, so a caller mutating them from
        another thread during the call races with the kernel, as with
        any BLAS.  ``c``
        may be omitted when ``beta == 0``; with ``beta == 0`` it is
        never read (only its shape is checked), and with ``alpha == 0``
        neither are ``a`` and ``b``, as in reference BLAS.  A zero
        ``m``, ``n`` or ``k`` returns early, as in reference BLAS:
        nothing is staged, and the result is ``beta * c`` (zeros when
        ``beta == 0``), empty when ``m`` or ``n`` is 0.
    transa, transb:
        ``"N"`` or ``"T"``.  The paper implements only the
        non-transposed case; ``"T"`` is an extension handled by staging
        an explicit transpose on the MPE before the CG kernel runs (the
        approach production libraries use for unsupported layouts).
        Every call is normalized through
        :func:`repro.api.as_gemm_request`.
    variant:
        one of ``RAW``, ``PE``, ``ROW``, ``DB``, ``SCHED`` (default:
        the paper's best version).
    engine:
        ``"vectorized"`` (the default, fused BLAS panel products),
        ``"device"`` (every per-CPE transfer and broadcast executed
        through the checked device model) or ``"stepwise"`` (the
        plan-compiled stacked-tile program).  All three book identical
        traffic statistics and meet one tolerance contract against
        :func:`~repro.core.reference.reference_dgemm`; see
        :mod:`repro.core.engine`.
    params:
        blocking parameters; defaults to the variant's paper values.
        Pass :meth:`BlockingParams.small` for fast experimentation.
    core_group:
        low-level escape hatch: reuse an existing device (e.g. to
        accumulate DMA statistics); a fresh one is built otherwise.
        Staged operands are always freed on return, so sharing a
        device never leaks its byte budget.  Callers who don't need
        explicit device management should use
        :class:`repro.core.session.Session` instead.
    context:
        stage through an existing :class:`ExecutionContext` instead of
        a per-call scope.  Same-shape calls then reuse staging
        allocations in place, and the *context's* owner decides when
        the handles are freed.  Mutually consistent with
        ``core_group`` (they must name the same device).
    pad:
        run a shape that is not a multiple of the CG block factors on
        the padded block grid instead of raising
        :class:`~repro.errors.UnsupportedShapeError` (raised before
        anything is staged) — an extension beyond the paper, which only
        handles exact multiples.  The statistics always book the padded
        grid; the zeros are materialized in main memory only for
        ``device``, ``stepwise`` and RAW.
    check:
        verify the result against the engine contract
        (:func:`~repro.core.reference.contract_violation`: NaN and Inf
        positions exact, finite entries within
        :func:`~repro.core.reference.contract_bound`) and raise
        ``AssertionError`` on a violation (debugging aid).
    tracer:
        a :class:`repro.obs.SpanTracer` to record phase spans into
        (``dgemm`` → ``stage_A``/``stage_B``/``stage_C``/``strip_mult``
        /``store_C``, plus ``plan.build`` when an execution plan is
        compiled) with counter deltas attached; ``None`` (the default)
        resolves to the no-op tracer.
    plan_cache:
        a :class:`repro.core.engine.plans.PlanCache` supplying compiled
        index plans to the plan-aware engines; ``None`` (the default)
        uses the process-wide cache, so repeated shapes build their
        plan exactly once per process.  Sessions and schedulers pass
        their own (drained on close).

    Returns
    -------
    numpy.ndarray
        the m x n result, column-major: a new array, owned by the
        caller; later calls on the same context never write it.
    """
    request = as_gemm_request(
        a, b, c, alpha=alpha, beta=beta, transa=transa, transb=transb
    )
    impl = get_variant(variant)
    eng = get_engine(engine)
    params = params or impl.default_params()

    a = apply_trans(
        "transa", request.transa, np.asarray(request.a, dtype=np.float64)
    )
    b = apply_trans(
        "transb", request.transb, np.asarray(request.b, dtype=np.float64)
    )
    m, k = a.shape
    k2, n = b.shape
    c = request.c
    if c is not None:
        c = np.asarray(c, dtype=np.float64)
    if 0 in (m, n, k):
        # BLAS quick return: nothing is staged and no traffic is booked
        if beta == 0:
            return np.zeros((m, n), dtype=np.float64, order="F")
        return np.asfortranarray(float(beta) * c)

    if eng.needs_padded_staging(impl):
        pm, pn, pk = params.pad_shape(m, n, k) if pad else (m, n, k)
    else:
        # the engine clips to the logical extents and books the padded
        # grid itself, so the paper's shape rule is checked here, before
        # anything is staged
        if not pad:
            params.check_shape(m, n, k)
        pm, pn, pk = m, n, k

    tracer = ensure_tracer(tracer)
    pc = default_plan_cache() if plan_cache is None else plan_cache
    with ExecutionContext.scoped(context, core_group, spec) as ctx, ctx.executing():
        cg = ctx.core_group
        with tracer.span(
            "dgemm", cat="dgemm",
            meter=combine_meters(context_meter(ctx), plan_cache_meter(pc)),
            m=m, n=n, k=k, variant=str(variant).upper(), engine=eng.name,
            flops=2 * m * n * k,
        ):
            meter = cg_meter(cg)
            # BLAS: alpha == 0 never reads A or B, so an Inf there
            # cannot leak; zeros keep the slots, shapes and stats.
            with tracer.span("stage_A", cat="stage", meter=meter):
                ha = (
                    ctx.stage("A", a, rows=pm, cols=pk)
                    if alpha != 0 else ctx.stage_zeros("A", pm, pk)
                )
            with tracer.span("stage_B", cat="stage", meter=meter):
                hb = (
                    ctx.stage("B", b, rows=pk, cols=pn)
                    if alpha != 0 else ctx.stage_zeros("B", pk, pn)
                )
            # BLAS: beta == 0 never reads C, so a NaN there cannot leak
            read_c = c is not None and beta != 0
            host_padded = (pm, pn) != (m, n)
            with tracer.span("stage_C", cat="stage", meter=meter):
                if host_padded:
                    hc = (ctx.stage("C", c, rows=pm, cols=pn) if read_c
                          else ctx.stage_zeros("C", pm, pn))
                else:
                    # the engine accumulates into the array returned
                    result = (np.array(c, order="F", copy=True) if read_c
                              else np.zeros((m, n), order="F"))
                    hc = ctx.bind("C", result)
            eng.run(impl, cg, ha, hb, hc, alpha=alpha, beta=beta,
                    params=params, tracer=tracer, plan_cache=pc)
            # the span stays on every call, so traces keep one shape
            with tracer.span("store_C", cat="stage", meter=meter):
                if host_padded:
                    result = np.array(cg.memory.array(hc)[:m, :n],
                                      order="F", copy=True)

    if check:
        base = c if c is not None else np.zeros((m, n), dtype=np.float64, order="F")
        violation = contract_violation(result, alpha, a, b, beta, base)
        if violation is not None:
            raise AssertionError(
                f"{impl.traits.name} result deviates from reference: "
                f"{violation}"
            )
    return result
