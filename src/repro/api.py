"""Typed request/response surface shared by ``Session`` and ``repro.serve``.

A serving tier cannot be built on kwargs: a request must carry its
*shape metadata* (for per-request routing and bin coalescing), its
*options* (engine, check) and come back as a *structured response*
(value, per-request traffic and timing, or a typed error — never a
bare exception string).

This module is that surface:

- :class:`GemmRequest` / :class:`LuRequest` / :class:`ConvRequest` —
  one immutable dataclass per workload, each knowing how to validate
  itself, report its effective shape, compute its padded *shape bin*
  (the coalescing key), and hash its operand contents (the serving
  tier's operand-cache key);
- :class:`SubmitOptions` — per-request execution options (engine,
  result checking), hashable so same-option requests can share one
  dispatched batch;
- :class:`RequestResult` / :class:`RequestError` — the structured
  response: value, per-request staging/DMA/regcomm traffic delta,
  queue/service timing, and a typed error instead of a raise;
- :func:`as_request` / :func:`as_gemm_request` — the single
  normalization funnel every public entry point routes through.

Sync ``Session.batch``/``Session.submit`` and async ``repro.serve``
consume these dataclasses verbatim.

Import discipline: this module sits *below* ``repro.core`` — at
runtime it imports only :mod:`repro.errors` and numpy, so the core
entry points can route through it without cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.errors import ConfigError, UnsupportedShapeError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.context import ContextStats
    from repro.core.params import BlockingParams

__all__ = [
    "DEFAULT_SUBMIT_OPTIONS",
    "ConvRequest",
    "GemmRequest",
    "LuRequest",
    "Request",
    "RequestError",
    "RequestResult",
    "SubmitOptions",
    "apply_trans",
    "as_gemm_request",
    "as_request",
    "format_bin",
]


def apply_trans(name: str, flag: str, array: np.ndarray) -> np.ndarray:
    """Resolve a BLAS trans flag to a (possibly transposed) view.

    The MPE materializes the transpose during the single staging copy,
    so ``"T"`` costs no extra host-side pass.
    """
    flag = str(flag).upper()
    if flag == "N":
        return array
    if flag == "T":
        return array.T
    raise UnsupportedShapeError(
        f"{name} must be 'N' or 'T', got {flag!r} (conjugate transpose "
        "is meaningless for real matrices)"
    )


def _hash_array(digest: "hashlib._Hash", array: np.ndarray) -> None:
    """Feed one operand's shape, memory layout and bytes to ``digest``.

    A float64 operand that is C- or Fortran-contiguous is hashed
    through its own buffer, with no copy; the layout tag keeps a
    Fortran-ordered ``A`` apart from a C-ordered array holding the
    bytes of ``A.T``.  Any other operand takes one conversion copy to
    C-ordered float64 and so hashes like that copy.
    """
    if array.dtype != np.float64 or not (
        array.flags.c_contiguous or array.flags.f_contiguous
    ):
        array = np.ascontiguousarray(array, dtype=np.float64)
    layout = "C" if array.flags.c_contiguous else "F"
    digest.update(f"{array.shape}|{layout}".encode())
    # a Fortran-ordered buffer is the C-ordered buffer of the transpose
    digest.update((array if layout == "C" else array.T).data)


# -- requests -----------------------------------------------------------


@dataclass(frozen=True)
class GemmRequest:
    """One ``alpha * op(A) @ op(B) + beta * C`` multiply.

    The canonical batch/serving work unit: exactly the fields the
    scalar :func:`repro.core.api.dgemm` accepts, as one immutable
    value.  ``C`` may be ``None`` when ``beta == 0``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None
    alpha: float = 1.0
    beta: float = 0.0
    transa: str = "N"
    transb: str = "N"

    #: workload discriminator used for binning and reporting.
    kind: ClassVar[str] = "gemm"

    def validate(self) -> tuple[int, int, int]:
        """Check shapes and flags; return the effective ``(m, n, k)``.

        The returned shape accounts for ``transa``/``transb``.  A bad
        request raises :class:`UnsupportedShapeError` *here*, before
        anything is staged on a device.
        """
        a = np.asarray(self.a)
        b = np.asarray(self.b)
        if a.ndim != 2 or b.ndim != 2:
            raise UnsupportedShapeError(
                "operands must be 2-D matrices, got "
                f"A ndim={a.ndim}, B ndim={b.ndim}"
            )
        for name, flag in (("transa", self.transa), ("transb", self.transb)):
            if str(flag).upper() not in ("N", "T"):
                raise UnsupportedShapeError(
                    f"{name} must be 'N' or 'T', got {flag!r}"
                )
        m, k = _trans_shape(self.transa, (int(a.shape[0]), int(a.shape[1])))
        k2, n = _trans_shape(self.transb, (int(b.shape[0]), int(b.shape[1])))
        if k2 != k:
            raise UnsupportedShapeError(
                f"A is {a.shape} (transa={self.transa!r}) but B is "
                f"{b.shape} (transb={self.transb!r}) — inner dimensions "
                f"{k} != {k2}"
            )
        if self.c is None:
            if self.beta != 0.0:
                raise UnsupportedShapeError(
                    f"beta={self.beta} requires an input C"
                )
        else:
            c = np.asarray(self.c)
            if c.shape != (m, n):
                raise UnsupportedShapeError(f"C is {c.shape}, expected {(m, n)}")
        return (m, n, k)

    def shape_bin(self, params: "BlockingParams") -> tuple[Any, ...]:
        """The coalescing key: kind plus the padded ``(m, n, k)``.

        Requests with equal bins share one staging plan on a CG, which
        is exactly what the serving tier batches together.
        """
        m, n, k = self.validate()
        return (self.kind, *params.pad_shape(m, n, k))

    def content_hash(self) -> str:
        """Digest of operand *contents* plus every compute attribute.

        Two requests with equal hashes produce bit-identical results
        on the same engine — the serving tier's operand-cache key.
        """
        digest = hashlib.sha256()
        digest.update(
            f"{self.kind}|{self.alpha!r}|{self.beta!r}"
            f"|{str(self.transa).upper()}|{str(self.transb).upper()}".encode()
        )
        _hash_array(digest, np.asarray(self.a))
        _hash_array(digest, np.asarray(self.b))
        if self.c is not None:
            _hash_array(digest, np.asarray(self.c))
        return digest.hexdigest()


def _trans_shape(flag: str, shape: tuple[int, int]) -> tuple[int, int]:
    return (shape[1], shape[0]) if str(flag).upper() == "T" else shape


@dataclass(frozen=True)
class LuRequest:
    """One blocked LU factorization (``PA = LU``) of a square matrix."""

    a: np.ndarray
    panel: int = 64

    kind: ClassVar[str] = "lu"

    def validate(self) -> tuple[int, int, int]:
        """Check the matrix; return ``(n, n, panel)`` as the shape."""
        a = np.asarray(self.a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UnsupportedShapeError(
                f"blocked_lu needs a square matrix, got {a.shape}"
            )
        if self.panel < 1:
            raise ConfigError(f"panel width must be >= 1, got {self.panel}")
        return (int(a.shape[0]), int(a.shape[1]), int(self.panel))

    def shape_bin(self, params: "BlockingParams") -> tuple[Any, ...]:
        n, _, panel = self.validate()
        return (self.kind, n, panel)

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(f"{self.kind}|{self.panel}".encode())
        _hash_array(digest, np.asarray(self.a))
        return digest.hexdigest()


@dataclass(frozen=True)
class ConvRequest:
    """One 2-D convolution (NCHW images, OIHW kernels) lowered to GEMM."""

    images: np.ndarray
    kernels: np.ndarray
    stride: int = 1

    kind: ClassVar[str] = "conv"

    def _dims(self) -> tuple[int, int, int, int, int, int, int, int]:
        images = np.asarray(self.images)
        kernels = np.asarray(self.kernels)
        if images.ndim != 4:
            raise UnsupportedShapeError(
                f"expected NCHW images, got shape {images.shape}"
            )
        if kernels.ndim != 4:
            raise UnsupportedShapeError(
                f"expected OIHW kernels, got shape {kernels.shape}"
            )
        n, c, h, w = (int(d) for d in images.shape)
        o, ci, kh, kw = (int(d) for d in kernels.shape)
        if ci != c:
            raise UnsupportedShapeError(
                f"kernel expects {ci} input channels, images have {c}"
            )
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if h < kh or w < kw:
            raise UnsupportedShapeError(
                f"images {h}x{w} are smaller than the {kh}x{kw} kernel"
            )
        return n, c, h, w, o, kh, kw, self.stride

    def validate(self) -> tuple[int, int, int]:
        """Check shapes; return the lowered GEMM's ``(m, n, k)``."""
        n, c, h, w, o, kh, kw, stride = self._dims()
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
        return (o, n * oh * ow, c * kh * kw)

    def fold_shape(self) -> tuple[int, int, int, int]:
        """The ``(n, o, oh, ow)`` feature-map shape of the result."""
        n, _, h, w, o, kh, kw, stride = self._dims()
        return (n, o, (h - kh) // stride + 1, (w - kw) // stride + 1)

    def lower(self) -> GemmRequest:
        """Lower to the equivalent :class:`GemmRequest` (im2col)."""
        from repro.apps.conv import im2col

        _, c, _, _, o, kh, kw, stride = self._dims()
        cols = im2col(
            np.asarray(self.images, dtype=np.float64), kh, kw, stride
        )
        w_flat = np.asarray(self.kernels, dtype=np.float64).reshape(
            o, c * kh * kw
        )
        return GemmRequest(a=w_flat, b=cols)

    def fold(self, out_flat: np.ndarray) -> np.ndarray:
        """Fold the lowered GEMM's output back to N x O x oh x ow."""
        n, o, oh, ow = self.fold_shape()
        return np.ascontiguousarray(
            out_flat.reshape(o, n, oh, ow).transpose(1, 0, 2, 3)
        )

    def shape_bin(self, params: "BlockingParams") -> tuple[Any, ...]:
        m, n, k = self.validate()
        return (self.kind, *params.pad_shape(m, n, k))

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(f"{self.kind}|{self.stride}".encode())
        _hash_array(digest, np.asarray(self.images))
        _hash_array(digest, np.asarray(self.kernels))
        return digest.hexdigest()


#: any typed request the submit surfaces accept.
Request = GemmRequest | LuRequest | ConvRequest


def format_bin(bin_key: tuple[Any, ...]) -> str:
    """Render a :meth:`shape_bin` key as a stable display label.

    ``("gemm", 64, 96, 32)`` → ``"gemm:64x96x32"`` — the label used in
    :attr:`RequestResult.bin` and the serving tier's SLO report.
    """
    kind, *dims = bin_key
    return f"{kind}:{'x'.join(str(d) for d in dims)}"


# -- options and responses ----------------------------------------------


@dataclass(frozen=True)
class SubmitOptions:
    """Per-request execution options, shared by sync and async submit.

    ``None`` fields defer to the session's configuration.  The
    dataclass is hashable (no operand payloads), so the serving tier
    can coalesce same-option requests into one dispatched batch.
    """

    #: execution engine (a name in ``repro.core.engine.ENGINES``), or
    #: the session default; submit rejects unknown names.
    engine: str | None = None
    #: verify results against the engine contract
    #: (:func:`repro.core.reference.contract_violation`).
    check: bool | None = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            object.__setattr__(self, "engine", str(self.engine).lower())


#: the all-defaults options value.
DEFAULT_SUBMIT_OPTIONS = SubmitOptions()


@dataclass(frozen=True)
class RequestError:
    """A structured failure: what went wrong, in machine-readable form."""

    #: exception class name, or a server-side kind such as
    #: ``"RejectedError"`` (admission control) / ``"ShutdownError"``.
    kind: str
    message: str
    #: whether resubmitting later may succeed (backpressure rejections
    #: are retryable; shape errors are not).
    retryable: bool = False

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass(frozen=True)
class RequestResult:
    """The structured response to one request.

    Exactly one of ``value``/``error`` is meaningful: ``ok`` requests
    carry the computed value (the GEMM output, the folded feature
    maps, or an ``LUResult``), failed ones a :class:`RequestError`.
    ``traffic`` is this request's own staging/DMA/regcomm delta —
    summing it over every response reconciles bit-exactly with
    ``Session.stats().traffic`` (cache hits contribute zero, having
    moved nothing).
    """

    #: the computed value; ``None`` when ``error`` is set.
    value: Any = None
    error: RequestError | None = None
    #: this request's staging/DMA/regcomm delta (``None`` only when
    #: the request never reached a device).
    traffic: "ContextStats | None" = None
    #: shape-bin label the request was coalesced under.
    bin: str = ""
    #: served from the operand cache without staging or dispatch.
    cache_hit: bool = False
    #: seconds spent queued before dispatch (serving tier only).
    queue_seconds: float = 0.0
    #: seconds of batch execution the request rode along in.
    service_seconds: float = 0.0
    #: admission-to-response wall seconds (serving tier only).
    total_seconds: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def rejected(self) -> bool:
        """True when admission control turned the request away."""
        return self.error is not None and self.error.kind == "RejectedError"


# -- normalization funnel ----------------------------------------------


def as_gemm_request(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: str = "N",
    transb: str = "N",
) -> GemmRequest:
    """Normalize one GEMM call into a validated :class:`GemmRequest`.

    The single funnel behind ``dgemm``/``Session.dgemm``/
    ``dgemm_multi_cg``: shapes and flags are validated up front, so a
    bad call raises :class:`UnsupportedShapeError` before anything is
    staged on a device.
    """
    request = GemmRequest(
        a=a, b=b, c=c, alpha=alpha, beta=beta, transa=transa, transb=transb
    )
    request.validate()
    return request


def as_request(obj: Any) -> Request:
    """Check that ``obj`` is a typed request (the submit surfaces' funnel).

    Accepts the three request dataclasses; anything else raises
    :class:`ConfigError`.
    """
    if isinstance(obj, (GemmRequest, LuRequest, ConvRequest)):
        return obj
    raise ConfigError(
        f"expected a GemmRequest/LuRequest/ConvRequest, got {type(obj).__name__}"
    )
