"""The shared counter-record protocol of every ``*Stats`` dataclass.

Seven unrelated dataclasses across the package count things — DMA
transfers, register broadcasts, cache accesses, staging copies, NoC
messages, context traffic, session totals — and each had grown its own
ad-hoc ``merge``/``since``/``plus``/``snapshot``.  :class:`StatsProtocol`
is the one implementation of that arithmetic: any dataclass that mixes
it in gets

- ``as_dict()`` — a plain-``dict`` view (nested stats become nested
  dicts, counter dicts are copied), the adapter surface
  :mod:`repro.obs.registry` builds its namespaced snapshots on;
- ``delta(other)`` — field-wise ``self - other``, the "what happened
  during this span" operation;
- ``plus(other)`` — field-wise sum, the "aggregate across contexts /
  core groups" operation;
- ``zero()`` — the additive identity for ``plus``;
- ``snapshot()`` — an independent copy safe to keep as a baseline while
  the live object keeps counting.

Field arithmetic is type-driven: numbers add and subtract, ``dict``
fields combine key-wise (missing keys count as 0), nested
``StatsProtocol`` fields recurse, and anything else is carried over
from ``self`` unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing

__all__ = ["StatsProtocol"]


def _combine(mine, theirs, sign: int):
    """Field-wise ``mine + sign * theirs`` for the supported field kinds."""
    if isinstance(mine, StatsProtocol):
        return mine.delta(theirs) if sign < 0 else mine.plus(theirs)
    if isinstance(mine, dict):
        theirs = theirs or {}
        keys = set(mine) | set(theirs)
        return {k: mine.get(k, 0) + sign * theirs.get(k, 0) for k in keys}
    if isinstance(mine, numbers.Number):
        return mine + sign * theirs
    return mine


@functools.cache
def _field_hints(cls: type) -> dict:
    """``cls``'s resolved field annotations, evaluated once per class.

    The hints, not a zero instance, are what is cached: a ``dict`` field
    must be a fresh object in every :meth:`StatsProtocol.zero` result.
    """
    return typing.get_type_hints(cls)


def _zero_value(field_type):
    """The additive identity for one annotated field type."""
    if isinstance(field_type, type) and issubclass(field_type, StatsProtocol):
        return field_type.zero()
    if field_type is float:
        return 0.0
    if field_type is dict or typing.get_origin(field_type) is dict:
        return {}
    return 0


class StatsProtocol:
    """Mixin giving a counter dataclass uniform snapshot arithmetic."""

    def as_dict(self) -> dict:
        """Plain-dict view: nested stats recurse, counter dicts copy."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, StatsProtocol):
                value = value.as_dict()
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    def _map(self, other, sign: int):
        if not isinstance(other, type(self)):
            raise TypeError(
                f"cannot combine {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        return type(self)(
            **{
                f.name: _combine(getattr(self, f.name), getattr(other, f.name), sign)
                for f in dataclasses.fields(self)
            }
        )

    def delta(self, other):
        """Counter deltas ``self - other`` (same type), field-wise."""
        return self._map(other, -1)

    def plus(self, other):
        """Counter sums ``self + other`` — aggregation across sources."""
        return self._map(other, +1)

    @classmethod
    def zero(cls):
        """The additive identity for :meth:`plus` / :meth:`delta`."""
        hints = _field_hints(cls)
        return cls(
            **{f.name: _zero_value(hints[f.name]) for f in dataclasses.fields(cls)}
        )

    def snapshot(self):
        """An independent copy, safe to hold as a baseline."""
        kwargs = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, StatsProtocol):
                value = value.snapshot()
            elif isinstance(value, dict):
                value = dict(value)
            kwargs[f.name] = value
        return type(self)(**kwargs)
