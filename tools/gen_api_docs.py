#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings.

Walks ``repro``'s modules, collects public classes/functions with their
signatures and docstring summaries, and writes a single-page API
reference. Run from the repo root::

    python tools/gen_api_docs.py [output]

The test suite imports :func:`generate` directly, so the reference can
never silently rot relative to the code.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

HEADER = """# API reference

Generated by ``tools/gen_api_docs.py`` — do not edit by hand.
One entry per public module; signatures and summaries come straight
from the source docstrings.

## Start here: `repro.core.session.Session`

The documented entry point is the ``Session`` facade — it owns the
device (an ``SW26010Processor``), keeps a warm staging context for
scalar calls, and dispatches batches across the chip's core-group
pool through ``multi.scheduler.CGScheduler``:

```python
from repro import GemmRequest, Session

with Session(n_core_groups=4) as s:
    c = s.dgemm(a, b)                      # scalar, staging kept warm
    r = s.batch([GemmRequest(a, b), ...])  # scheduled across the pool
    print(s.stats())                       # cumulative accounting
```

One function decides padding, the contract check and the early return
for empty shapes: ``core.api.dgemm``, one multiply on one core group,
with the keyword surface
(``alpha``/``beta``/``transa``/``transb``/``pad``/``check``) the other
entry points pass through. ``CGScheduler.run`` is the one loop over
GEMM items (``n_core_groups=1`` runs them serially on one CG), and
``multi.dgemm4.dgemm_multi_cg`` splits one multiply into column panels
over the chip's core groups. ``dgemm``'s ``core_group=``/``context=``
keywords are the low-level escape hatch: use them only when managing
devices and staging lifetimes explicitly — ``Session`` does both for
you.
"""


def _summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.strip().split("\n\n")[0].replace("\n", " ")
    return first


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        yield name, obj


def _iter_modules():
    prefix = repro.__name__ + "."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        if info.name.endswith("__main__"):
            continue  # importing entry points runs them
        yield info.name


def generate() -> str:
    sections = [HEADER]
    for mod_name in sorted({repro.__name__, *_iter_modules()}):
        try:
            module = importlib.import_module(mod_name)
        except Exception as exc:  # pragma: no cover - all modules import
            sections.append(f"## `{mod_name}`\n\n*import failed: {exc}*\n")
            continue
        entries = list(_public_members(module))
        summary = _summary(module)
        if not entries and not summary:
            continue
        body = [f"## `{mod_name}`", ""]
        if summary:
            body.append(summary)
            body.append("")
        for name, obj in entries:
            if inspect.isclass(obj):
                body.append(f"- **class** `{name}{_signature(obj)}` — {_summary(obj)}")
                methods = [
                    (m_name, m)
                    for m_name, m in vars(obj).items()
                    if not m_name.startswith("_") and inspect.isfunction(m)
                ]
                for m_name, m in methods:
                    body.append(f"    - `{m_name}{_signature(m)}` — {_summary(m)}")
            elif inspect.isfunction(obj):
                body.append(f"- `{name}{_signature(obj)}` — {_summary(obj)}")
            else:
                kind = type(obj).__name__
                body.append(f"- `{name}` ({kind}) — {_summary(obj) or repr(obj)[:80]}")
        sections.append("\n".join(body) + "\n")
    return "\n".join(sections)


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else Path("docs/api.md")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(generate())
    print(f"wrote {out} ({len(out.read_text().splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
