#!/usr/bin/env python3
"""Beyond DGEMM: the conclusion's "other dense matrix kernels".

The paper closes by hoping the methodology extends to other dense
kernels.  This example runs the two extensions built on the DGEMM core
— DTRSM (blocked triangular solve) and DSYRK (symmetric rank-k update)
— plus the batched interface that real consumers (LU, conv layers) use,
all on one shared simulated core group: CG 0 of one chip, which a
one-CG scheduler pool also batches on.

Run:  python examples/blas3_kernels.py
"""

import numpy as np

from repro import BlockingParams, CGScheduler, SW26010Processor
from repro.apps import dsyrk_ln, dtrsm_llnu
from repro.api import GemmRequest

params = BlockingParams.small(double_buffered=True)
chip = SW26010Processor()
cg = chip.cg(0)
rng = np.random.default_rng(21)

# --- DTRSM: L X = B with unit-lower L ---------------------------------
n, nrhs = 96, 32
l_matrix = np.tril(rng.standard_normal((n, n)) / np.sqrt(n), -1) + np.eye(n)
b = rng.standard_normal((n, nrhs))
x = dtrsm_llnu(l_matrix, b, block=32, params=params, core_group=cg)
err = np.max(np.abs(l_matrix @ x - b))
print(f"DTRSM  {n}x{n} L, {nrhs} right-hand sides: max |LX - B| = {err:.2e}")
assert err < 1e-9

# --- DSYRK: C = alpha*A*A^T + beta*C (lower) ------------------------------
a = rng.standard_normal((64, 48))
c = rng.standard_normal((64, 64))
out = dsyrk_ln(a, c, alpha=2.0, beta=0.5, block=32, params=params, core_group=cg)
expected = np.tril(2.0 * a @ a.T + 0.5 * c)
err = np.max(np.abs(out - expected))
print(f"DSYRK  64x48 rank-k update: max error = {err:.2e} "
      "(lower triangle, upper zeroed)")
assert err < 1e-9

# --- batched GEMM: a convolution-layer-like sequence ---------------------
items = [
    GemmRequest(rng.standard_normal((64, 27)), rng.standard_normal((27, 196)))
    for _ in range(4)
]
with CGScheduler(chip, n_core_groups=1, params=params) as scheduler:
    result = scheduler.run(items, isolate_failures=False)
for item, output in zip(items, result.outputs):
    assert np.allclose(output, item.a @ item.b, rtol=1e-10, atol=1e-9)
print(f"batch  {len(result)} GEMMs: {result.flops / 1e6:.1f} Mflops, "
      f"{result.dma_bytes / 1e6:.1f} MB DMA on the shared device")

print(f"\ncumulative device traffic this session: "
      f"{cg.dma.stats.bytes_total / 1e6:.1f} MB over "
      f"{cg.dma.stats.transactions} transactions")
