"""A1-A4 — regenerate the design-choice ablation tables.

These four sweeps study the design choices DESIGN.md calls out (reside
matrix, register tiles, b_k/b_n split, double-buffer LDM budget).  The
paper's own ablation, the RAW -> PE -> ROW -> DB -> SCHED ladder of
Fig 6, is ``repro.experiments.fig6_variants``;
``tests/integration/test_paper_claims.py`` holds its ordering.
"""

from repro.experiments import ablations


def test_reside_matrix(benchmark, show):
    traffic = benchmark(
        ablations.reside_matrix_traffic, 9216, 9216, 9216, 128, 256, 768
    )
    show(ablations.render_reside_matrix())
    assert min(traffic, key=traffic.get) == "B (paper)"


def test_register_tile_sweep(benchmark, show):
    rows = benchmark(ablations.register_tile_throughput)
    show(ablations.render_register_tiles())
    feasible = {(t.r_m, t.r_n) for t in rows if t.feasible}
    assert (4, 4) in feasible and (1, 16) not in feasible


def test_split_sweep(benchmark, show):
    rows = benchmark(ablations.bk_bn_split_sweep)
    show(ablations.render_split_sweep())
    assert max(rows, key=lambda r: r[3])[0] == 2.0


def test_double_buffer_ldm(benchmark, show):
    rows = benchmark(ablations.double_buffer_ldm)
    show(ablations.render_double_buffer_ldm())
    by_pn = {r[0]: r for r in rows}
    assert by_pn[48][4] is False and by_pn[32][4] is True
