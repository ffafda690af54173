"""Names of the benchmark's workloads, and names, units and directions of its metrics.

Kept free of heavy imports: ``run.py`` reads it without loading numpy.
"""

WORKLOADS = ("pullin-field2d", "pullin-plate", "band-refined")

# end-to-end metrics, printed by an untraced run: name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_s_p50": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# per-layer metrics, printed by a traced run: name -> (unit, better)
PER_LAYER = {
    "electro.solve_field2d.calls_per_op": ("count", "lower"),
    "electro.solve_field2d.gap_closures_per_op": ("count", "lower"),
    "electro.solve_field2d.ms_p50": ("ms", "lower"),
    "electro.solve_field2d.self_s_per_op": ("s", "lower"),
    "electro.spsolve.s_per_op": ("s", "lower"),
    "electro.maxwell_load.s_per_op": ("s", "lower"),
    "electro.plate_load.calls_per_op": ("count", "lower"),
    "electro.plate_load.s_per_op": ("s", "lower"),
    "electro.share": ("ratio", "lower"),
    "beam.newton_solve.calls_per_op": ("count", "lower"),
    "beam.newton_solve.ok_frac": ("ratio", "higher"),
    "beam.newton_solve.iters_per_call": ("count", "lower"),
    "beam.newton_solve.self_s_per_op": ("s", "lower"),
    "beam.corotational_internal.calls_per_op": ("count", "lower"),
    "beam.corotational_internal.s_per_op": ("s", "lower"),
    "beam.solve_clamped_banded.calls_per_op": ("count", "lower"),
    "beam.solve_clamped_banded.s_per_op": ("s", "lower"),
    "beam.solve_nonlinear.calls_per_op": ("count", "lower"),
    "beam.solve_nonlinear.self_s_per_op": ("s", "lower"),
    "beam.LinearBeamOperator.solve.calls_per_op": ("count", "lower"),
    "beam.LinearBeamOperator.solve.s_per_op": ("s", "lower"),
    "beam.consistent_load_vector.s_per_op": ("s", "lower"),
    "beam.share": ("ratio", "lower"),
    "coupled.self_s_per_op": ("s", "lower"),
    "coupled.load_evals_per_op": ("count", "lower"),
    "coupled.sweep_points_per_op": ("count", "lower"),
    "coupled.share": ("ratio", "lower"),
    "process.cpu_over_wall": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}
