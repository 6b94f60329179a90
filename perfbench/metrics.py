"""What each per-layer metric should move, and which ones are self times.

``BENCHMARK.json`` names every metric with its unit and direction.
End-to-end metrics come from untraced runs (``--trace 0``); per-layer
metrics from the traced pass (``--trace 1``).  For each per-layer
metric, :data:`MOVES` names the end-to-end metric, and the workload,
that a change to its layer should move.
"""

MOVES = {
    "worlds.build_s": "setup_s on every workload",
    "index.build_s": "setup_s and run_s on every workload",
    "index.knn_calls": "samples_per_s on lnr_weibo; nothing on lr_adaptive",
    "index.self_s": "samples_per_s on lnr_weibo; nothing on lr_adaptive",
    "lbs.query_calls": "samples_per_s on lnr_weibo",
    "lbs.self_s": "samples_per_s on lnr_weibo",
    "lbs.cache_hit_ratio": "queries_per_sample on every workload",
    "history.query_calls": "samples_per_s on lnr_weibo",
    "history.self_s": "samples_per_s on lnr_weibo",
    "history.replay_ratio": "samples_per_s on lnr_weibo",
    "history.sites": "samples_per_s on lr_clustered",
    "voronoi_oracle.cells": "samples_per_s on lr_clustered",
    "voronoi_oracle.exact_ratio": "samples_per_s on lr_clustered; nothing on lnr_weibo",
    "voronoi_oracle.self_s": "samples_per_s on lr_clustered; nothing on lnr_weibo",
    "arrangement.calls": "samples_per_s on lr_adaptive and lr_clustered",
    "arrangement.pieces_per_call": "samples_per_s on lr_adaptive and lr_clustered",
    "arrangement.self_s": "samples_per_s on lr_adaptive and lr_clustered",
    "variance.self_s": "samples_per_s on lr_adaptive",
    "bounds.mc_finishes": "samples_per_s and queries_per_sample on both LR workloads",
    "bounds.mc_trials": "samples_per_s and queries_per_sample on both LR workloads",
    "bounds.self_s": "samples_per_s on both LR workloads",
    "sampling.measure_s": "samples_per_s on both LR workloads",
    "lnr_cell.cells": "samples_per_s and queries_per_sample on lnr_weibo",
    "lnr_cell.self_s": "samples_per_s on lnr_weibo",
    "edge_search.calls": "samples_per_s and queries_per_sample on lnr_weibo",
    "edge_search.queries_per_call": "queries_per_sample on lnr_weibo",
    "edge_search.self_s": "samples_per_s on lnr_weibo",
    "driver.self_s": "samples_per_s on every workload",
    "parallel.export_s": "run_s on fanout_ckpt",
    "parallel.first_progress_s": "run_s on fanout_ckpt",
    "parallel.progress_events": "run_s on fanout_ckpt",
    "parallel.checkpoint_write_s": "run_s and samples_per_s on fanout_ckpt",
    "parallel.busy_ratio": "run_s and samples_per_s on fanout_ckpt",
    "api.checkpoints": "samples_per_s on fanout_ckpt",
    "api.checkpoint_mb": "samples_per_s and peak_rss_mb on fanout_ckpt",
    "api.to_state_s": "samples_per_s and peak_rss_mb on fanout_ckpt",
    "unattributed_s": "nothing: time outside every traced span",
    "trace_overhead": "nothing: traced run_s / untraced run_s - 1",
}

#: Per-layer metrics whose sum, with ``unattributed_s``, is the traced
#: wall time of a single-process workload.
SELF_TIMES = (
    "index.build_s", "index.self_s", "lbs.self_s", "history.self_s",
    "voronoi_oracle.self_s", "arrangement.self_s", "variance.self_s", "bounds.self_s",
    "sampling.measure_s", "lnr_cell.self_s", "edge_search.self_s", "driver.self_s",
    "api.to_state_s",
)
