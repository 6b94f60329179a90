"""Run the experiment battery: ``python -m repro.experiments [names...]``.

Without arguments every figure/table is regenerated at the default
(laptop) scale; pass experiment names (``fig14 table1 ...``) to select.
``--batch-size N`` routes every estimator's sample loop through the
vectorized query-batch prefetch (keep the default of 1 to reproduce the
paper's query accounting exactly).  ``--workers N`` runs each cost
table's independent estimation runs on N forked workers of
``run_many_parallel``'s process pool (experiments without a ``workers``
knob ignore it); results are identical at any worker count.
``--metrics-out PATH`` enables the :mod:`repro.obs` registry around
each experiment and writes its snapshot as JSON — to ``PATH`` when one
experiment runs, to per-experiment siblings (``name-<experiment>.json``)
when several do.  Pool workers report through the same registry (see
``_run_estimations``), so the snapshot is complete at any ``--workers``
count.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

from . import ALL_EXPERIMENTS


def _metrics_path(base: str, name: str, many: bool) -> str:
    if not many:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}-{name}{ext or '.json'}"


def main(argv: list[str]) -> int:
    batch_size = 1
    workers = 1
    metrics_out = None
    names: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--batch-size" or arg.startswith("--batch-size="):
            value = next(it, None) if arg == "--batch-size" else arg.split("=", 1)[1]
            try:
                batch_size = int(value)
            except (TypeError, ValueError):
                print("--batch-size needs an integer value")
                return 2
        elif arg == "--workers" or arg.startswith("--workers="):
            value = next(it, None) if arg == "--workers" else arg.split("=", 1)[1]
            try:
                workers = int(value)
            except (TypeError, ValueError):
                print("--workers needs an integer value")
                return 2
        elif arg == "--metrics-out" or arg.startswith("--metrics-out="):
            value = next(it, None) if arg == "--metrics-out" else arg.split("=", 1)[1]
            if not value:
                print("--metrics-out needs a file path")
                return 2
            metrics_out = value
        else:
            names.append(arg)
    if batch_size < 1:
        print("--batch-size must be >= 1")
        return 2
    if workers < 1:
        print("--workers must be >= 1")
        return 2
    names = names or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(ALL_EXPERIMENTS)}")
        return 2
    for name in names:
        start = time.time()
        fn = ALL_EXPERIMENTS[name]
        # fig11/fig21 have no estimation loop, hence no batch/worker
        # knobs; others opt into each knob by naming it.
        params = inspect.signature(fn).parameters
        kwargs = {}
        if "batch_size" in params:
            kwargs["batch_size"] = batch_size
        if "workers" in params:
            kwargs["workers"] = workers
        if metrics_out is not None:
            from ..obs import registry as obs

            with obs.collecting() as reg:
                out = fn(**kwargs)
            path = _metrics_path(metrics_out, name, len(names) > 1)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(reg.to_dict(), f, indent=1, sort_keys=True)
            print(f"[metrics for {name} written to {path}]")
        else:
            out = fn(**kwargs)
        table = out[0] if isinstance(out, tuple) else out
        table.show()
        print(f"[{name} done in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
