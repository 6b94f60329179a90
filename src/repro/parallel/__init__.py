"""Parallel execution over shared worlds, and the persistent world cache.

Three layers, each usable alone:

* :class:`WorldCache` — on-disk cache of built worlds keyed by
  :meth:`~repro.worlds.WorldSpec.content_hash`; a hit loads the database
  over read-only mmapped arrays instead of re-running synthesis.
* :class:`SharedWorld` — a built world exported into
  ``multiprocessing.shared_memory`` segments behind a picklable
  descriptor; attaching processes rebuild the database zero-copy.
* :func:`run_many_parallel` — fan independent estimation runs across a
  process pool over one shared world, bit-identical to the sequential
  :func:`repro.api.run_many` (which also fronts this via ``workers=``).

::

    from repro.parallel import WorldCache, run_many_parallel

    world = WorldCache("~/.cache/repro-worlds").load_or_build(spec.world)
    results = run_many_parallel(specs, MaxSamples(500), workers=4, world=world)
"""

from .executor import ParallelRunError, RunProgress, run_many_parallel
from .sharedmem import SharedWorld, cleanup_stale_segments
from .worldcache import WorldCache, WorldCacheError

__all__ = [
    "WorldCache",
    "WorldCacheError",
    "SharedWorld",
    "cleanup_stale_segments",
    "run_many_parallel",
    "ParallelRunError",
    "RunProgress",
]
