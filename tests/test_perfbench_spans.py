"""The names the end-to-end benchmark's tracer patches still exist.

``perfbench/spans.py`` wraps library entry points by name (the index
backends' ``knn``/``knn_batch``, ``make_index_arrays`` where callers
look it up, the interface, history, oracle, driver and fan-out entry
points).  A refactor that drops or renames one breaks the traced
benchmark pass; this test notices it in the unit suite.  The tracer
module is read, compiled and run in memory, so nothing under
``perfbench/`` is written.
"""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_every_name_and_restore_puts_back_the_originals():
    spans = _load_spans()
    # install() makes its handle through this module name: hand it one
    # made here, so a failing install is still undone.
    handle = spans.Installed()
    spans.Installed = lambda: handle
    try:
        spans.install(spans.Tracer("tier1-guard"))
        patched = list(handle._saved)
    finally:
        handle.restore()
    assert patched
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
