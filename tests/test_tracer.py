"""The benchmark's tracer wraps monarel functions by name (perfbench/layers.json);
renaming or deleting a traced function must fail here, not only in traced runs."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import LAYERS, Tracer  # noqa: E402


def test_every_traced_target_resolves_and_restores():
    names = {target.split(":")[0]
             for spec in LAYERS.values() for target in spec["wraps"]}
    modules = [importlib.import_module(name) for name in sorted(names)]
    lifting = importlib.import_module("monarel.lifting")
    finset = importlib.import_module("monarel.finset")
    before = [dict(vars(m)) for m in modules]
    lift_enumerate, rel_init = lifting.lift_enumerate, finset.Rel.__init__
    tr = Tracer()
    try:
        tr.install()  # raises when a target names nothing
        assert lifting.lift_enumerate is not lift_enumerate
        assert finset.Rel.__init__ is not rel_init
    finally:
        tr.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert finset.Rel.__init__ is rel_init
