"""The names the benchmark's tracer wraps are still defined where it wraps them.

perfbench/tracer.py replaces each `(owner, attr)` of `_traced_targets()` by
`owner.__dict__[attr]`, so a function that moves or is renamed breaks the
traced benchmark run. This reads the tracer's list without installing it.
"""

from __future__ import annotations

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_every_traced_target_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._traced_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []
