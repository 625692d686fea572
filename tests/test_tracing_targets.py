"""The names the benchmark's tracer wraps exist in the package.

`perfbench/tracing.py` is loaded from its file and only read: installing
the tracer is the benchmark's business, but a traced name that the package
no longer has breaks `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module_name, attr, _ in tracing.TARGETS:
        target = importlib.import_module(f"orispec.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
