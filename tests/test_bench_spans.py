"""The benchmark's span tracer names functions of the program by module and
attribute path; each must still exist, or the traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for module_name, path, span in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer swaps the entry in the owner's own namespace
        assert attr in vars(owner), f"{span}: {module_name}.{path} is gone"
        assert callable(getattr(owner, attr)), f"{span}: {module_name}.{path}"
        assert span.split(".")[0] in spans.LAYERS
