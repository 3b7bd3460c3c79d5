"""The benchmark's layer tracer finds every function it wraps."""

import importlib.util
from pathlib import Path

import smtorus.cli  # noqa: F401  (loads every smtorus module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_traced_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = tracer.smtorus_modules()
    before = {name: {k: id(v) for k, v in vars(mod).items()} for name, mod in modules.items()}
    t = tracer.Tracer()
    t.install(modules)
    try:
        assert t.absent == []
    finally:
        t.uninstall()
    assert {name: {k: id(v) for k, v in vars(mod).items()} for name, mod in modules.items()} == before
