"""Every name the benchmark tracer wraps still exists where it looks.

``bench/tracing.py`` patches the functions and methods listed in its
``WRAPPED`` table; ``Tracer.install`` reads each one as
``owner.__dict__[name]`` and raises ``KeyError`` for a name that was deleted
or moved.  Loading the table here, by path, and resolving every entry the
same way catches such a change in the tier-1 run instead of in the
benchmark's own test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_as_install_reads_it():
    tracing = load_tracing()
    assert set(tracing.WRAPPED) == set(tracing.LAYERS)
    count = 0
    for layer, table in tracing.WRAPPED.items():
        module = importlib.import_module(f"atfkit.{layer}")
        for attr in table:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert name in owner.__dict__, f"{layer}.{attr}"
            raw = owner.__dict__[name]
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            assert callable(fn), f"{layer}.{attr}"
            count += 1
    assert count > 100
