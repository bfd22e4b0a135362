"""The library names the benchmark reads and rebinds.

``bench/tracing.py`` wraps the entry points listed in its ``SPANS``,
``LEAVES`` and ``COUNTERS`` by name, and the workloads call a few more;
a renamed or removed one would only show in a traced benchmark run.
This resolves each of them the way the tracer does, without rebinding
anything.
"""

import importlib
from pathlib import Path

import pytest

from stieltjes import Affine, IntegralKind, Power, SinWave

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def entry_points():
    # Run the module's source in a fresh namespace: no bytecode is cached
    # beside it, and nothing is installed.
    tracing = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    return [entry[:2] for table in ("SPANS", "LEAVES", "COUNTERS") for entry in tracing[table]]


@pytest.mark.parametrize("module_name, path", entry_points())
def test_every_traced_entry_point_resolves(module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    # A method is wrapped where its class defines it, not where it inherits it.
    target = getattr(module, owner_name).__dict__[attr] if owner_name else getattr(module, attr)
    assert callable(target)


def test_the_names_the_workloads_call():
    assert IntegralKind.from_letter("D") is IntegralKind.DUSHNIK
    assert Affine(2.0).lipschitz_on(0.0, 1.0) == 2.0
    assert Power(2.0).lipschitz_on(0.0, 1.0) == 2.0
    assert SinWave(3.0).lipschitz_on(0.0, 1.0) == 3.0
