"""Every name the bench tracer wraps stays bound in the package.

``perfbench/tracer.py`` wraps each of its targets ``<layer>.<name>`` by
rebinding ``timefuse.<layer>.<name>`` (or, for a class, its
``__init__``).  A target that is gone is listed as absent, and the bench
then reports no figures for it, so its result holds nulls.  This test
loads the tracer by path, installs it on the imported package and checks
that every per-layer target of ``BENCHMARK.json`` is traced, that no
target is absent, that no two targets are one object, and that
uninstalling restores every binding it replaced.
"""

import importlib.util
import json
import sys
from pathlib import Path

import timefuse
import timefuse.cli

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    """Every attribute of every loaded ``timefuse`` module, and each class's ``__init__``."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "timefuse" or name.startswith("timefuse.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and "__init__" in value.__dict__:
                out[(f"{value.__module__}.{value.__qualname__}", "__init__")] = value.__dict__[
                    "__init__"
                ]
    return out


def target_object(target: str):
    layer, _, name = target.partition(".")
    return getattr(importlib.import_module(f"timefuse.{layer}"), name)


def test_every_traced_name_is_bound_and_restored():
    tracer = load_tracer()
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    traced = {m["name"].removesuffix(".calls") for m in declared if m["name"].endswith(".calls")}
    assert traced <= set(tracer.TARGETS)
    before = package_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.absent == []
    finally:
        tr.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    objects = [target_object(t) for t in tracer.TARGETS]
    assert len({id(o) for o in objects}) == len(objects), "two targets are one object"
