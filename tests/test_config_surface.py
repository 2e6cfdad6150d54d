"""Config-surface gate: every config field is set by some caller.

A field that only tests set is a dead knob — one value is ever used, so
it belongs in a module constant, not on the config object.  This scans
every constructor call in the library, benchmarks, scripts and the
repository benchmark, and demands each field of the serving configs be
passed by keyword at least once.
"""

import ast
import dataclasses
import os
from typing import Dict, Set

import pytest

from repro.core.config import ClusterRoutingConfig, MoDMConfig, SLOPolicy
from repro.core.tiering import TieredCacheConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ("src", "benchmarks", "scripts", "perfbench")
CONFIGS = (MoDMConfig, ClusterRoutingConfig, SLOPolicy, TieredCacheConfig)


def _keywords_by_callee() -> Dict[str, Set[str]]:
    """Keyword names passed to each config class across the callers."""
    names = {cls.__name__ for cls in CONFIGS}
    passed: Dict[str, Set[str]] = {name: set() for name in names}
    for top in CALLER_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, filename)) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    callee = getattr(func, "id", getattr(func, "attr", None))
                    if callee in names:
                        passed[callee].update(
                            kw.arg for kw in node.keywords if kw.arg
                        )
    return passed


@pytest.fixture(scope="module")
def passed() -> Dict[str, Set[str]]:
    return _keywords_by_callee()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_config_field_has_a_caller(config, passed):
    fields = [f.name for f in dataclasses.fields(config)]
    unset = [name for name in fields if name not in passed[config.__name__]]
    assert not unset, (
        f"{config.__name__} fields no caller in {CALLER_DIRS} passes: "
        f"{unset}; make each a module constant in the module that reads it"
    )
