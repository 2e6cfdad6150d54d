"""Documentation and packaging completeness gates.

Every public module, class, and function in the library must carry a
docstring, and the experiment registry must stay in sync with the
benchmark directory — these are the contracts a downstream user relies on.
"""

import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro

_SKIP_MODULES = {"repro.experiments.__main__"}


def _public_modules():
    names = ["repro"]
    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        if not any(
            part.startswith("_") and part != "__main__"
            for part in module_info.name.split(".")
        ):
            names.append(module_info.name)
    return [n for n in names if n not in _SKIP_MODULES]


@pytest.mark.parametrize("module_name", _public_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} is missing a module docstring"
    )


@pytest.mark.parametrize("module_name", _public_modules())
def test_public_members_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented at their source
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, (
        f"{module_name} has undocumented public members: {undocumented}"
    )


class TestExperimentRegistryConsistency:
    def test_every_registered_experiment_has_a_bench(self):
        from repro.experiments.cli import EXPERIMENTS

        bench_dir = os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks"
        )
        bench_sources = ""
        for fname in os.listdir(bench_dir):
            if fname.endswith(".py"):
                with open(os.path.join(bench_dir, fname)) as handle:
                    bench_sources += handle.read()
        missing = [
            experiment_id
            for experiment_id, (runner, _) in EXPERIMENTS.items()
            if runner.__name__ not in bench_sources
        ]
        assert not missing, (
            f"experiments without a benchmark target: {missing}"
        )

    def test_registry_descriptions_nonempty(self):
        from repro.experiments.cli import EXPERIMENTS

        for experiment_id, (_, description) in EXPERIMENTS.items():
            assert description.strip(), experiment_id


class TestPackagingMetadata:
    def test_version_exposed(self):
        assert repro.__version__

    def test_readme_and_design_exist(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert os.path.exists(os.path.join(root, doc)), doc


class TestReadmeExample:
    def test_python_block_runs(self, capsys):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "README.md")) as handle:
            blocks = re.findall(
                r"```python\n(.*?)```", handle.read(), flags=re.DOTALL
            )
        assert len(blocks) == 1, "README should carry one python example"
        exec(compile(blocks[0], "README.md", "exec"), {})
        hit_rate, rpm = map(float, capsys.readouterr().out.split())
        assert 0.0 <= hit_rate <= 1.0 and rpm > 0
