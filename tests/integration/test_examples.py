"""Smoke tests: every example script runs to completion in-process —
and, since the examples showcase the supported API, without tripping
any repro deprecation shim."""

import importlib.util
import pathlib
import sys
import warnings

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(path.stem, None)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path, capsys, monkeypatch):
    # Shrink the pruning_pipeline example's data for test speed.
    module = load_module(path)
    assert hasattr(module, "main")
    if path.stem == "pruning_pipeline":
        from repro.workloads import generate_lubm

        monkeypatch.setattr(
            module, "generate_lubm",
            lambda **kw: generate_lubm(n_universities=2, seed=7,
                                       spiral_length=8),
        )
    if path.stem == "when_to_prune":
        monkeypatch.setattr(module, "SCALE", 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        module.main()
    deprecations = [
        w for w in caught
        if issubclass(w.category, DeprecationWarning)
        and "repro" in str(w.message)
    ]
    assert not deprecations, [str(w.message) for w in deprecations]
    output = capsys.readouterr().out
    assert output.strip(), path.stem


def test_examples_exist():
    assert len(EXAMPLES) >= 5
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
