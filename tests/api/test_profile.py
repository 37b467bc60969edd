"""ExecutionProfile: validation, coercion, kernel resolution."""


import pytest

from repro.api import ExecutionProfile
from repro.bitvec.kernel import active_kernel, use_kernel
from repro.core.solver import SolverOptions
from repro.errors import ReproError


class TestValidation:
    def test_defaults(self):
        profile = ExecutionProfile()
        assert profile.engine == "virtuoso-like"
        assert profile.pruning == "auto"
        assert profile.kernel is None
        assert isinstance(profile.solver, SolverOptions)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ReproError):
            ExecutionProfile(engine="postgres-like")

    def test_unknown_pruning_mode_rejected(self):
        with pytest.raises(ReproError):
            ExecutionProfile(pruning="sometimes")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ReproError):
            ExecutionProfile(kernel="gpu")

    def test_frozen(self):
        profile = ExecutionProfile()
        with pytest.raises(AttributeError):
            profile.engine = "rdfox-like"

    def test_replace(self):
        profile = ExecutionProfile().replace(
            engine="rdfox-like", pruning="pruned"
        )
        assert profile.engine == "rdfox-like"
        assert profile.pruning == "pruned"


class TestCoerce:
    def test_none_gives_defaults(self):
        assert ExecutionProfile.coerce(None) == ExecutionProfile()

    def test_string_names_engine(self):
        assert ExecutionProfile.coerce("rdfox-like").engine == "rdfox-like"

    def test_profile_passes_through(self):
        profile = ExecutionProfile(pruning="full")
        assert ExecutionProfile.coerce(profile) is profile

    def test_garbage_rejected(self):
        with pytest.raises(ReproError):
            ExecutionProfile.coerce(42)


class TestKernelResolution:
    def test_explicit_kernel_wins(self):
        profile = ExecutionProfile(kernel="reference")
        assert profile.resolved_kernel() == "reference"

    def test_default_is_active_kernel(self):
        assert ExecutionProfile().resolved_kernel() == active_kernel()

    def test_env_does_not_override_runtime_set_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "packed")
        with use_kernel("reference"):
            with ExecutionProfile().kernel_context() as name:
                assert name == "reference"
                assert active_kernel() == "reference"

    def test_kernel_context_switches_and_restores(self):
        before = active_kernel()
        profile = ExecutionProfile(kernel="reference")
        with profile.kernel_context() as name:
            assert name == "reference"
            assert active_kernel() == "reference"
        assert active_kernel() == before

    def test_kernel_context_no_pin_leaves_active(self):
        with use_kernel("reference"):
            with ExecutionProfile().kernel_context() as name:
                assert name == "reference"
                assert active_kernel() == "reference"
