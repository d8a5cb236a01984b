"""RunConfig: the one run-shaping API.

Contract under test (shared by every config-accepting driver):

* ``RunConfig()`` reproduces each driver's historical behaviour;
* ``config=`` is the only spelling: no driver has an individual keyword
  named after a ``RunConfig`` field, so passing one is a ``TypeError``;
* a config field the function cannot honour raises loudly instead of
  being silently ignored.
"""

import dataclasses
import inspect
import warnings

import pytest

from repro import PowerLawDesign, RunConfig, VirtualCluster
from repro.engine.config import resolve_run_config
from repro.engine.execute import execute
from repro.engine.plan import plan_from_design
from repro.engine.sinks import DegreeSink
from repro.errors import GenerationError
from repro.parallel import generate_design_parallel, streamed_degree_distribution
from repro.parallel.scaling import run_scaling_study
from repro.parallel.simulate import simulate_rate_curve
from repro.parallel.stream import generate_to_disk, validate_streamed

DESIGN = PowerLawDesign([3, 4, 5], "center")
BUDGET = 500

#: The seven drivers that take ``config=``, each with a call that
#: differs from a valid one only by the removed ``backend=`` keyword.
DRIVERS = {
    "execute": (
        execute,
        lambda tmp, **kw: execute(
            plan_from_design(DESIGN, 2), DegreeSink(), **kw
        ),
    ),
    "generate_to_disk": (
        generate_to_disk,
        lambda tmp, **kw: generate_to_disk(DESIGN, 2, tmp, **kw),
    ),
    "streamed_degree_distribution": (
        streamed_degree_distribution,
        lambda tmp, **kw: streamed_degree_distribution(DESIGN, 2, **kw),
    ),
    "validate_streamed": (
        validate_streamed,
        lambda tmp, **kw: validate_streamed(DESIGN, 2, **kw),
    ),
    "generate_design_parallel": (
        generate_design_parallel,
        lambda tmp, **kw: generate_design_parallel(DESIGN, 2, **kw),
    ),
    "run_scaling_study": (
        run_scaling_study,
        lambda tmp, **kw: run_scaling_study(DESIGN.to_chain(), [1], **kw),
    ),
    "simulate_rate_curve": (
        simulate_rate_curve,
        lambda tmp, **kw: simulate_rate_curve(DESIGN, [1], **kw),
    ),
}


class TestRunConfigDataclass:
    def test_defaults_are_neutral(self):
        cfg = RunConfig()
        assert cfg.backend is None
        assert cfg.scheduler is None
        assert cfg.memory_budget_entries is None
        assert cfg.transport is None
        assert cfg.checkpoint_dir is None
        assert cfg.resume is False
        assert cfg.scramble_seed is None
        assert cfg.kernel == "auto"
        assert cfg.non_default_fields() == ()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().kernel = "numpy"

    def test_replace_round_trip(self):
        cfg = RunConfig(memory_budget_entries=BUDGET, kernel="numpy")
        again = cfg.replace(kernel="auto").replace(kernel="numpy")
        assert again == cfg
        assert cfg.non_default_fields() == ("kernel", "memory_budget_entries")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(GenerationError, match="unknown kernel"):
            RunConfig(kernel="fortran")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(GenerationError, match="must be positive"):
            RunConfig(memory_budget_entries=0)


class TestResolveRunConfig:
    def test_config_passes_through(self):
        cfg = RunConfig(memory_budget_entries=BUDGET)
        assert resolve_run_config("f", cfg) is cfg

    def test_no_kwargs_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_run_config("f", None) == RunConfig()

    def test_non_runconfig_rejected(self):
        with pytest.raises(GenerationError, match="must be a RunConfig"):
            resolve_run_config("f", {"backend": "thread"})

    def test_unsupported_field_raises(self):
        cfg = RunConfig(resume=True)
        with pytest.raises(GenerationError, match=r"\['resume'\]"):
            resolve_run_config("f", cfg, unsupported=("resume",))

    def test_takes_no_individual_keywords(self):
        with pytest.raises(TypeError):
            resolve_run_config("f", None, backend="thread")


class TestOneSpelling:
    """``config=`` is the only way to shape a run."""

    FORBIDDEN = {f.name for f in dataclasses.fields(RunConfig)} | {
        "memory_entries",
        "max_block_entries",
    }

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_no_parameter_named_after_a_config_field(self, name):
        func, _ = DRIVERS[name]
        params = set(inspect.signature(func).parameters) - {"config"}
        assert params & self.FORBIDDEN == set()
        assert "config" in inspect.signature(func).parameters

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_individual_keyword_is_a_type_error(self, name, tmp_path):
        _, call = DRIVERS[name]
        with pytest.raises(TypeError, match="backend"):
            call(tmp_path / "out", backend="serial")

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_same_call_with_config_runs(self, name, tmp_path):
        _, call = DRIVERS[name]
        call(tmp_path / "out", config=RunConfig(backend="serial"))

    def test_virtual_cluster_memory_entries_is_a_type_error(self):
        with pytest.raises(TypeError, match="memory_entries"):
            VirtualCluster(2, memory_entries=10)
        assert not hasattr(VirtualCluster(2), "memory_entries")


class TestDriversHonourConfig:
    def test_streamed_degrees_config_path(self):
        dist = streamed_degree_distribution(
            DESIGN, 2, config=RunConfig(memory_budget_entries=BUDGET)
        )
        assert dist == DESIGN.degree_distribution

    def test_scaling_and_simulate_accept_config(self):
        study = run_scaling_study(
            DESIGN.to_chain(),
            [1, 2],
            config=RunConfig(memory_budget_entries=BUDGET),
        )
        assert [p.n_ranks for p in study.points] == [1, 2]
        curve = simulate_rate_curve(
            DESIGN, [1, 2], config=RunConfig(memory_budget_entries=BUDGET)
        )
        assert len(curve.points) == 2

    def test_checkpoint_dir_via_config(self, tmp_path):
        graph = generate_design_parallel(
            DESIGN,
            2,
            config=RunConfig(
                memory_budget_entries=BUDGET,
                checkpoint_dir=str(tmp_path / "ckpt"),
            ),
        )
        assert graph.num_edges == DESIGN.num_edges
        assert (tmp_path / "ckpt" / "manifest.json").exists()

    def test_scramble_without_checkpoint_raises(self):
        with pytest.raises(GenerationError, match="scramble_seed requires"):
            generate_design_parallel(
                DESIGN, 2, config=RunConfig(scramble_seed=3)
            )

    def test_resume_without_checkpoint_raises(self):
        with pytest.raises(GenerationError, match="requires checkpoint_dir"):
            generate_design_parallel(DESIGN, 2, config=RunConfig(resume=True))

    def test_validate_streamed_forwards_config(self):
        check = validate_streamed(
            DESIGN, 2, config=RunConfig(memory_budget_entries=BUDGET)
        )
        assert check.exact_match

    def test_validate_streamed_refuses_stochastic_model(self):
        with pytest.raises(GenerationError, match="stochastic"):
            validate_streamed(DESIGN, 2, config=RunConfig(model="skg"))

    def test_transport_unsupported_in_degree_driver(self):
        with pytest.raises(GenerationError, match="transport"):
            streamed_degree_distribution(
                DESIGN, 2, config=RunConfig(transport="inproc")
            )


class TestVirtualClusterMigration:
    def test_new_name_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cluster = VirtualCluster(n_ranks=2, memory_budget_entries=BUDGET)
        assert cluster.memory_budget_entries == BUDGET

    def test_repr_uses_new_name(self):
        assert "memory_budget_entries" in repr(VirtualCluster(2))
