"""MachineConfig.validate(): every rejection carries an actionable message."""

import pytest

from repro import MachineConfig, Ultracomputer
from repro.core.memory_ops import PACKETS_WITH_DATA
from repro.core.scheduler import KERNELS, DenseKernel, kernel_names
from repro.network.topology import topology_names


def test_valid_config_passes():
    MachineConfig(n_pes=16).validate()


def test_constructor_calls_validate():
    with pytest.raises(ValueError, match="power of k"):
        Ultracomputer(MachineConfig(n_pes=6))


class TestTopology:
    def test_k_too_small(self):
        with pytest.raises(ValueError, match="k"):
            MachineConfig(n_pes=8, k=1).validate()

    def test_n_pes_below_k(self):
        with pytest.raises(ValueError, match="n_pes"):
            MachineConfig(n_pes=1).validate()

    def test_non_power_of_k_suggests_neighbors(self):
        with pytest.raises(ValueError, match="nearest valid sizes are 8 and 16"):
            MachineConfig(n_pes=12).validate()

    def test_non_power_of_k_suggests_neighbors_k2_100(self):
        with pytest.raises(ValueError, match="nearest valid sizes are 64 and 128"):
            MachineConfig(n_pes=100).validate()

    def test_power_of_three_for_k_three(self):
        MachineConfig(n_pes=27, k=3).validate()
        with pytest.raises(ValueError, match="power of k"):
            MachineConfig(n_pes=24, k=3).validate()

    def test_unknown_topology_lists_choices(self):
        with pytest.raises(ValueError, match="unknown topology"):
            MachineConfig(n_pes=16, topology="torus9d").validate()

    def test_hypercube_suggests_nearest_powers_of_two(self):
        MachineConfig(n_pes=16, topology="hypercube").validate()
        with pytest.raises(ValueError, match="nearest valid sizes: 64 and 128"):
            MachineConfig(n_pes=100, topology="hypercube").validate()

    def test_mesh_suggests_nearest_squares(self):
        MachineConfig(n_pes=16, topology="mesh").validate()
        with pytest.raises(ValueError, match="nearest valid sizes: 100 and 121"):
            MachineConfig(n_pes=108, topology="mesh").validate()

    def test_mesh_accepts_non_power_of_two_squares(self):
        MachineConfig(n_pes=9, topology="mesh").validate()

    def test_every_kernel_runs_every_topology(self):
        # "event" stays registered, as an alias of dense (see scheduler)
        assert set(kernel_names()) == {"dense", "event", "batch"}
        assert KERNELS["event"] is DenseKernel
        assert set(topology_names()) == {"omega", "hypercube", "mesh"}
        for kernel in kernel_names():
            for topology in topology_names():
                MachineConfig(n_pes=16, topology=topology,
                              kernel=kernel).validate()


class TestComponentBounds:
    def test_copies_must_be_positive(self):
        with pytest.raises(ValueError, match="copies"):
            MachineConfig(n_pes=8, copies=0).validate()

    def test_mm_latency_must_be_positive(self):
        with pytest.raises(ValueError, match="mm_latency"):
            MachineConfig(n_pes=8, mm_latency=0).validate()

    def test_queue_capacity_rejects_zero(self):
        with pytest.raises(ValueError, match="queue_capacity_packets"):
            MachineConfig(n_pes=8, queue_capacity_packets=0).validate()

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_queue_capacity_below_a_data_message_rejected(self, capacity):
        """No store/F&A request or load reply (PACKETS_WITH_DATA = 3
        packets) could ever enter such a queue, so every run wedges."""
        with pytest.raises(ValueError, match=r"capacity >= 3 \(PACKETS_WITH_DATA"):
            MachineConfig(n_pes=8, queue_capacity_packets=capacity).validate()

    def test_queue_capacity_of_one_data_message_accepted(self):
        assert PACKETS_WITH_DATA == 3
        MachineConfig(n_pes=8, queue_capacity_packets=3).validate()

    def test_wait_buffer_rejects_negative(self):
        with pytest.raises(ValueError, match="wait_buffer_capacity"):
            MachineConfig(n_pes=8, wait_buffer_capacity=-1).validate()

    def test_max_outstanding_rejects_zero(self):
        with pytest.raises(ValueError, match="max_outstanding"):
            MachineConfig(n_pes=8, max_outstanding=0).validate()

    def test_words_per_module_rejects_zero(self):
        with pytest.raises(ValueError, match="words_per_module"):
            MachineConfig(n_pes=8, words_per_module=0).validate()

    def test_none_capacities_mean_unbounded(self):
        MachineConfig(
            n_pes=8,
            queue_capacity_packets=None,
            wait_buffer_capacity=None,
            max_outstanding=None,
        ).validate()


class TestTranslationAndInstrumentation:
    def test_unknown_translation_lists_schemes(self):
        with pytest.raises(ValueError, match="interleaved"):
            MachineConfig(n_pes=8, translation="random").validate()

    def test_trace_requires_instrument(self):
        with pytest.raises(ValueError, match="instrument=True"):
            MachineConfig(n_pes=8, trace_capacity=100).validate()

    def test_negative_trace_capacity(self):
        with pytest.raises(ValueError, match="trace_capacity"):
            MachineConfig(n_pes=8, instrument=True, trace_capacity=-1).validate()

    def test_instrumented_config_valid(self):
        MachineConfig(n_pes=8, instrument=True, trace_capacity=1000).validate()
