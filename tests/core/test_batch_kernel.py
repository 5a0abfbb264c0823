"""Unit and property tests for the batch kernel's array state.

The batch kernel keeps every message resident in a network copy in
numpy arrays (its ``_MessagePlane``) and writes the switch objects back
at each public boundary.  The correctness condition is a round-trip:
after any number of executed cycles, the incrementally-maintained
arrays must equal a plane rebuilt from scratch off the written-back
objects (``_MessagePlane.resync``).  Hypothesis drives machines through
varied sizes, workloads, and seeds and checks the round-trip at an
arbitrary cut point.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store


def _program(pe_id, rounds, seed):
    rng = random.Random((seed << 16) | pe_id)
    acc = 0
    for i in range(rounds):
        yield rng.randrange(1, 20)
        choice = rng.randrange(3)
        if choice == 0:
            acc += yield FetchAdd(0, 1)
        elif choice == 1:
            yield Store(64 + pe_id * 4 + (i % 4), acc)
        else:
            acc += yield Load(64 + pe_id * 4 + (i % 4))
    return acc


def _mirror_states(machine):
    """The kernel's per-copy message planes (forces state construction)."""
    kernel = machine.kernel
    kernel._ensure_state()
    return kernel._states


def _assert_mirror_matches_rebuild(state) -> None:
    incremental = state.export_state()
    state.resync()
    rebuilt = state.export_state()
    for field in ("fwd_len", "ret_len", "fwd_busy", "ret_busy"):
        for stage, (inc, reb) in enumerate(
            zip(incremental[field], rebuilt[field])
        ):
            assert (inc == reb).all(), (
                f"{field}[{stage}] diverged from the object state"
            )
    assert incremental["fwd_tot"] == rebuilt["fwd_tot"]
    assert incremental["ret_tot"] == rebuilt["ret_tot"]


class TestStateRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        n_pes=st.sampled_from([4, 16]),
        seed=st.integers(min_value=0, max_value=2**16),
        cycles=st.integers(min_value=0, max_value=120),
        copies=st.sampled_from([1, 2]),
    )
    def test_arrays_match_objects_at_any_cut(self, n_pes, seed, cycles, copies):
        machine = Ultracomputer(
            MachineConfig(n_pes=n_pes, kernel="batch", copies=copies)
        )
        machine.spawn_many(n_pes, _program, 4, seed)
        for _ in range(cycles):
            machine.step()
        for state in _mirror_states(machine):
            _assert_mirror_matches_rebuild(state)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        queue_capacity=st.sampled_from([4, 6]),
    )
    def test_round_trip_with_finite_queues(self, seed, queue_capacity):
        """Back-pressure exercises the refusal paths (blocked offers must
        leave the arrays untouched, accepted ones must land exactly)."""
        machine = Ultracomputer(
            MachineConfig(
                n_pes=16,
                kernel="batch",
                queue_capacity_packets=queue_capacity,
                max_outstanding=2,
            )
        )
        machine.spawn_many(16, _program, 4, seed)
        for _ in range(80):
            machine.step()
        for state in _mirror_states(machine):
            _assert_mirror_matches_rebuild(state)

    def test_arrays_empty_after_quiescent_run(self):
        machine = Ultracomputer(MachineConfig(n_pes=16, kernel="batch"))
        machine.spawn_many(16, _program, 4, 7)
        machine.run()
        for state in _mirror_states(machine):
            assert not state.has_messages()
            _assert_mirror_matches_rebuild(state)


class TestConstruction:
    def test_registry_builds_batch_kernel(self):
        machine = Ultracomputer(MachineConfig(n_pes=4, kernel="batch"))
        assert machine.kernel.name == "batch"

    def test_results_match_dense_after_interleaved_steps(self):
        """Mixing step()/run_cycles()/run() must stay bit-identical —
        the kernel flushes its array counters at every public boundary."""
        outcomes = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(
                MachineConfig(
                    n_pes=8, kernel=kernel, instrument=True,
                    trace_capacity=1 << 12,
                )
            )
            machine.spawn_many(8, _program, 4, 13)
            for _ in range(10):
                machine.step()
            machine.run_cycles(25)
            outcomes.append(
                (machine.stats().to_dict(), machine.run().to_dict())
            )
        assert outcomes[0] == outcomes[1]

    def test_unknown_kernel_still_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            Ultracomputer(MachineConfig(n_pes=4, kernel="vector"))
