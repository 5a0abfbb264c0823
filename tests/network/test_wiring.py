"""The network's wiring is one table of resolved targets.

* **No per-port code.**  Building a :class:`MultistageNetwork` creates
  a number of function and cell objects that does not grow with the
  port count: the switches deliver through ``forward_targets`` /
  ``return_targets`` and make no delivery callable per output.
* **Unused ports stay an invariant.**  A message routed out a port the
  topology leaves unwired (a mesh boundary) raises the "routing
  invariant broken" ``AssertionError`` under the dense kernel, in both
  directions.
"""

from __future__ import annotations

import gc
from types import CellType, FunctionType

import pytest

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import Load
from repro.network.message import Message
from repro.network.multistage import MultistageNetwork, NetworkConfig
from repro.network.topology import make_topology

#: two sizes per fabric
SIZES = {"omega": (16, 256), "hypercube": (16, 256), "mesh": (16, 64)}


def _closures() -> int:
    return sum(type(obj) in (FunctionType, CellType) for obj in gc.get_objects())


def _closures_made(name: str, n_ports: int) -> int:
    topology = make_topology(name, n_ports, 2)
    gc.collect()
    before = _closures()
    network = MultistageNetwork(NetworkConfig(n_ports=n_ports), topology)
    network.build_switches()
    gc.collect()
    made = _closures() - before
    assert network.forward_targets and network.return_targets
    return made


@pytest.mark.parametrize("name", sorted(SIZES))
def test_build_makes_no_closure_per_port(name):
    small, large = SIZES[name]
    assert _closures_made(name, small) == _closures_made(name, large)


def _mesh_machine() -> Ultracomputer:
    return Ultracomputer(MachineConfig(n_pes=16, topology="mesh", kernel="dense"))


def _west_bound(machine: Ultracomputer, is_reply: bool) -> Message:
    """A message from PE 0 to MM 0 whose stage-0 digit is WEST: node 0
    sits on the mesh's west edge, so that port is unwired."""
    topology = machine.topology
    digits = [topology.local_port] * topology.stages
    digits[0] = topology.WEST
    assert topology.forward_target(0, 0, topology.WEST) is None
    assert topology.return_target(0, 0, topology.WEST) is None
    return Message(op=Load(0), mm=0, offset=0, origin=0, tag=1,
                   digits=digits, is_reply=is_reply)


def test_request_out_a_dangling_port_breaks_the_invariant():
    machine = _mesh_machine()
    assert machine._networks[0].offer_request(0, _west_bound(machine, False))
    with pytest.raises(AssertionError, match="routing invariant broken"):
        machine.step()


def test_reply_out_a_dangling_port_breaks_the_invariant():
    machine = _mesh_machine()
    assert machine._networks[0].offer_reply(0, _west_bound(machine, True))
    with pytest.raises(AssertionError, match="routing invariant broken"):
        machine.step()
