"""The combining Omega network: topology, switches, queues, interfaces."""

from .circuit import CircuitStats, CircuitSwitchedOmega, sustained_throughput
from .interfaces import MNI, PNI, OutstandingConflictError, ReplyRecord
from .message import Message, PACKETS_WITH_DATA, PACKETS_WITHOUT_DATA
from .multistage import MultistageNetwork, NetworkConfig
from .switch import Switch, SwitchStats
from .topologies import HypercubeTopology, MeshTopology
from .systolic_queue import (
    CombiningQueue,
    InsertOutcome,
    QueueFullError,
    SystolicExit,
    SystolicQueue,
)
from .topology import (
    Hop,
    OmegaTopology,
    Topology,
    digits_of,
    from_digits,
    make_topology,
    register_topology,
    topology_names,
    validate_topology_size,
)
from .wait_buffer import WaitBuffer, WaitBufferFullError, WaitRecord

__all__ = [
    "CircuitStats",
    "CircuitSwitchedOmega",
    "CombiningQueue",
    "sustained_throughput",
    "Hop",
    "HypercubeTopology",
    "InsertOutcome",
    "MNI",
    "MeshTopology",
    "Message",
    "MultistageNetwork",
    "NetworkConfig",
    "OmegaTopology",
    "Topology",
    "OutstandingConflictError",
    "PACKETS_WITHOUT_DATA",
    "PACKETS_WITH_DATA",
    "PNI",
    "QueueFullError",
    "ReplyRecord",
    "Switch",
    "SwitchStats",
    "SystolicExit",
    "SystolicQueue",
    "WaitBuffer",
    "WaitBufferFullError",
    "WaitRecord",
    "digits_of",
    "from_digits",
    "make_topology",
    "register_topology",
    "topology_names",
    "validate_topology_size",
]
