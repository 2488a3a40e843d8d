"""Process technology substrate: node parameters and delay models."""

from repro.tech.delay import (
    DriveResult,
    buffer_chain_delay,
    horowitz,
    rc_charge_time,
    rc_wire_delay,
)
from repro.tech.node import SUPPORTED_NODES_NM, TechnologyNode, get_node

__all__ = [
    "SUPPORTED_NODES_NM",
    "TechnologyNode",
    "get_node",
    "horowitz",
    "rc_wire_delay",
    "rc_charge_time",
    "buffer_chain_delay",
    "DriveResult",
]
