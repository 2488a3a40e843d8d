"""Process technology node models.

The array characterizer (:mod:`repro.nvsim`) needs per-node device and
interconnect parameters: supply voltage, transistor drive strength and
capacitance, wire RC, and leakage.  This module provides a table of
technology nodes from 130 nm down to 7 nm with parameters that follow the
scaling trends used by CACTI and NVSim: drive current per micron improves
slowly, capacitance per micron shrinks with pitch, wire resistance per micron
grows sharply below 32 nm, and leakage per micron of transistor width grows
as threshold voltages drop.

The absolute values are representative rather than foundry-exact — the
reproduction needs correct relative behaviour across nodes and technologies
(see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import NANOMETER

#: Nodes the framework ships parameters for, in nanometers.
SUPPORTED_NODES_NM: tuple[int, ...] = (7, 10, 14, 16, 22, 28, 32, 40, 45, 65, 90, 130)


@dataclass(frozen=True)
class TechnologyNode:
    """Device and interconnect parameters for one process node.

    Attributes
    ----------
    node_nm:
        Nominal feature size in nanometers (e.g. ``22``).
    feature_size:
        Feature size ``F`` in meters; cell areas are expressed in units of
        ``F^2``.
    vdd:
        Nominal supply voltage in volts.
    ion_per_um:
        NMOS saturation drive current per micron of gate width, in A/um.
    ioff_per_um:
        NMOS off-state (leakage) current per micron of gate width, in A/um.
    gate_cap_per_um:
        Gate capacitance per micron of gate width, in F/um.
    drain_cap_per_um:
        Drain diffusion capacitance per micron of gate width, in F/um.
    min_width_um:
        Minimum transistor width in microns (~3F).
    wire_res_per_um:
        Local wire (M2-class) resistance, ohms per micron.
    wire_cap_per_um:
        Local wire capacitance, farads per micron.
    sense_amp_delay:
        Latched sense-amplifier resolution delay, seconds.
    sense_amp_energy:
        Energy per sense-amp activation, joules.
    sense_amp_area:
        Layout area of one sense amplifier, m^2.
    logic_gate_delay:
        FO4 inverter delay, seconds; used for decoder stage estimates.
    """

    node_nm: int
    feature_size: float
    vdd: float
    ion_per_um: float
    ioff_per_um: float
    gate_cap_per_um: float
    drain_cap_per_um: float
    min_width_um: float
    wire_res_per_um: float
    wire_cap_per_um: float
    sense_amp_delay: float
    sense_amp_energy: float
    sense_amp_area: float
    logic_gate_delay: float

    @property
    def min_transistor_on_resistance(self) -> float:
        """Effective on-resistance of a minimum-width NMOS, in ohms."""
        return self.vdd / (self.ion_per_um * self.min_width_um)

    @property
    def min_transistor_gate_cap(self) -> float:
        """Gate capacitance of a minimum-width transistor, in farads."""
        return self.gate_cap_per_um * self.min_width_um

    @property
    def min_transistor_drain_cap(self) -> float:
        """Drain capacitance of a minimum-width transistor, in farads."""
        return self.drain_cap_per_um * self.min_width_um

    @property
    def min_transistor_leakage(self) -> float:
        """Off-state leakage power of a minimum-width NMOS at vdd, in watts."""
        return self.vdd * self.ioff_per_um * self.min_width_um

    @property
    def global_wire_res_per_um(self) -> float:
        """Wide upper-metal (H-tree) wire resistance, ohms per micron."""
        return 0.45 * self.wire_res_per_um

    def wire_resistance(self, length: float) -> float:
        """Resistance of a local wire of ``length`` meters, in ohms."""
        return self.wire_res_per_um * (length / 1e-6)

    def global_wire_resistance(self, length: float) -> float:
        """Resistance of a global wire of ``length`` meters, in ohms."""
        return self.global_wire_res_per_um * (length / 1e-6)

    def wire_capacitance(self, length: float) -> float:
        """Capacitance of a local wire of ``length`` meters, in farads."""
        return self.wire_cap_per_um * (length / 1e-6)


def _build_table() -> dict[int, TechnologyNode]:
    # (node, vdd, ion uA/um, ioff nA/um, cgate fF/um, cdrain fF/um,
    #  wire ohm/um, wire fF/um, SA ps, SA fJ, fo4 ps)
    #
    # Wire resistance is for minimum-pitch in-array routing (bitlines and
    # wordlines run at cell pitch); it rises sharply below 32 nm as barrier
    # layers eat into the copper cross-section.  Global routing (the H-tree)
    # uses wider upper-metal wires; see TechnologyNode.global_wire_res_per_um.
    rows = [
        (130, 1.30, 600, 10.0, 1.60, 1.30, 1.6, 0.40, 400, 12.0, 45),
        (90, 1.20, 700, 30.0, 1.40, 1.10, 2.5, 0.35, 320, 9.0, 33),
        (65, 1.10, 750, 100.0, 1.20, 0.95, 4.0, 0.30, 260, 7.0, 24),
        (45, 1.00, 850, 200.0, 1.00, 0.80, 7.0, 0.26, 210, 5.0, 17),
        (40, 1.00, 880, 220.0, 0.95, 0.76, 8.0, 0.25, 200, 4.6, 15),
        (32, 0.95, 950, 280.0, 0.85, 0.68, 12.0, 0.22, 170, 3.6, 12),
        (28, 0.95, 1000, 300.0, 0.80, 0.64, 14.0, 0.21, 160, 3.2, 11),
        (22, 0.90, 1050, 320.0, 0.72, 0.58, 20.0, 0.19, 140, 2.6, 9),
        (16, 0.85, 1150, 350.0, 0.62, 0.50, 35.0, 0.17, 120, 2.0, 7),
        (14, 0.80, 1200, 360.0, 0.58, 0.46, 42.0, 0.16, 110, 1.8, 6),
        (10, 0.75, 1250, 380.0, 0.52, 0.42, 60.0, 0.15, 100, 1.5, 5),
        (7, 0.70, 1300, 400.0, 0.46, 0.37, 90.0, 0.14, 90, 1.2, 4),
    ]
    table: dict[int, TechnologyNode] = {}
    for node, vdd, ion, ioff, cg, cd, wres, wcap, sa_ps, sa_fj, fo4_ps in rows:
        feature = node * NANOMETER
        min_width_um = 3.0 * node * 1e-3  # ~3F expressed in microns
        # A sense amp occupies roughly 60 F x 30 F of layout.
        sa_area = (60 * feature) * (30 * feature)
        table[node] = TechnologyNode(
            node_nm=node,
            feature_size=feature,
            vdd=vdd,
            ion_per_um=ion * 1e-6,
            ioff_per_um=ioff * 1e-9,
            gate_cap_per_um=cg * 1e-15,
            drain_cap_per_um=cd * 1e-15,
            min_width_um=min_width_um,
            wire_res_per_um=wres,
            wire_cap_per_um=wcap * 1e-15,
            sense_amp_delay=sa_ps * 1e-12,
            sense_amp_energy=sa_fj * 1e-15,
            sense_amp_area=sa_area,
            logic_gate_delay=fo4_ps * 1e-12,
        )
    return table


_NODE_TABLE: dict[int, TechnologyNode] = _build_table()


def get_node(node_nm: int) -> TechnologyNode:
    """Return the :class:`TechnologyNode` for ``node_nm``.

    Raises
    ------
    ConfigError
        If the node is not one of :data:`SUPPORTED_NODES_NM`.
    """
    try:
        return _NODE_TABLE[int(node_nm)]
    except KeyError:
        supported = ", ".join(str(n) for n in SUPPORTED_NODES_NM)
        raise ConfigError(
            f"unsupported technology node {node_nm} nm (supported: {supported})"
        ) from None

