"""Exact simulator for pre-/post-selected photonic quantum-router circuits.

The package provides sparse Fock-state evolution over named modes
(:mod:`router_sim.fock`), linear-optical elements including NS-gate routers
(:mod:`router_sim.elements`), two-state-vector analysis
(:mod:`router_sim.tsvf`), ready-made shutter/probe experiments
(:mod:`router_sim.scenarios`), a text format for circuit schedules
(:mod:`router_sim.dsl`) and a command-line interface
(:mod:`router_sim.cli`).
"""

from . import errors
from .elements import (
    Element,
    ElementKind,
    RouterOrientation,
    apply_element,
    apply_schedule,
    beamsplitter,
    ns_single,
    ns_two_mode,
    phase_shifter,
    pqr_decomposed,
    pqr_ideal,
    relabel,
    tunneling,
)
from .fock import (
    FockState,
    ProjectionOutcome,
    apply_fock_phase,
    apply_mode_unitary,
    fidelity,
    inject_photon,
    inner_product,
    postselect_subsystem,
    project_onto,
    project_pattern,
    register_modes,
    schmidt_spectrum,
    superposition_source,
)
from .tsvf import (
    ProjectorSpec,
    TwoStateSpec,
    abl_probability,
    disappearing_spec,
    postselection_success,
    three_box_retrodiction,
    three_box_spec,
    weak_value,
)

__version__ = "0.1.0"
