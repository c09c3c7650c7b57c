"""Exact simulator for pre-/post-selected photonic quantum-router circuits.

The package provides sparse Fock-state evolution over named modes
(:mod:`router_sim.fock`), linear-optical elements including NS-gate routers
(:mod:`router_sim.elements`), two-state-vector analysis
(:mod:`router_sim.tsvf`), ready-made shutter/probe experiments
(:mod:`router_sim.scenarios`), a text format for circuit schedules
(:mod:`router_sim.dsl`) and a command-line interface
(:mod:`router_sim.cli`).
Its names are imported from their modules on first use: importing the
package, or its command line for ``--help``, loads no numpy.
"""

import importlib

from . import errors

#: The module of each name the package exports.
_EXPORTS = {
    name: module
    for module, names in {
        "elements": "Element ElementKind RouterOrientation apply_element "
                    "apply_schedule beamsplitter ns_single ns_two_mode "
                    "phase_shifter pqr_decomposed pqr_ideal relabel "
                    "tunneling",
        "fock": "FockState ProjectionOutcome apply_fock_phase "
                "apply_mode_unitary fidelity inner_product "
                "postselect_subsystem project_pattern register_modes "
                "schmidt_spectrum superposition_source",
        "tsvf": "ProjectorSpec TwoStateSpec abl_probability disappearing_spec "
                "postselection_success three_box_spec weak_value",
    }.items()
    for name in names.split()
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                   name)


__version__ = "0.1.0"
