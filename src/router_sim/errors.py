"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all router-sim errors."""


class DuplicateMode(SimulationError):
    """A mode label was registered more than once."""


class UnknownMode(SimulationError):
    """An operation referenced a mode that is not registered."""


class PhotonBudget(SimulationError):
    """An operation would exceed the photon budget, ``fock.PHOTON_BUDGET``."""


class NotUnitary(SimulationError):
    """A matrix fails the unitarity check."""


class NotPhase(SimulationError):
    """A Fock-phase entry does not have unit modulus."""


class ModeMismatch(SimulationError):
    """Two states do not share the same registered mode list."""


class BadPartition(SimulationError):
    """A bipartition is empty or covers all modes."""


class BadParam(SimulationError):
    """A parameter is outside its allowed range."""


class UnsupportedSector(SimulationError):
    """A router, or a compiled sweep, met an occupation pattern outside
    its sector."""


class UndefinedConditioning(SimulationError):
    """Pre/post-selected conditioning has a vanishing denominator."""


class CompileError(SimulationError):
    """A circuit document failed semantic validation."""

    def __init__(self, statement_index, message):
        super().__init__(f"statement {statement_index}: {message}")
        self.statement_index = statement_index
        self.message = message
