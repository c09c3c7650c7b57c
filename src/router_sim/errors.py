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


class BadCoefficients(BadParam):
    """Probe coefficients are not a finite unit vector of the scenario's
    length."""


class UnsupportedSector(SimulationError):
    """A router met an occupation pattern outside its sector, or a
    scenario state has amplitude outside its block of one shutter photon
    and at most one probe photon."""


class UndefinedConditioning(SimulationError):
    """Pre/post-selected conditioning has a vanishing denominator."""


class CompileError(SimulationError):
    """A circuit document failed semantic validation; ``line`` is that of
    the statement at fault (None for the document as a whole)."""

    def __init__(self, line, message):
        where = "" if line is None else f"line {line}: "
        super().__init__(where + message)
        self.line = line
        self.message = message


class ParseError(Exception):
    """Parse failure with a 1-based position and the offending token."""

    def __init__(self, line, column, message, token=""):
        super().__init__(f"line {line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.token = token
