"""Exception types shared across the package."""


class FconvError(Exception):
    """Base class for all simulator errors."""


class UnknownMode(FconvError):
    pass


class OccupationExceedsCutoff(FconvError):
    pass


class CutoffTooSmall(FconvError):
    """Raised when a truncated construction would silently lose probability.

    Carries ``required_cutoff`` when a sufficient cutoff can be computed.
    """

    def __init__(self, message, required_cutoff=None):
        super().__init__(message)
        self.required_cutoff = required_cutoff


class DimensionMismatch(FconvError):
    pass


class TransmissionOutOfRange(FconvError):
    pass


class NonGaussianDevice(FconvError):
    pass


class EnergyConservationViolation(FconvError):
    pass
