"""Exception types shared across the package, and the one rejection give-up rule."""

# Attempts one rejection sampler or survival restart makes before it gives up.
_REJECTION_CAP = 1_000_000


class BrwreError(Exception):
    """Base class for all package-specific errors."""


class PopulationCapExceeded(BrwreError):
    """A generation grew past the configured population cap."""


class NonGeometricGrowth(BrwreError):
    """A quenched series has no tail rule, or did not meet it within the term budget."""


class UnboundedProgenyInGeneralMode(BrwreError):
    """The exceedance-count series of the general Q route needs offspring laws with bounded support."""


class SupportBelowRetention(BrwreError):
    """A test function's support dips below the retention floor of its inputs."""


class ArgumentOrder(BrwreError):
    """Arguments violate a required ordering (e.g. x < y)."""


class NoSurvivingReplication(BrwreError):
    """No replication survived to the generation a comparison needs."""


class RejectionCapExceeded(BrwreError):
    """A rejection sampler exhausted its attempt budget."""


def first_accepted(attempt, what: str):
    """The first result of ``attempt(k)``, k = 0, 1, ..., that is not None;
    raises :class:`RejectionCapExceeded`, naming ``what``, past the cap."""
    for k in range(_REJECTION_CAP):
        result = attempt(k)
        if result is not None:
            return result
    raise RejectionCapExceeded(f"{what}: no accepted attempt in {_REJECTION_CAP} attempts")


class ConfigError(BrwreError):
    """Invalid or inconsistent experiment configuration."""
