"""Exception types shared across the package."""


class PrecisionError(ArithmeticError):
    """A sign, bound or comparison could not be decided at the precision cap.

    Raised instead of silently rounding: every certification in this package
    must be *decided*, never approximated.
    """


class CheckpointError(OSError):
    """A scan checkpoint is unreadable, corrupt, or inconsistent."""
