"""Exception hierarchy shared by all modules."""


class BtckitError(Exception):
    """Base class for all toolkit errors.

    ``sample`` is the batch index of the sample the error is about, when
    there is one; it prefixes the message.
    """

    def __init__(self, message: str = "", sample: int | None = None) -> None:
        super().__init__(message)
        self.sample = sample

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.sample is None else f"sample {self.sample}: {text}"


class DataFormatError(BtckitError):
    """Malformed or inconsistent input data (files, labels, shapes)."""


class NumericalError(BtckitError):
    """Numerical failure: non-PD factorization, non-convergence, non-finite values."""


class ConfigError(BtckitError):
    """Invalid parameter or configuration value."""
