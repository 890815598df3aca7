"""Shared exception types, and the way a guard's message shows a size."""


def shown(size: int) -> str:
    """size in decimal up to 640 digits, the lowest int-to-str limit an
    interpreter setting may choose, else the power of 2 it reaches, so that
    a guard's message never expands a huge closed form into decimal."""
    return str(size) if size < 10**640 else f"at least 2^{size.bit_length() - 1}"


class DeskScaleExceeded(ValueError):
    """An enumeration would exceed the configured desk-scale size guard."""


class ExactnessError(AssertionError):
    """A complex failed d∘d = 0 or an exactness check that must hold.

    Raised as a fatal diagnostic: it indicates a sign or indexing bug in the
    construction, never a tolerable numerical condition.
    """


class LESUnderdetermined(RuntimeError):
    """The long-exact-sequence deduction rules did not determine a degree.

    Raised instead of guessing; carries the degree and the ambiguous
    summands in its message.
    """
