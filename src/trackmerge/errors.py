"""Exception types shared across the package, and how their messages show
the values they reject."""

import math


class TrackmergeError(ValueError):
    """Base class for all rejected-input and data errors."""


class MaskError(TrackmergeError):
    """Malformed RLE mask or mismatched mask dimensions."""


class FlowError(TrackmergeError):
    """Bad .flo file or mismatched flow dimensions."""


class ManifestError(TrackmergeError):
    """Manifest schema violation; message names the offending field."""


def shown(v) -> str:
    """``v`` as an error message shows it. A loaded file may hold integers
    of thousands of digits and strings of any length, so an integer of more
    than 20 digits is named by its digit count, as <401-digit integer>, and
    any other repr is cut to 60 characters."""
    if isinstance(v, int) and not isinstance(v, bool):
        a = abs(v)
        if a < 10**20:
            return str(v)
        digits = int(math.log10(a)) + 1  # a float: may be one off
        digits += (a >= 10**digits) - (a < 10 ** (digits - 1))
        return f"{'-' if v < 0 else ''}<{digits}-digit integer>"
    r = repr(v)
    return r if len(r) <= 60 else r[:57] + "..."
