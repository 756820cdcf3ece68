"""Exception hierarchy shared across the package, and the helpers that word refusals."""


class ServelabError(Exception):
    """Base class for every error raised by this package."""


_SHOWN_MAX = 200  # longest repr shown whole


def _clipped(text: str, limit: int, noun: str) -> str:
    """text, or, when it is longer than limit, its first and last limit // 4
    characters and its length: "ab...yz (a <noun> of 50002 characters)"."""
    if len(text) <= limit:
        return text
    edge = limit // 4
    return f"{text[:edge]}...{text[-edge:]} (a {noun} of {len(text)} characters)"


def _shown(value) -> str:
    """repr(value), or the value's type where repr raises ValueError.  A repr
    longer than _SHOWN_MAX is shown by its ends and its length."""
    try:
        text = repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), or a tuple holding one
        return f"<{value.__class__.__name__} too long to print>"
    return _clipped(text, _SHOWN_MAX, "repr")


class RangeError(ServelabError):
    """A numeric argument is outside its documented range.  Given the value it
    refuses, RangeError(message, value) reads "<message>, got <_shown(value)>"."""

    def __init__(self, message, *value):
        super().__init__(f"{message}, got {_shown(*value)}" if value else message)


def _int_text(text: str) -> int:
    """int(text), a decimal integer, but a well-formed one that int() refuses
    only for its length raises RangeError naming its digit count."""
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        groups = (body[1:] if body.startswith(("+", "-")) else body).split("_")
        if all(g.isdecimal() for g in groups):
            digits = "".join(groups)
            raise RangeError(f"out of range: an integer of {len(digits)} digits") from None
        raise


class SingularProfile(ServelabError):
    """The deuce-closure denominator vanished.

    Happens for profiles like (p_F, p_S) = (1, 0): the alternating deuce
    cycle then never terminates, so no closed answer exists.
    """


class DeuceCapExceeded(ServelabError):
    """A simulated deuce ran past the cycle cap, 1,000,000 deuce cycles,
    which signals a pathological profile such as (1, 0)."""


class DegenerateProfile(ServelabError):
    """A solver input makes the problem ill-posed (e.g. the blended and
    single-serve point probabilities coincide, so no cutoff can move the
    game-win probability)."""


class ParseError(ServelabError):
    """A stats table row could not be parsed.

    Attributes:
        line_no: 1-based line number in the source, when known.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConsistencyError(ServelabError):
    """Two implementations that must agree (closed form vs exact engine)
    diverged beyond tolerance; indicates a bug, not bad input."""
