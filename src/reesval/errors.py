"""Exception hierarchy shared by the library and the CLI.

Two branches matter to callers: ``InputError`` covers bad inputs and
precondition violations (CLI exit code 2), while ``VerificationError``
means an independent cross-check failed: a bug, never an expected
outcome (CLI exit code 3).
:func:`read_int` reads an integer argument or field against a lower
bound, raising the ``InputError`` its caller names; :func:`int_text`,
:func:`vec_text` and :func:`repr_text` write an int, a tuple of ints
and any other value into a message, :func:`digits_refusal` says why
``int`` refused a text too long to read, and :func:`lcm_of` takes the
lcm of a list of integers, such as Rees integers.
"""

import math
import operator
import sys


class CalcError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CalcError):
    """Invalid input or violated precondition."""


class VerificationError(CalcError):
    """An independent cross-check failed, which only a bug can cause."""


class NonPositiveError(InputError):
    pass


class EmptyGeneratorsError(InputError):
    pass


class InconsistentDimensionError(InputError):
    pass


class ImproperIdealError(InputError):
    pass


class NonPositivePowerError(InputError):
    pass


class DimensionMismatchError(InputError):
    pass


class ZeroExponentError(InputError):
    pass


class NotMultipleError(InputError):
    pass


class NotCommonMultipleError(InputError):
    pass


class BadKError(InputError):
    pass


class IndexMismatchError(InputError):
    pass


class InconsistentSystemError(InputError):
    pass


class OutputLimitError(InputError):
    """The answer would exceed a stated size limit."""


class ArgvError(InputError):
    """A malformed command line; the message's last line is the usage line."""


class ParseError(InputError):
    """Malformed text input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FundamentalEqualityViolation(VerificationError):
    pass


class EquivalenceViolation(VerificationError):
    pass


class OracleDisagreement(VerificationError):
    pass


def read_int(value, least: int, what: str, error: type[InputError]) -> int:
    """``value`` as an int, refusing what is not an integer >= ``least``.

    The value is read with ``operator.index``, so a float, a Fraction or
    a string raises ``error`` and is never truncated; an int is returned
    as it is.
    """
    if value.__class__ is not int:
        try:
            value = operator.index(value)
        except TypeError:
            raise error(f"{what} must be an integer, got {repr_text(value)}") from None
    if value < least:
        raise error(f"{what} must be >= {least}, got {int_text(value)}")
    return value


def int_text(value: int) -> str:
    """An int in decimal, or as ``~10^n`` or ``~-10^n`` when it is too long for ``str``.

    CPython refuses to convert an int of more than 4300 digits (the
    default of ``sys.set_int_max_str_digits``) and raises ``ValueError``,
    so a message that printed such an int would crash in place of its
    refusal.
    """
    try:
        return str(value)
    except ValueError:
        return f"~{'-' if value < 0 else ''}10^{int(math.log10(abs(value)))}"


def digits_refusal(text: str, what: str) -> str | None:
    """Why ``int`` refused ``text`` if it holds more decimal digits than
    ``sys.get_int_max_str_digits()``: ``what`` and its length, not its
    content; otherwise None.

    The limit stays, as reading decimal text is quadratic in its length.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and sum(map(str.isdecimal, text)) > limit:
        return f"{what}: int value of {len(text)} characters exceeds the {limit}-digit limit"
    return None


def repr_text(value) -> str:
    """``repr(value)``, or ``<Name too long to print>`` when it holds an int
    too long for ``str``, whose ``repr`` raises ``ValueError`` (see :func:`int_text`)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def vec_text(values: tuple[int, ...]) -> str:
    """A tuple of ints as ``str`` writes it, each int through :func:`int_text`."""
    texts = list(map(int_text, values))
    return f"({texts[0]},)" if len(texts) == 1 else f"({', '.join(texts)})"


_LCM_SHORT = 8


def lcm_of(values) -> int:
    """``math.lcm(*values)`` for a sequence of ints.

    ``math.lcm`` folds from the left, a pass over the growing lcm per
    value; a list longer than ``_LCM_SHORT`` is first halved by pairwise
    lcms, so only the last rounds take the gcd of big integers.
    """
    while len(values) > _LCM_SHORT:
        paired = list(map(math.lcm, values[::2], values[1::2]))
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return math.lcm(*values)
