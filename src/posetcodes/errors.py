"""Exception types shared across the package, its one budget rule
(``check_budget``), its one bounded memo (``_Memo``) and its one text-file reader."""

from pathlib import Path


class PosetCodesError(Exception):
    """Base class for all library errors."""


class InputError(PosetCodesError, ValueError):
    """Invalid argument or unparseable input."""


class RangeError(InputError):
    """An element, index, or parameter is outside its allowed range."""


class CycleError(InputError):
    """Cover relations close into a cycle, violating antisymmetry."""


class EmptyInputError(InputError):
    """A nonempty sequence was required."""


class FieldMismatch(InputError):
    """Operands belong to different finite fields."""


class LengthMismatch(InputError):
    """Vector or matrix dimensions are inconsistent."""


class RankError(InputError):
    """Requested subspace dimension is out of range."""


class PreconditionViolated(InputError):
    """A documented operation precondition does not hold."""


class ChainConditionUnsatisfied(PosetCodesError):
    """No maximal flag achieves the weight hierarchy."""


class BudgetExceeded(PosetCodesError):
    """An exhaustive enumeration would exceed the configured budget."""

    def __init__(self, message, *, count=None, budget=None, r=None):
        super().__init__(message)
        self.count = count
        self.budget = budget
        self.r = r


def count_text(x: int) -> str:
    """x in decimal, however many digits it has: ``Decimal`` renders past
    CPython's int->str digit limit, so a budget error can name any count."""
    from decimal import Decimal  # only error paths need it; it adds ~4 ms to start-up

    return str(Decimal(x))


def check_budget(count: int | None, budget: int | None, message: str, **numbers) -> None:
    """Raise ``BudgetExceeded`` when ``count`` exceeds ``budget``.

    ``budget`` None is no cap; ``count`` None is past the budget, too large
    to count.  ``message`` is formatted only on refusal, with ``{count}``,
    ``{budget}`` and the other ``numbers``, every int through ``count_text``.
    """
    if budget is None or (count is not None and count <= budget):
        return
    numbers.update(count=count, budget=budget)
    text = {k: count_text(v) if isinstance(v, int) else v for k, v in numbers.items()}
    raise BudgetExceeded(message.format_map(text), count=count, budget=budget)


class _Memo(dict):
    """``of(key)`` for each key, computed on first use; emptied when it
    holds ``limit`` keys, so its memory stays flat however many keys come."""

    def __init__(self, of, limit: int):
        super().__init__()
        self.of, self.limit = of, limit

    def __missing__(self, key):
        if len(self) >= self.limit:
            self.clear()
        value = self[key] = self.of(key)
        return value


def read_utf8(path) -> str:
    """The text of the UTF-8 file at ``path``; other bytes are an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
