"""The refusal of a bad CLI configuration and its rules, shared by the core
(``cli``) and the scenario families.  A family cannot import ``cli``, which
runs as ``__main__``: it would compile it again, with a second
``ValidationError``.  Every value that validation derives from checked flags
passes one rule, ``_derived``: finite and nonzero, or refused naming its
flags and quantity.  ``_named`` alone writes flags with their values, only
when a rule refuses."""

import math
import sys

# upper bound on --points, on the length of an 'a..b:step' grid and on the
# spectrum-fit kernel
MAX_POINTS = 10**6
# upper bound on the rounding error eps |phase| (rad) of a phase whose cosine is printed
_PHASE_RESOLUTION = 1e-3


class ValidationError(Exception):
    """Bad configuration; reported with exit code 2 before any output."""


def _row(*values) -> list[list]:
    """The columns of a one-row table."""
    return [[v] for v in values]


def _named(args, names) -> str:
    """The flags ``names`` with their values in ``args``: "--a A", "--a A with
    --b B" or "--a A with --b B and --c C".  A float prints as "%g", a bracket
    as "lo,hi", and any other value (an int flag) as it is."""
    def text(name):
        value = getattr(args, name.replace("-", "_"))
        parts = value if isinstance(value, tuple) else (value,)
        return f"--{name} " + ",".join(format(v, "g") if isinstance(v, float) else str(v)
                                        for v in parts)

    first, *rest = map(text, names)
    return f"{first} with {' and '.join(rest)}" if rest else first


def _derived(args, names, quantity: str, compute):
    """``compute()``, derived from the flags ``names`` of ``args``, already
    checked, if finite and nonzero; else a ValidationError naming the flags
    and ``quantity``: overflows or underflows to 0."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{_named(args, names)}: the {quantity} overflows")
    if value == 0:
        raise ValidationError(f"{_named(args, names)}: the {quantity} underflows to 0")
    return value


def _resolved_phase(args, names, quantity: str, phase: float) -> None:
    """A nonnegative phase (rad) whose cosine the run prints: 0 (a result), or
    finite and known to ``_PHASE_RESOLUTION``, or the printed value is noise."""
    if phase != 0:
        _derived(args, names, f"{quantity} (rad)", lambda: phase)
        if sys.float_info.epsilon * phase > _PHASE_RESOLUTION:
            raise ValidationError(
                f"{_named(args, names)}: the {quantity} ({phase:.3g} rad) has a rounding error"
                f" above {_PHASE_RESOLUTION:g} rad")
