"""The one bound check of every numeric parameter, and its one message.

A value type's ``KINDS`` table (field -> kind) is the only place a field's
bound is stated. A kind is "positive", "nonnegative", "probability" (in
[0, 1]) or "any", each a finite float, or "int", a nonnegative integer; a pair
(kind, extra) gives "int" a maximum and a float kind one more value it accepts
(None or inf), and a dict gives each component of a tuple field its kind.
"""

import math

# float kind -> (its words in a message, whether a finite value is of that kind)
_FLOAT_KINDS = {
    "positive": ("positive", lambda v: v > 0.0),
    "nonnegative": ("nonnegative", lambda v: v >= 0.0),
    "probability": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "any": ("finite", lambda v: True),
}


def check(name: str, value, kind, text: str | None = None):
    """``value`` if it is of ``kind``, else a ValueError "<name> must be <kind>,
    got <value!r>", quoting ``text`` in place of the value it was read from."""
    kind, *extra = (kind,) if isinstance(kind, str) else kind
    if kind == "int":
        if isinstance(value, int) and 0 <= value <= (extra[0] if extra else value):
            return value
        words = f"an integer in [0, {extra[0]}]" if extra else "a nonnegative integer"
    elif extra and value == extra[0] or math.isfinite(value) and _FLOAT_KINDS[kind][1](value):
        return value
    else:
        words = _FLOAT_KINDS[kind][0] if math.isfinite(value) else "finite"
    raise ValueError(f"{name} must be {words}, got {value if text is None else text!r}")


def check_fields(values) -> None:
    """Check each field of a namedtuple that its ``KINDS`` table lists."""
    for field, kind in values.KINDS.items():
        value = getattr(values, field)
        if isinstance(kind, dict):
            for i, component in kind.items():
                check(f"{field}[{i}]", value[i], component)
        else:
            check(field, value, kind)
