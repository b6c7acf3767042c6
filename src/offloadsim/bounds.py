"""The one bound check of every numeric parameter, and its one message.

Each value type is a ``checked`` base over one table, field -> (default,
kind), the only place a field's default and bound are stated. A kind is
"positive", "nonnegative", "probability" (in [0, 1]) or "any", each a finite
float, or "int", a nonnegative integer; a pair (kind, extra) gives "int" a
maximum and a float kind one more value it accepts (None or inf), ("word",
words) accepts a string in ``words``, a dict gives each component of a tuple
field its kind, and None marks a field that is itself a checked type.
"""

import math
from collections import namedtuple

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
    elif kind == "word":
        if value in extra[0]:
            return value
        words = f"one of {', '.join(sorted(extra[0]))}"
    elif extra and value == extra[0] or math.isfinite(value) and _FLOAT_KINDS[kind][1](value):
        return value
    else:
        words = _FLOAT_KINDS[kind][0] if math.isfinite(value) else "finite"
    raise ValueError(f"{name} must be {words}, got {value if text is None else text!r}")


def checked(name: str, fields: dict):
    """A namedtuple base over ``fields``, field -> (default, kind), where a
    default of ``...`` means none (such fields come first). Every construction,
    ``_replace`` included, checks each field against its kind and then calls
    ``_check``, where a subclass states the rules that span fields."""

    class Checked(namedtuple(name, fields, defaults=[default for default, _ in fields.values() if default is not ...])):
        __slots__ = ()
        KINDS = {field: kind for field, (_, kind) in fields.items() if kind is not None}
        _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

        def __new__(cls, *args, **kwargs):
            self = super().__new__(cls, *args, **kwargs)
            for field, kind in self.KINDS.items():
                value = getattr(self, field)
                if isinstance(kind, dict):
                    for i, component in kind.items():
                        check(f"{field}[{i}]", value[i], component)
                else:
                    check(field, value, kind)
            self._check()
            return self

        def _check(self) -> None:
            """Raise ValueError where a rule that spans fields fails; none here."""

    return Checked
