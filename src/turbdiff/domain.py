"""The valid values of a setting, declared once beside its default.

A domain is the text of an interval, such as ``[0, inf)`` or ``(0, 1)``,
or of a set of choices, such as ``{float32, float64}``, so it reads the
same in the code, in ``--help`` and in messages.  NaN lies in no interval.
"""

from dataclasses import field, fields


class SettingError(ValueError):
    """A setting outside its domain, or settings that break a rule between
    them.  The message is ``text(*names)``, so that a front end can name
    the settings its own way."""

    def __init__(self, text, *names: str):
        super().__init__(text(*names))
        self.text, self.names = text, names


def check(name: str, v, domain: str) -> None:
    """Raise a SettingError naming ``name`` unless ``v`` lies in ``domain``."""
    items = [s.strip() for s in domain[1:-1].split(",")]
    if domain[0] == "{":
        ok = v in items
    else:  # each end is a comparison that NaN fails
        lo, hi = float(items[0]), float(items[1])
        ok = ((lo < v if domain[0] == "(" else lo <= v)
              and (v < hi if domain[-1] == ")" else v <= hi))
    if not ok:
        raise SettingError(lambda n: f"{n} must be in {domain}, got {v}", name)


def setting(default, domain: str):
    """A dataclass field with ``default`` whose values, or whose items for a
    tuple, lie in ``domain``."""
    return field(default=default, metadata={"domain": domain})


def check_fields(obj) -> None:
    """Check each field of dataclass ``obj`` that has a domain; item i of a
    tuple field ``f`` is named ``f[i]``."""
    for f in fields(obj):
        v, domain = getattr(obj, f.name), f.metadata.get("domain")
        if domain and isinstance(v, tuple):
            for i, x in enumerate(v):
                check(f"{f.name}[{i}]", x, domain)
        elif domain:
            check(f.name, v, domain)


def check_order(lo_name: str, hi_name: str, lo, hi) -> None:
    """The rule ``lo <= hi`` between settings ``lo_name`` and ``hi_name``."""
    if not lo <= hi:
        raise SettingError(lambda a, b: f"{a} must be <= {b}, got {lo} > {hi}",
                           lo_name, hi_name)
