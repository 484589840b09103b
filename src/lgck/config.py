"""Reading JSON configs: every field typed, bounded or refused here.

A block is read by walking its field table: key -> (spec, default), with
``REQUIRED`` for a key that must be present.  A spec is a sub-table (keyed
"*" for an object of named entries) or a reader taking the JSON value and
the fields of its block read so far.  ``read`` names the dotted path of
the first bad field in one ``ConfigError``; checks that need computed data
raise it where that data lives.  A key that a block's table does not list
is refused; the top level stays open, because the verbs share it.  Each
entry of a list of objects is read by its own table, named after the list.

A rational is an integer or a string "p" or "p/q" such as "-2/5"; a float,
a boolean or a decimal string is refused.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactalg import MultiPoly

REQUIRED = object()
# Fraction also reads "1e999999999", which takes minutes and gigabytes to build.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ConfigError(ValueError):
    """A malformed config field, named by its dotted path."""

    def __init__(self, path: str, reason: str):
        self.path, self.reason = path, reason
        where = f"model config: {path}" if path in MODEL else path or "config"
        super().__init__(f"malformed {where}: {reason}")


# -- readers: (JSON value, fields of the block read so far) -> typed value ------


def typed(types, what: str, convert=None, ok=None):
    """A reader of one JSON type whose values pass ``ok(value, got)``, then
    ``convert``; a bool is not an int."""
    def read(x, got=None):
        if (not isinstance(x, types) or (isinstance(x, bool) and types is not bool)
                or (ok is not None and not ok(x, got))):
            raise ValueError(f"expected {what}, got {x!r:.60}")
        return x if convert is None else convert(x)
    return read


def integer(low: int):
    return typed(int, f"an integer >= {low}", ok=lambda x, got: x >= low)


def choice(*options: str):
    return typed(str, f"one of {', '.join(options)}", ok=lambda x, got: x in options)


def list_of(reader, size: int | None = None):
    """A list of entries read by ``reader``; of ``size`` entries if given."""
    def read(x, got=None) -> tuple:
        out = tuple(reader(v, got) for v in typed((list, tuple), "a list")(x))
        if size is not None and len(out) != size:
            raise ValueError(f"expected {size} entries, got {len(out)}")
        return out
    return read


def names(x, got=None) -> tuple[str, ...]:
    x = list_of(string)(x)
    if len(set(x)) != len(x):
        raise ValueError("names must be unique")
    return x


def poly(text, got) -> MultiPoly:
    """A polynomial string over the block's ``variables``."""
    return MultiPoly.parse(string(text), got["variables"])


def entry(table: dict):
    """An object read by its own field table, whose readers also see the
    fields of the block that holds the list of entries."""
    return lambda x, got=None: read(table, x, "entry", got)


def correlators(arity: int, reader):
    """Entries {"key": [arity indices >= 0], "value": ...} as a dict by key."""
    fields = entry({"key": (list_of(integer(0), arity), REQUIRED), "value": (reader, REQUIRED)})

    def read_entries(x, got=None) -> dict:
        table = {}
        for e in list_of(fields)(x):
            if e["key"] in table:
                raise ValueError(f"key {list(e['key'])} appears twice")
            table[e["key"]] = e["value"]
        return table
    return read_entries


block = typed(dict, "an object")  # COHFT/SIMPLICIAL: its owner reads it by its own table
string = typed(str, "a string")
boolean = typed(bool, "true or false")
point = typed(str, "one of the points", ok=lambda x, got: x in got["points"])
rational = typed((int, str, Fraction), 'an integer or a string "p" or "p/q"', Fraction,
                 ok=lambda x, got: not isinstance(x, str) or _RATIONAL.fullmatch(x))
rationals = list_of(rational)
rows = list_of(rationals)
constant = typed((int, str), 'a constant such as "(3/2)*z5^2"',
                 lambda x: MultiPoly.parse(str(x), ()).constant_term())


# -- the walk -------------------------------------------------------------------


def read(table: dict, data, path: str = "", scope=None) -> dict:
    """The typed fields of the block at ``path``, by its field table; its
    readers also see ``scope``, the fields of an enclosing block."""
    if not isinstance(data, dict):
        raise ConfigError(path, f"{type(data).__name__} is not a JSON object")
    if "*" in table:
        table = dict.fromkeys(data, table["*"])
    unknown = [key for key in data if key not in table]
    if path and unknown:  # the top level stays open: the verbs share it
        raise ConfigError(f"{path}.{unknown[0]}", "unknown field")
    got = dict(scope or {})
    for key, (spec, default) in table.items():
        at = f"{path}.{key}" if path else key
        if key not in data:
            if default is REQUIRED:
                raise ConfigError(at, "missing")
            got[key] = default
        elif isinstance(spec, dict):
            got[key] = read(spec, data[key], at)
        else:
            try:
                got[key] = spec(data[key], got)
            except ConfigError as exc:  # in a list entry: named after the list
                raise ConfigError(at, f"{exc.path}: {exc.reason}") from exc
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ConfigError(at, str(exc)) from exc
    return {key: got[key] for key in table}


def read_field(data, key: str, spec, default=REQUIRED):
    """One top-level field of a config."""
    return read({key: (spec, default)}, data)[key]


# -- field tables -----------------------------------------------------------------

MODEL = {
    "variables": (names, REQUIRED),
    "potential": (poly, REQUIRED),
    "torus_weights": (rows, ()),
    "finite_generators": (rows, ()),
    "chi": (rationals, ()),
    "nu": (rationals, ()),
    "r_charges": (rationals, REQUIRED),
    "d_w": (integer(1), REQUIRED),
}
CHARACTERS = {"*": (rationals, REQUIRED)}
KOSZUL = {
    "variables": (names, REQUIRED),
    "tau": (list_of(poly), REQUIRED),
    "sigma": (list_of(poly), REQUIRED),
}
VIRDIM = {
    "g": (integer(0), REQUIRED),
    "r": (integer(0), None),
    "d_pairing": (rational, Fraction(0)),
    "insertions": (rows, REQUIRED),
}
COHFT = {"basis": (choice("narrow", "full"), "narrow"), "tables": (block, None)}
COHFT_TABLES = {
    "unit": (list_of(constant), REQUIRED),
    "shift_genus0": (rational, Fraction(0)),
    "omega03": (correlators(3, constant), {}),
    "omega04": (correlators(4, list_of(constant, 2)), {}),
    "omega11": (correlators(1, list_of(constant, 2)), {}),
    "boundary_pullbacks": ({"*": (list_of(rational, 2), REQUIRED)}, {}),
}
RESTRICTION = {"from": (point, REQUIRED), "to": (point, REQUIRED), "matrix": (rows, REQUIRED)}
POSET = {
    "name": (string, "custom"),
    "points": (names, REQUIRED),
    "order_pairs": (list_of(list_of(point, 2)), REQUIRED),
    "stalk_dims": (list_of(integer(0)), REQUIRED),
    "restriction_matrices": (list_of(entry(RESTRICTION)), ()),
}
SIMPLICIAL = {"poset": (block, None)}
KUNNETH = {"other_model": (string, REQUIRED)}
