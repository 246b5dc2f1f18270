"""Frozen value records, made without the dataclasses module.

``@record`` does for a class what ``@dataclass(frozen=True)`` did: its
annotated names, in order, become the fields of a generated ``__init__``
(positional or keyword, with the class-body defaults, then
``__post_init__`` if the class has one), ``__repr__``, ``__eq__`` and
``__hash__`` over the fields.  ``eq=False`` keeps identity equality and
hashing; fields named in ``ignore`` are left out of ``==`` and ``hash``.
Assigning or deleting an attribute raises :class:`FrozenInstanceError`
with dataclasses' messages.  Importing ``dataclasses`` would load
``inspect`` into every process, which costs more than all of this.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


def _assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, eq: bool = True, ignore: tuple[str, ...] = ()):
    if cls is None:
        return lambda cls: record(cls, eq=eq, ignore=ignore)
    body = cls.__dict__
    names = list(body.get("__annotations__", ()))
    params = [f"{n}=_dflt_{n}" if n in body else n for n in names]
    init = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        init.append("self.__post_init__()")
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    # Generated source, so each record's methods run as fast as handwritten ones.
    src = [
        f"def __init__(self, {', '.join(params)}):",
        *(f" {line}" for line in init or ["pass"]),
        "def __repr__(self):",
        f' return f"{{self.__class__.__qualname__}}({shown})"',
    ]
    if eq:
        compared = [n for n in names if n not in ignore]
        mine = "".join(f"self.{n}," for n in compared)
        src += [
            "def __eq__(self, other):",
            " if other.__class__ is self.__class__:",
            f"  return ({mine}) == ({''.join(f'other.{n},' for n in compared)})",
            " return NotImplemented",
            "def __hash__(self):",
            f" return hash(({mine}))",
        ]
    scope = {"_set": object.__setattr__, **{f"_dflt_{n}": body[n] for n in names if n in body}}
    exec("\n".join(src), scope)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name in scope:
            fn = scope[name]
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
    cls.__setattr__ = _assign
    cls.__delattr__ = _delete
    cls.__match_args__ = tuple(names)
    return cls
