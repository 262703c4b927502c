"""Schemas, attributes and dictionary encoding.

Bulk-bitwise PIM operates on fixed-width unsigned bit fields, so every
attribute is stored as an unsigned integer of a declared width.  Categorical
attributes (cities, regions, ship modes, ...) are dictionary-encoded: a
:class:`Dictionary` maps the raw values to dense codes and back, and
predicates written against raw values are translated to codes by the query
compiler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence


class Dictionary:
    """A bidirectional mapping between raw values and dense integer codes."""

    def __init__(self, values: Iterable = ()):
        self._value_to_code: dict[object, int] = {}
        self._code_to_value: list[object] = []
        for value in values:
            self.encode(value)

    def encode(self, value) -> int:
        """Return the code of ``value``, adding it if unseen."""
        code = self._value_to_code.get(value)
        if code is None:
            code = len(self._code_to_value)
            self._value_to_code[value] = code
            self._code_to_value.append(value)
        return code

    def encode_existing(self, value) -> int:
        """Return the code of ``value``; raise KeyError for unseen values."""
        return self._value_to_code[value]

    def decode(self, code: int):
        """Return the raw value of ``code``."""
        return self._code_to_value[code]

    def __len__(self) -> int:
        return len(self._code_to_value)

    def __contains__(self, value) -> bool:
        return value in self._value_to_code

    @property
    def values(self) -> list[object]:
        return list(self._code_to_value)



@dataclass
class Attribute:
    """One attribute (column) of a relation.

    Attributes:
        name: Attribute name, unique within the schema.
        width: Number of bits the attribute occupies in a crossbar row.
        kind: ``"int"`` for plain unsigned integers, ``"dict"`` for
            dictionary-encoded categorical values.
        dictionary: The dictionary of a ``"dict"`` attribute.
        source: Name of the relation the attribute originated from; the
            pre-join keeps this so the star (non-pre-joined) execution plan
            can be derived mechanically.
    """

    name: str
    width: int
    kind: str = "int"
    dictionary: Dictionary | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if self.width <= 0 or self.width > 64:
            raise ValueError(f"attribute {self.name!r} width must be in [1, 64]")
        if self.kind not in ("int", "dict"):
            raise ValueError(f"attribute {self.name!r} has unknown kind {self.kind!r}")
        if self.kind == "dict" and self.dictionary is None:
            self.dictionary = Dictionary()

    @property
    def max_value(self) -> int:
        """Largest value representable by the attribute."""
        return (1 << self.width) - 1

    def encode_value(self, value) -> int:
        """Translate a raw predicate constant to the stored representation."""
        if self.kind == "dict":
            assert self.dictionary is not None
            return self.dictionary.encode_existing(value)
        return int(value)

    def decode_value(self, code: int):
        """Translate a stored value back to the raw representation."""
        if self.kind == "dict":
            assert self.dictionary is not None
            return self.dictionary.decode(int(code))
        return int(code)


class Schema:
    """An ordered collection of attributes."""

    def __init__(self, name: str, attributes: Sequence[Attribute]):
        self.name = name
        self.attributes: list[Attribute] = list(attributes)
        self._by_name: dict[str, Attribute] = {}
        for attribute in self.attributes:
            if attribute.name in self._by_name:
                raise ValueError(f"duplicate attribute {attribute.name!r}")
            self._by_name[attribute.name] = attribute

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"schema {self.name!r} has no attribute {name!r}") from None

    @property
    def names(self) -> list[str]:
        return [a.name for a in self.attributes]

    @property
    def record_width(self) -> int:
        """Total bits of one record."""
        return sum(a.width for a in self.attributes)

    def subset(self, names: Sequence[str], schema_name: str | None = None) -> Schema:
        """Return a new schema containing only ``names`` (in that order)."""
        return Schema(schema_name or self.name, [self.attribute(n) for n in names])


def int_attribute(name: str, width: int, source: str | None = None) -> Attribute:
    """Convenience constructor for a plain unsigned integer attribute."""
    return Attribute(name=name, width=width, kind="int", source=source)


def dict_attribute(
    name: str,
    values: Iterable,
    width: int | None = None,
    source: str | None = None,
) -> Attribute:
    """Convenience constructor for a dictionary-encoded attribute.

    The width defaults to the number of bits needed for the supplied value
    domain (with one spare code so tests can add unseen values).
    """
    dictionary = Dictionary(values)
    if width is None:
        width = max(1, int(math.ceil(math.log2(max(len(dictionary) + 1, 2)))))
    return Attribute(name=name, width=width, kind="dict", dictionary=dictionary, source=source)


def width_for_count(count: int) -> int:
    """Bits needed to store values ``0 .. count-1``."""
    return max(1, int(math.ceil(math.log2(max(count, 2)))))
