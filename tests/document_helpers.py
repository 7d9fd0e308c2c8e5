"""Walk a JSON document along the dataclass tree it encodes.

The codec tests take their paths, fields and wrong values from the
dataclasses themselves (``dataclasses.fields`` and the resolved
annotations), the way :func:`repro.config.from_doc` reads them, so a
field added to any decoded class is covered without editing a list.
"""

import dataclasses
import enum
import typing

#: Values of the wrong JSON type for a field of each annotated kind.
WRONG_VALUES = {
    int: ["x", [], {}, None, True, 1.5],
    float: ["x", [], {}, None, True],
    bool: ["x", [], {}, None, 1],
    str: [1, [], {}, None, True],
    enum.Enum: ["no-such-value", 1, None, []],
    tuple: ["x", 1, {}, None],
    "object": ["x", [], 1, True],
}


def unwrap(hint):
    """``(hint without Optional, whether None is a valid value)``."""
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        return inner, True
    return hint, False


def _kind(hint):
    if dataclasses.is_dataclass(hint):
        return "object"
    if typing.get_origin(hint) is tuple:
        return tuple
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return enum.Enum
    return hint


def wrong_values(hint):
    """JSON values a field annotated ``hint`` must refuse (``"object"``
    stands for a member that must be a JSON object)."""
    inner, optional = unwrap(hint)
    return [v for v in WRONG_VALUES[_kind(inner)] if not (optional and v is None)]


def dataclass_nodes(cls, doc, path=()):
    """``(path, cls, node)`` for every dataclass object in ``doc``, the
    JSON document of a ``cls`` value, root first. A path step is a
    field name or a list index."""
    yield path, cls, doc
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint, _ = unwrap(hints[f.name])
        value = doc.get(f.name)
        if value is None:
            continue
        if dataclasses.is_dataclass(hint):
            yield from dataclass_nodes(hint, value, path + (f.name,))
        elif typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[0]
            if dataclasses.is_dataclass(item):
                for index, element in enumerate(value):
                    yield from dataclass_nodes(item, element, path + (f.name, index))


def field_slots(cls, doc, path=()):
    """``(path, field name, annotation)`` for every field of every
    dataclass object in ``doc``, present in it or not."""
    for where, node_cls, _ in dataclass_nodes(cls, doc, path):
        hints = typing.get_type_hints(node_cls)
        for f in dataclasses.fields(node_cls):
            yield where, f.name, hints[f.name]


def node_at(doc, path):
    """The member of ``doc`` at ``path``; missing object members are
    created empty on the way."""
    for step in path:
        doc = doc[step] if isinstance(step, int) else doc.setdefault(step, {})
    return doc


def json_path(path):
    """``("workload", "tenants", 0)`` -> ``"workload.tenants[0]"``."""
    out = ""
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else f".{step}"
    return out.lstrip(".")
