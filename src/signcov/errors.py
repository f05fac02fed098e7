"""Exception types shared across the package, and the one JSON form of a
dataclass: its init fields, written and read through dataclasses.fields."""

import dataclasses


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class DegenerateSampleError(ValueError):
    """Raised when a sample carries no usable information for an estimator,
    e.g. every observation coincides with the location."""


def fields_to_json(obj) -> dict:
    """obj's init fields in declaration order under their JSON keys (a
    field's metadata "json", else its name), None left out; a tuple or a
    numpy value as a list, a nested object as its to_json_dict."""
    out = {}
    for f in dataclasses.fields(obj):
        if not f.init or (value := getattr(obj, f.name)) is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        elif convert := getattr(value, "to_json_dict", getattr(value, "tolist", None)):
            value = convert()
        out[f.metadata.get("json", f.name)] = value
    return out


def _numeric(v) -> bool:  # JSON's "0.5" and true are no number
    return not isinstance(v, (str, bool)) and all(map(_numeric, v if isinstance(v, list) else []))


def fields_from_json(cls, d, what: str, ignored=frozenset(), numbers=frozenset()):
    """cls built by its constructor from the decoded JSON object d, a field's
    metadata "read" applied to its value. A non-object, a key neither a field's
    nor ignored, a missing key without a default, a value of the wrong type or
    form, or a string or a boolean under a key in numbers raises InvalidInputError."""
    if not isinstance(d, dict):
        raise InvalidInputError(f"{what} must be an object")
    fields = {f.metadata.get("json", f.name): f for f in dataclasses.fields(cls) if f.init}
    if unknown := sorted(set(d).difference(fields, ignored)):
        raise InvalidInputError(f"{what} has unknown key(s): {', '.join(map(repr, unknown))}")
    try:
        kwargs = {}
        for key, f in fields.items():
            if key in numbers and key in d and not _numeric(d[key]):
                raise InvalidInputError(f"{what} key {key!r} takes numbers, not {d[key]!r}")
            if key in d:
                kwargs[f.name] = f.metadata.get("read", lambda v: v)(d[key])
            elif f.default is dataclasses.MISSING:
                raise InvalidInputError(f"{what} missing key {key!r}")
        return cls(**kwargs)
    except InvalidInputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"invalid {what}: {exc}") from None
