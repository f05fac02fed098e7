"""Exception types shared across the package, and the conversion of
malformed JSON input into them."""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class DegenerateSampleError(ValueError):
    """Raised when a sample carries no usable information for an estimator,
    e.g. every observation coincides with the location."""


def from_json_object(d, what: str, build):
    """build(d) for a decoded JSON object d; a non-object, a missing key or
    a value of the wrong type or form raises InvalidInputError."""
    if not isinstance(d, dict):
        raise InvalidInputError(f"{what} must be an object")
    try:
        return build(d)
    except KeyError as exc:
        raise InvalidInputError(f"{what} missing key {exc}") from None
    except InvalidInputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"invalid {what}: {exc}") from None


def reject_unknown_keys(d: dict, known, what: str) -> None:
    """Raise InvalidInputError naming every key of d that is not in known."""
    unknown = sorted(set(d).difference(known))
    if unknown:
        raise InvalidInputError(
            f"{what} has unknown key(s): {', '.join(map(repr, unknown))}"
        )
