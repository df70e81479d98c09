"""Reading frames, which are dicts, from a test."""

from psipp.values import Value


def lookup(env: dict[str, Value], name: str) -> Value:
    """The value that ``env`` binds to ``name``, which must be bound."""
    value = env.get(name)
    assert value is not None, f"{name!r} is unbound"
    return value


def snapshot(*frames: dict[str, Value]) -> dict[str, Value]:
    """Flattened copy of a frame and the frames read after it (a method's
    frame, then the globals), the first binding of a name winning, to
    check that a failed match leaves every one of them untouched."""
    merged: dict[str, Value] = {}
    for env in frames:
        for name, value in env.items():
            merged.setdefault(name, value)
    return merged
