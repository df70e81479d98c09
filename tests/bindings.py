"""Reading an environment from a test. The interpreter itself needs only
``Environment.find``."""

from psipp.values import Environment, Value


def lookup(env: Environment, name: str) -> Value:
    """The innermost value bound to ``name``, which must be bound."""
    value = env.find(name)
    assert value is not None, f"{name!r} is unbound"
    return value


def snapshot(env: Environment) -> dict[str, Value]:
    """Flattened view, innermost bindings winning, to check that a failed
    match leaves the environment untouched."""
    merged: dict[str, Value] = {}
    while env is not None:
        for name, value in env.bindings.items():
            merged.setdefault(name, value)
        env = env.parent
    return merged
