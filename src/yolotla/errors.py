"""Exception types raised across the package, and the one type test that
config readers share.

Every error message names the offending thing (dimension, field, parameter
path) so failures in larger pipelines stay diagnosable.
"""


class YoloTlaError(Exception):
    """Base class for all package errors."""


class ShapeError(YoloTlaError):
    """A tensor or weight has an incompatible dimension."""


class ConfigError(YoloTlaError):
    """A model configuration or operation argument is invalid."""


class ParseError(YoloTlaError):
    """A file (config, dataset, image, weights) could not be parsed."""


class WeightError(YoloTlaError):
    """A parameter is missing, unexpected, or mis-shaped."""


def is_instance(value, *types: type) -> bool:
    """`isinstance(value, types)`, except that a bool passes only where bool
    is named: a JSON `true` is never a count, a width or an index."""
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types)
