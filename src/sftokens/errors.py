"""Exception types shared across the package."""


class DegenerateResize(ValueError):
    """Resize target collapsed to zero rows or columns; input unusable."""


class InvalidDuration(ValueError):
    """Video duration must be strictly positive."""


class NonDivisibleStride(ValueError):
    """Pooling strides must divide the grid dimensions exactly."""


class InvalidOutputShape(ValueError):
    """Adaptive pooling target must not exceed the input dimensions."""


class InvalidCount(ValueError):
    """Frame-selection count is outside the valid range."""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""
