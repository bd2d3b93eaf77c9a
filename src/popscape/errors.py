"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """A configuration is malformed, incomplete, or names unknown entities."""


class IntegrityError(RuntimeError):
    """A checkpoint or cache file failed its integrity check."""
