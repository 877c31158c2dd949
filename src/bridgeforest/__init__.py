"""bridgeforest: exact combinatorics of unlabeled trees, labeled forests,
bridge-addable classes, and max-weight tree partition functions.

The modules are imported on use (`from bridgeforest import forestlab`), so
a CLI command loads only the ones it runs."""

__version__ = "0.1.0"


class CapacityError(RuntimeError):
    """Requested size exceeds the configured exhaustive-mode bound."""
