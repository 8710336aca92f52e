"""Simulate, train, and evaluate dynamical demand-response models.

The package has three layers: `eucsim` generates hourly price/consumption
data from a population of price-responsive customers, `features` and
`models` learn the price-to-consumption mapping with linear, feedforward,
and recurrent models built from first principles, and `metrics`/`pipeline`
score the models and reproduce the error-table benchmark. `cli` exposes the
whole flow as the `drlearn` command.
"""

from .errors import ConfigError, DataError, ModelFormatError, NumericalError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "ModelFormatError",
    "NumericalError",
    "__version__",
]
