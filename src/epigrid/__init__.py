"""epigrid: district-level spatial epidemiology.

Contiguity-based spatial weights, global and local Moran autocorrelation with
permutation inference, raster-to-district aggregation, district-week feature
tables, and a from-scratch random-forest outbreak classifier with the usual
imbalance-aware metric suite -- plus a pipeline CLI that glues it together.
"""

__version__ = "0.2.0"

from .errors import (
    ConfigError,
    ConstantFieldError,
    DependencyError,
    EngineError,
    EngineWarning,
    GeometryError,
    InsufficientRegionsError,
    LockError,
    ParseError,
    SchemaMismatchError,
)

__all__ = [
    "__version__",
    "ConfigError",
    "ConstantFieldError",
    "DependencyError",
    "EngineError",
    "EngineWarning",
    "GeometryError",
    "InsufficientRegionsError",
    "LockError",
    "ParseError",
    "SchemaMismatchError",
]
