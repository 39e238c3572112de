"""Self-dual asset-price models, put-call symmetries, and semi-static hedges."""

__version__ = "0.1.0"

from . import dist, duality, geometry, hedging, levy, pricing  # noqa: E402
from .rng import RngStream  # noqa: E402

__all__ = ["dist", "duality", "geometry", "hedging", "levy", "pricing", "RngStream"]
