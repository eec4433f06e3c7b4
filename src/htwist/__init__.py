"""htwist: exact-arithmetic bar/cobar constructions, twisting cochains and
twisting functions, classifying bundles, Nomura-Puppe sequences, and
machine-checked homotopy-(co)normality certificates for chain complexes
and simplicial sets."""

__version__ = "0.1.0"

# the sampler seed of every seeded check and of the CLI's --seed
DEFAULT_SEED = 20260811
# the sample count of the CLI's --samples and of simplicial's sampled checks
DEFAULT_SAMPLES = 1000


class NotReduced(Exception):
    """A simplicial set with more than one vertex where a reduced one is
    needed.  It lives here, not in `simplicial`, so that the CLI can catch
    it without importing that module."""


class NotConnected(Exception):
    """An algebra whose degree 0 is more than the unit where a connected one
    is needed.  It and `NotOneConnected` live here, not in `hopf`, so that
    the CLI can catch them without importing that module."""


class NotOneConnected(Exception):
    """A coalgebra that is not 1-connected where one is needed."""
