"""Gene-expression clustering toolkit.

Entropy/information-gain gene filtering, S/Z membership fuzzification,
soft-set similarity, three partitional clustering engines (kmeans, rough,
fsrk), DB and Xie-Beni validity scoring, and an experiment-comparison CLI.
The package exports each module's ``__all__``.
"""

from . import clustering, errors, fuzzysoft, genefilter, ingest, validity
from .clustering import *
from .errors import *
from .fuzzysoft import *
from .genefilter import *
from .ingest import *
from .validity import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *ingest.__all__,
    *genefilter.__all__,
    *fuzzysoft.__all__,
    *clustering.__all__,
    *validity.__all__,
    *errors.__all__,
]
