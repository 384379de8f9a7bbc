"""Deterministic stylometric analysis of line-structured verse corpora.

Submodules:

- ``corpus``: canonical on-disk format, parsing, sampling windows
- ``stats``: self-contained test statistics, special functions, seeded RNG
- ``sensepause``: punctuation-based sense-pause ratios and comparisons
- ``metre``: scansion label distributions, split tests, incidence fits
- ``lexicon``: compound vocabulary, hapax regressions, shared-compound nulls
- ``ngramcluster``: character n-gram profiles and complete-linkage clustering
- ``figures``: deterministic SVG rendering
- ``cli``: command-line entry points
"""

from .corpus import Corpus, PartRange, Poem, SampleWindow, VerseLine, parse_corpus, write_corpus
from .errors import AnalysisError, CorpusError, InputError, VersemetryError
from .stats import LinearFit, RngStream, TestMethod, TestResult

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "Corpus",
    "CorpusError",
    "InputError",
    "LinearFit",
    "PartRange",
    "Poem",
    "RngStream",
    "SampleWindow",
    "TestMethod",
    "TestResult",
    "VerseLine",
    "VersemetryError",
    "parse_corpus",
    "write_corpus",
    "__version__",
]
