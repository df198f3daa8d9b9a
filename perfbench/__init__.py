"""perfbench — the one benchmark of this repository (see README.md here).

Everything the benchmark needs lives in this directory; it imports the
library under ``src/`` but changes nothing there: layers are measured
from outside, by wrapping public callables (:mod:`perfbench.trace`) and
reading public counters.
"""
