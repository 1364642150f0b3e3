"""Experiment harnesses: one entry point per paper table/figure.

The heavy lifting lives in :class:`~repro.experiments.runner.SuiteRunner`
(builds workloads, shares trace indices, memoizes strategy runs); the
``figure*``/``table*`` functions in :mod:`~repro.experiments.figures`
produce the rows each paper exhibit reports, and
:mod:`~repro.experiments.report` renders them as text tables and ASCII
charts.  :mod:`~repro.experiments.paper` records the paper's published
numbers for side-by-side comparison (``python -m repro all`` prints
every exhibit beside them).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SuiteRunner
from repro.experiments import figures
from repro.experiments import paper
from repro.experiments.report import ascii_chart, format_table

__all__ = [
    "ExperimentConfig",
    "SuiteRunner",
    "figures",
    "paper",
    "ascii_chart",
    "format_table",
]
