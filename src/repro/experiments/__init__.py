"""Experiment harnesses: one module per paper table/figure.

Each harness's ``run()`` returns the repo's values beside the paper's;
:mod:`.claims` turns them into one ledger row per paper number.  Print
the ledger, or a subset of harnesses, with::

    python -m repro.experiments.runner
    python -m repro.experiments.runner --only table7 fig8
"""

from . import fig6, fig7, fig8, table4, table6, table7, table8, table9

__all__ = ["fig6", "fig7", "fig8", "table4", "table6", "table7", "table8",
           "table9"]
