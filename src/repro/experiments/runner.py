"""The table registry and the serial runner.

:data:`TABLE_MODULES` maps each paper table to its module;
:func:`run_tables` renders tables one after another in one session, the
serial reference the campaign (``python -m repro campaign``, which also
writes EXPERIMENTS.md with ``--report``) is checked against.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.experiments import (
    table01, table02, table03, table04, table05, table06, table07,
    table08, table09, table10, table11, table12, table13, table14,
    table15, table16, table17,
)
from repro.experiments.common import Table
from repro.pipeline.session import Session

#: Table number -> module.  Every module exposes ``run`` (the
#: formatter) and ``SPEC`` (its declarative grid cells).
TABLE_MODULES = {
    1: table01, 2: table02, 3: table03, 4: table04, 5: table05,
    6: table06, 7: table07, 8: table08, 9: table09, 10: table10,
    11: table11, 12: table12, 13: table13, 14: table14, 15: table15,
    16: table16, 17: table17,
}

EXPERIMENTS: dict[int, Callable[[Session], Table]] = {
    number: module.run for number, module in TABLE_MODULES.items()
}


def run_tables(session: Session,
               numbers: Optional[list[int]] = None,
               echo: bool = True) -> dict[int, Table]:
    """Run the requested experiments (all by default)."""
    numbers = numbers or sorted(EXPERIMENTS)
    results: dict[int, Table] = {}
    for number in numbers:
        started = time.time()
        table = EXPERIMENTS[number](session)
        results[number] = table
        if echo:
            print(table.render())
            print(f"  [{time.time() - started:.1f}s]\n")
    return results

