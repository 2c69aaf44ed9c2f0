"""Call counting for the deterministic call-budget gates."""

from __future__ import annotations

import cProfile
import gc
import pstats


def calls(action) -> int:
    """Function calls (Python and C, recursive ones included) ``cProfile``
    sees while ``action`` runs.  The collector is held off meanwhile: a
    collection landing inside the window would add its ``gc.callbacks``
    (Hypothesis registers one) to the count."""
    profile = cProfile.Profile()
    gc.disable()
    try:
        profile.enable()
        action()
        profile.disable()
    finally:
        gc.enable()
    return pstats.Stats(profile).total_calls
