"""Table 6: area / power / Fmax of the three GME extension columns."""

from __future__ import annotations

from repro.baselines import TABLE6_GME_EXTENSIONS
from repro.rtlmodel import synthesize_all


def run() -> dict:
    """Returns {extension: {metric: (modeled, paper)}}."""
    modeled = synthesize_all()
    out = {}
    for name, result in modeled.items():
        paper_area, paper_power, paper_fmax = TABLE6_GME_EXTENSIONS[name]
        out[name] = {
            "area_mm2": (result.area_mm2, paper_area),
            "power_w": (result.power_w, paper_power),
            "fmax_ghz": (result.fmax_ghz, paper_fmax),
        }
    return out
