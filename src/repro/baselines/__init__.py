"""The paper's published numbers: comparator rows and prose claims."""

from .published import (FAB2_HELR_MS, TABLE6, TABLE6_GME_EXTENSIONS,
                        TABLE7_US, TABLE8, TABLE9, AcceleratorSpec)

__all__ = [
    "AcceleratorSpec", "FAB2_HELR_MS", "TABLE6", "TABLE6_GME_EXTENSIONS",
    "TABLE7_US", "TABLE8", "TABLE9",
]
