"""Published comparator numbers, verbatim from the paper (source="paper").

We do not re-run Lattigo, 100x, FAB, or the ASICs; like the paper, the
comparison tables quote their published results.  Every value here carries
its table, figure or section of origin, and it is the only place a paper
number is written down (besides ``repro.gpusim.isa.PAPER_TABLE4``):
``repro.experiments.claims`` reads them from here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AcceleratorSpec:
    """One column of paper Table 6."""

    name: str
    platform: str
    technology_nm: int | None
    word_bits: int | None
    onchip_mb: float | None
    freq_ghz: float | None
    area_mm2: float | None
    power_w: float | None


#: Paper Table 6 (architecture comparison).
TABLE6 = {
    "Lattigo": AcceleratorSpec("Lattigo", "CPU", 14, 54, 6, 3.5, 122, 91),
    "F1": AcceleratorSpec("F1", "ASIC", 13, 32, 64, 1.0, 151.4, 180.4),
    "BTS": AcceleratorSpec("BTS", "ASIC", 7, 64, 512, 1.2, 373.6, 163.2),
    "CL": AcceleratorSpec("CL", "ASIC", 13, 28, 256, 1.0, 472.3, 317),
    "ARK": AcceleratorSpec("ARK", "ASIC", 7, 64, 512, 1.0, 418.3, 281.3),
    "FAB": AcceleratorSpec("FAB", "FPGA", 16, 54, 43, 0.3, None, 225),
    "100x": AcceleratorSpec("100x", "V100", 12, 54, 6, 1.2, 815, 250),
    "T-FHE": AcceleratorSpec("T-FHE", "A100", 7, 32, 20.25, 1.4, 826, 400),
    "GME-base": AcceleratorSpec("GME (MI100)", "GPU", 7, 54, 15.5, 1.5,
                                700, 300),
}

#: Paper Table 6, GME extension columns: (area mm^2, power W, fmax GHz).
TABLE6_GME_EXTENSIONS = {
    "cNoC": (96.82, 53.91, 1.68),
    "MOD": (48.27, 31.86, 1.63),
    "WMAC": (41.11, 21.73, 1.72),
}

#: Paper Table 7: FHE building-block latencies in microseconds.
TABLE7_US = {
    "HyPHEN-CPU": {"CMult": 506, "HEAdd": 202, "HEMult": 17300,
                   "Rotate": 15500, "Rescale": 3900},
    "100x": {"CMult": 130, "HEAdd": 160, "HEMult": 2960, "Rotate": 2550,
             "Rescale": 490},
    "T-FHE": {"CMult": 46, "HEAdd": 37, "HEMult": 1131, "Rotate": 1008,
              "Rescale": 77},
    "Baseline MI100": {"CMult": 178, "HEAdd": 217, "HEMult": 4012,
                       "Rotate": 3473, "Rescale": 681},
    "GME": {"CMult": 22, "HEAdd": 28, "HEMult": 464, "Rotate": 364,
            "Rescale": 69},
}

#: Paper Table 8: workload execution times.  T_A.S. in ns, rest in ms.
TABLE8 = {
    "Lattigo": {"arch": "CPU", "tas_ns": 8.8e4, "boot_ms": 3.9e4,
                "helr_ms": 23293, "resnet_ms": None},
    "HyPHEN-CPU": {"arch": "CPU", "tas_ns": 2110, "boot_ms": 2.1e4,
                   "helr_ms": None, "resnet_ms": 3.7e4},
    "F1": {"arch": "ASIC", "tas_ns": 2.6e5, "boot_ms": None,
           "helr_ms": 1024, "resnet_ms": None},
    "BTS": {"arch": "ASIC", "tas_ns": 45, "boot_ms": 58.9,
            "helr_ms": 28.4, "resnet_ms": 1910},
    "CL": {"arch": "ASIC", "tas_ns": 17, "boot_ms": 4.5, "helr_ms": 15.2,
           "resnet_ms": 321},
    "ARK": {"arch": "ASIC", "tas_ns": 14, "boot_ms": 3.7, "helr_ms": 7.42,
            "resnet_ms": 125},
    "FAB": {"arch": "FPGA", "tas_ns": 470, "boot_ms": 92.4,
            "helr_ms": 103, "resnet_ms": None},
    "100x": {"arch": "V100", "tas_ns": 740, "boot_ms": 528,
             "helr_ms": 775, "resnet_ms": None},
    "HyPHEN-V100": {"arch": "V100", "tas_ns": None, "boot_ms": 830,
                    "helr_ms": None, "resnet_ms": 1400},
    "T-FHE": {"arch": "A100", "tas_ns": 404, "boot_ms": 157,
              "helr_ms": 178, "resnet_ms": 3793},
    "Baseline MI100": {"arch": "MI100", "tas_ns": 863, "boot_ms": 413,
                       "helr_ms": 658, "resnet_ms": 9989},
    "GME": {"arch": "MI100+", "tas_ns": 74.5, "boot_ms": 33.63,
            "helr_ms": 54.5, "resnet_ms": 982},
}

#: FAB scaled to 8 FPGAs for HE-LR (paper: GME surpasses FAB-2 by 1.4x).
FAB2_HELR_MS = 54.5 * 1.4

# -- numbers the paper states in prose, not in a table ------------------------

#: Section 4.3: HEMult/HERotate data-transfer time cut by the extensions.
DATA_TRANSFER_CUT_X = 12
#: Section 4.3: HERescale average memory-transaction latency cut by cNoC.
RESCALE_MEMORY_CUT_X = 13
#: Sections 1 / 3.1: share of memory operations that are redundant.
REDUNDANT_TRAFFIC_SHARE = 0.38
#: Section 4.3: GME's average block speedup over 100x.
SPEEDUP_VS_100X_AVG = 6.4
#: Section 7: mod-red cycles the MOD unit saves (Table 4's 46 -> 26).
MOD_RED_CUT = 0.43
#: Figure 7: LABS adds "more than" this on top of cNoC+MOD+WMAC.
LABS_MIN_SPEEDUP = 1.5
#: Figure 8: speedup of a 15.5 MB LDS over the 7.5 MB one, full GME.
FIG8_SPEEDUP_15P5 = {"boot": 1.74, "helr": 1.53, "resnet": 1.51}
#: What Figures 6-8 show without printing a number.
FIGURE_SHAPES = {
    "cu_utilization": "cNoC ends CU data starvation",
    "dram_traffic_gb": "cNoC, then LABS, remove redundant DRAM traffic",
    "avg_cpt": "cycles per memory transaction fall with cNoC",
    "resnet_cpt": "ResNet-20 has lower CPT than HE-LR (more reuse)",
    "l1_utilization": "LDS traffic bypasses the L1",
    "cpi": "MOD's fused instructions raise CPI",
    "ladder": "every extension adds speedup",
    "lds_sweep": "speedup rises with LDS size, then DRAM bandwidth caps it",
}

#: Paper Table 9: applicability of each extension to other workloads.
#: Values: "yes", "no", "maybe".
TABLE9 = {
    "AES": {"NOC": "yes", "MOD": "yes", "WMAC": "yes", "LABS": "yes"},
    "FFT": {"NOC": "yes", "MOD": "yes", "WMAC": "yes", "LABS": "yes"},
    "3D Laplace": {"NOC": "yes", "MOD": "no", "WMAC": "yes",
                   "LABS": "yes"},
    "BFS": {"NOC": "yes", "MOD": "no", "WMAC": "yes", "LABS": "maybe"},
    "K-Means": {"NOC": "yes", "MOD": "no", "WMAC": "no", "LABS": "yes"},
    "ConvNet2": {"NOC": "yes", "MOD": "no", "WMAC": "yes",
                 "LABS": "maybe"},
    "Transformer": {"NOC": "yes", "MOD": "no", "WMAC": "yes",
                    "LABS": "maybe"},
    "Monte Carlo": {"NOC": "no", "MOD": "no", "WMAC": "yes", "LABS": "no"},
    "N-Queens": {"NOC": "no", "MOD": "no", "WMAC": "yes", "LABS": "yes"},
    "Black-Scholes": {"NOC": "no", "MOD": "no", "WMAC": "yes",
                      "LABS": "no"},
    "Fast Walsh": {"NOC": "yes", "MOD": "no", "WMAC": "yes", "LABS": "yes"},
}
