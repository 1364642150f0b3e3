"""The paper's published numbers, for side-by-side comparison.

Values transcribed from the text and figures of Nikoleris et al.,
MICRO-52 2019.  Where a figure gives only per-benchmark bars, the
qualitative expectation is recorded instead; ``python -m repro all``
prints every exhibit beside these numbers.
"""

# Section 6.1 / Figure 5 — simulation speed.
SPEEDUP_VS_SMARTS = 96.0
SPEEDUP_VS_COOLSIM = 5.7
SPEEDUP_VS_COOLSIM_MAX = 49.0          # bwaves
SPEEDUP_VS_COOLSIM_MIN = 1.05          # povray
SPEEDUP_VS_COOLSIM_GEMS = 1.4          # GemsFDTD
MIPS_SMARTS = 1.3
MIPS_COOLSIM = 21.9
MIPS_DELOREAN = 126.0

# Section 6.1.1 / Figure 6 — collected reuse distances.
REUSE_REDUCTION_AVG = 30.0
REUSE_REDUCTION_MAX = 6800.0
REUSE_COUNT_COOLSIM = 340_000.0
REUSE_COUNT_DELOREAN = 11_000.0
REUSE_REDUCTION_VS_FW = 100_000.0      # "100,000x compared to FW"

# Figures 7/8 — explorer engagement (qualitative expectations).
EXPLORERS_HIGH = ("zeusmp", "cactusADM", "GemsFDTD", "lbm")
EXPLORERS_MODERATE = ("mcf", "gromacs", "leslie3d", "sjeng", "astar")
EXPLORERS_LOW = ("bwaves",)            # fewer than one on average
EXPLORERS_SINGLE_REGION = ("calculix",)

# Section 6.2 / Figures 9-10 — CPI accuracy vs SMARTS.
CPI_ERROR_DELOREAN_8MB = 0.035
CPI_ERROR_DELOREAN_512MB = 0.029
CPI_ERROR_COOLSIM_8MB = 0.091
CPI_ERROR_COOLSIM_512MB = 0.093
COOLSIM_WORST = ("soplex", "GemsFDTD")  # overestimate LLC misses

# Section 6.3.1 / Figure 11 — vicinity density trade-off (8 MB LLC).
VICINITY_TRADEOFF = {
    # paper density label: (MIPS, avg CPI error)
    "1/10k": (71.3, 0.022),
    "1/100k": (126.0, 0.035),
}

# Section 3.1.2 — lukewarm cache statistics.
LUKEWARM_HIT_MIN = 0.275
LUKEWARM_HIT_AVG = 0.935
LUKEWARM_MSHR_HIT_MIN = 0.461
LUKEWARM_MSHR_HIT_AVG = 0.967

# Section 3.2 — key cacheline counts per 10 k-instruction region.
KEY_LINES_MIN = 1
KEY_LINES_AVG = 151
KEY_LINES_MAX = 2907

# Section 6.4 — design space exploration.
WARMUP_VS_DETAILED = 235.0
MARGINAL_COST_10_ANALYSTS = 1.05
NAIVE_COST_10_SIMULATIONS = 10.0

# Figure 13 — working-set curve shapes.
WSC_KNEES_LBM_MB = (8, 512)
WSC_SMOOTH = ("cactusADM", "leslie3d")
