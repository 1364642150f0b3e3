"""Processor configuration (the paper's Table 1) plus timing parameters."""

from dataclasses import dataclass

from repro.util.units import KIB, MIB, format_size


@dataclass(frozen=True)
class ProcessorConfig:
    """gem5's default OoO x86 CPU as configured in Table 1.

    Structural parameters mirror the table; the latency/penalty fields
    parameterize the interval CPI model (gem5 defaults for an ~2 GHz
    part).
    """

    # Pipeline
    rob_entries: int = 192
    iq_entries: int = 64
    sq_entries: int = 64
    lq_entries: int = 64
    issue_width: int = 8

    # Branch predictor (tournament)
    choice_counters_bits: int = 2
    choice_entries: int = 8192
    local_counters_bits: int = 2
    local_entries: int = 2048
    global_counters_bits: int = 2
    global_entries: int = 8192
    btb_entries: int = 4096

    # Caches (paper-equivalent sizes; the hierarchy itself lives in
    # repro.caches and is scaled per repro.sampling.plan)
    l1i_bytes: int = 64 * KIB
    l1d_bytes: int = 64 * KIB
    l1_assoc: int = 2
    llc_min_bytes: int = 1 * MIB
    llc_max_bytes: int = 512 * MIB
    llc_assoc: int = 8
    line_bytes: int = 64
    mshrs_l1i: int = 4
    mshrs_l1d: int = 8
    mshrs_llc: int = 20

    # Interval-model timing (cycles).  The LLC-hit penalty is the
    # *exposed* portion of the L2 latency after out-of-order overlap.
    branch_mispredict_penalty: int = 14
    llc_hit_penalty: int = 6
    memory_penalty: int = 180
    delayed_hit_fraction: float = 0.35
    max_mlp: int = 8


def format_table1(config=None):
    """Render Table 1 ('Simulated processor architecture') as text."""
    config = config or ProcessorConfig()
    rows = [
        ("Pipeline", "ROB", f"{config.rob_entries} entries"),
        ("Pipeline", "IQ", f"{config.iq_entries} entries"),
        ("Pipeline", "SQ", f"{config.sq_entries} entries"),
        ("Pipeline", "LQ", f"{config.lq_entries} entries"),
        ("Pipeline", "Issue", f"{config.issue_width} wide"),
        ("Branch Predictor", "Tournament",
         f"{config.choice_counters_bits} bit choice counters, "
         f"{config.choice_entries // 1024} k entries"),
        ("Branch Predictor", "Local",
         f"{config.local_counters_bits} bit counters, "
         f"{config.local_entries // 1024} k entries"),
        ("Branch Predictor", "Global",
         f"{config.global_counters_bits} bit counters, "
         f"{config.global_entries // 1024} k entries"),
        ("Branch Predictor", "BTB", f"{config.btb_entries // 1024} k entries"),
        ("Caches", "L1-I",
         f"{format_size(config.l1i_bytes)}, {config.l1_assoc}-way LRU, "
         f"{config.line_bytes} B line"),
        ("Caches", "L1-D",
         f"{format_size(config.l1d_bytes)}, {config.l1_assoc}-way LRU, "
         f"{config.line_bytes} B line"),
        ("Caches", "LLC",
         f"{format_size(config.llc_min_bytes)} to "
         f"{format_size(config.llc_max_bytes)}, {config.llc_assoc}-way LRU, "
         f"{config.line_bytes} B line"),
        ("Caches", "MSHRs",
         f"{config.mshrs_l1i} (L1-I), {config.mshrs_l1d} (L1-D), "
         f"{config.mshrs_llc} (LLC)"),
    ]
    width_group = max(len(r[0]) for r in rows)
    width_name = max(len(r[1]) for r in rows)
    lines = ["Table 1: Simulated processor architecture "
             "(gem5's default OoO x86 CPU)"]
    previous_group = None
    for group, name, value in rows:
        shown = group if group != previous_group else ""
        previous_group = group
        lines.append(
            f"  {shown:<{width_group}}  {name:<{width_name}}  {value}")
    return "\n".join(lines)
