"""Per-figure experiment harnesses.

Every public function regenerates one exhibit of the paper's evaluation
from a :class:`~repro.experiments.runner.SuiteRunner` and returns a dict
with the raw ``rows`` plus a rendered ``text`` block (the same rows /
series the paper reports).  Paper-expected values from
:mod:`~repro.experiments.paper` appear in summary lines for comparison.
"""

import numpy as np

from repro.cpu.config import format_table1
from repro.experiments import paper
from repro.experiments.report import ascii_chart, format_table
from repro.util.units import MIB


def _geomean(values):
    values = [v for v in values if v > 0 and np.isfinite(v)]
    if not values:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))


def table1():
    """Table 1: the simulated processor architecture."""
    text = format_table1()
    return {"rows": [], "text": text}


def figure5(runner):
    """Figure 5: normalized simulation speed (SMARTS = 1)."""
    matrix = runner.run_matrix()
    rows = []
    for name in runner.names:
        smarts = matrix["SMARTS"][name]
        coolsim = matrix["CoolSim"][name]
        delorean = matrix["DeLorean"][name]
        rows.append([
            name,
            1.0,
            coolsim.speedup_over(smarts),
            delorean.speedup_over(smarts),
            delorean.speedup_over(coolsim),
            smarts.mips,
            coolsim.mips,
            delorean.mips,
        ])
    avg = [
        "average",
        1.0,
        _geomean([r[2] for r in rows]),
        _geomean([r[3] for r in rows]),
        _geomean([r[4] for r in rows]),
        float(np.mean([r[5] for r in rows])),
        float(np.mean([r[6] for r in rows])),
        float(np.mean([r[7] for r in rows])),
    ]
    headers = ["benchmark", "SMARTS", "CoolSim", "DeLorean",
               "DL/CoolSim", "SMARTS MIPS", "CoolSim MIPS", "DeLorean MIPS"]
    text = format_table(headers, rows + [avg],
                        title="Figure 5: normalized simulation speed "
                              "(SMARTS = 1)")
    text += (f"\npaper: DeLorean {paper.SPEEDUP_VS_SMARTS:.0f}x vs SMARTS, "
             f"{paper.SPEEDUP_VS_COOLSIM:.1f}x vs CoolSim; "
             f"MIPS {paper.MIPS_SMARTS} / {paper.MIPS_COOLSIM} / "
             f"{paper.MIPS_DELOREAN}")
    return {"rows": rows, "average": avg, "headers": headers, "text": text}


def figure6(runner):
    """Figure 6: number of collected reuse distances."""
    matrix = runner.run_matrix(strategies=("CoolSim", "DeLorean"))
    rows = []
    for name in runner.names:
        coolsim = matrix["CoolSim"][name].extras["collected_reuse_distances"]
        delorean = matrix["DeLorean"][name].extras[
            "collected_reuse_distances"]
        rows.append([name, coolsim, delorean,
                     coolsim / delorean if delorean else float("inf")])
    avg = ["average",
           float(np.mean([r[1] for r in rows])),
           float(np.mean([r[2] for r in rows])),
           _geomean([r[3] for r in rows])]
    headers = ["benchmark", "CoolSim", "DeLorean", "reduction"]
    text = format_table(
        headers, rows + [avg], float_format="{:.0f}",
        title="Figure 6: collected reuse distances (paper-equivalent, "
              "10 regions)")
    text += (f"\npaper: ~{paper.REUSE_COUNT_COOLSIM:.0f} vs "
             f"~{paper.REUSE_COUNT_DELOREAN:.0f}; reduction "
             f"{paper.REUSE_REDUCTION_AVG:.0f}x avg "
             f"(up to {paper.REUSE_REDUCTION_MAX:.0f}x)")
    return {"rows": rows, "average": avg, "headers": headers, "text": text}


def figure7(runner):
    """Figure 7: key reuse distances by collecting Explorer (percent)."""
    results = runner.run_all("DeLorean")
    rows = []
    for name in runner.names:
        resolved = results[name].extras["resolved_by_explorer"]
        total = sum(resolved)
        if total == 0:
            shares = [0.0] * len(resolved)
        else:
            shares = [100.0 * r / total for r in resolved]
        rows.append([name, *shares])
    headers = ["benchmark"] + [f"Explorer-{k+1}%"
                               for k in range(len(rows[0]) - 1)]
    text = format_table(headers, rows, float_format="{:.1f}",
                        title="Figure 7: key reuse distances by Explorer")
    text += ("\npaper: most key reuses collected by Explorer-1; "
             f"{', '.join(paper.EXPLORERS_HIGH)} engage deep Explorers")
    return {"rows": rows, "headers": headers, "text": text}


def figure8(runner):
    """Figure 8: average number of Explorers engaged per region."""
    results = runner.run_all("DeLorean")
    rows = [[name, results[name].extras["mean_explorers_engaged"]]
            for name in runner.names]
    headers = ["benchmark", "avg Explorers"]
    text = format_table(headers, rows, float_format="{:.2f}",
                        title="Figure 8: average number of Explorers")
    text += ("\npaper: high for " + ", ".join(paper.EXPLORERS_HIGH)
             + "; below one for " + ", ".join(paper.EXPLORERS_LOW))
    return {"rows": rows, "headers": headers, "text": text}


def _cpi_figure(runner, llc_paper_bytes, label):
    matrix = runner.run_matrix(llc_paper_bytes=llc_paper_bytes)
    rows = []
    for name in runner.names:
        smarts = matrix["SMARTS"][name]
        coolsim = matrix["CoolSim"][name]
        delorean = matrix["DeLorean"][name]
        rows.append([
            name, smarts.cpi, coolsim.cpi, delorean.cpi,
            100.0 * coolsim.cpi_error(smarts),
            100.0 * delorean.cpi_error(smarts),
        ])
    avg = ["average",
           float(np.mean([r[1] for r in rows])),
           float(np.mean([r[2] for r in rows])),
           float(np.mean([r[3] for r in rows])),
           float(np.mean([r[4] for r in rows])),
           float(np.mean([r[5] for r in rows]))]
    headers = ["benchmark", "SMARTS CPI", "CoolSim CPI", "DeLorean CPI",
               "CoolSim err%", "DeLorean err%"]
    text = format_table(headers, rows + [avg], title=label)
    return {"rows": rows, "average": avg, "headers": headers, "text": text}


def figure9(runner):
    """Figure 9: CPI at the 8 MiB-equivalent LLC."""
    out = _cpi_figure(runner, 8 * MIB,
                      "Figure 9: CPI, 8 MB LLC (SMARTS is the reference)")
    out["text"] += (f"\npaper: avg error CoolSim "
                    f"{100 * paper.CPI_ERROR_COOLSIM_8MB:.1f}%, DeLorean "
                    f"{100 * paper.CPI_ERROR_DELOREAN_8MB:.1f}%")
    return out


def figure10(runner):
    """Figure 10: CPI at the 512 MiB-equivalent LLC (DRAM cache)."""
    out = _cpi_figure(runner, 512 * MIB,
                      "Figure 10: CPI, 512 MB LLC (SMARTS is the reference)")
    out["text"] += (f"\npaper: avg error CoolSim "
                    f"{100 * paper.CPI_ERROR_COOLSIM_512MB:.1f}%, DeLorean "
                    f"{100 * paper.CPI_ERROR_DELOREAN_512MB:.1f}%")
    return out


def figure11(runner, densities=((1.0 / 10_000, "1/10k"),
                                (1.0 / 100_000, "1/100k"),
                                (1.0 / 1_000_000, "1/1M"))):
    """Figure 11: speed/accuracy trade-off vs vicinity sampling density."""
    reference = runner.run_all("SMARTS")
    rows = []
    for density, label in densities:
        results = runner.run_all("DeLorean", vicinity_density=density)
        errors = [100.0 * results[n].cpi_error(reference[n])
                  for n in runner.names]
        mips = [results[n].mips for n in runner.names]
        rows.append([label, float(np.mean(mips)), float(np.mean(errors))])
    headers = ["vicinity density", "avg MIPS", "avg CPI err%"]
    text = format_table(headers, rows, title="Figure 11: vicinity "
                        "density speed/accuracy trade-off (8 MB LLC)")
    expectations = ", ".join(
        f"{k}: {v[0]:.0f} MIPS @ {100 * v[1]:.1f}%"
        for k, v in paper.VICINITY_TRADEOFF.items())
    text += f"\npaper: {expectations}"
    return {"rows": rows, "headers": headers, "text": text}


def figure12(runner):
    """Figure 12: CPI error with and without an LLC stride prefetcher."""
    base_ref = runner.run_all("SMARTS")
    base_dl = runner.run_all("DeLorean")
    pf_ref = runner.run_all("SMARTS", prefetcher=True)
    pf_dl = runner.run_all("DeLorean", prefetcher=True)
    without = sorted(100.0 * base_dl[n].cpi_error(base_ref[n])
                     for n in runner.names)
    with_pf = sorted(100.0 * pf_dl[n].cpi_error(pf_ref[n])
                     for n in runner.names)
    rows = [[i, w, p] for i, (w, p) in enumerate(zip(without, with_pf))]
    headers = ["rank", "w/o pref err%", "w/ pref err%"]
    text = format_table(headers, rows, title="Figure 12: CPI error, sorted "
                        "benchmarks, 8 MB LLC")
    text += (f"\navg w/o={np.mean(without):.2f}% "
             f"w/={np.mean(with_pf):.2f}%  "
             "(paper: slightly more accurate with prefetching)")
    return {"rows": rows, "headers": headers,
            "avg_without": float(np.mean(without)),
            "avg_with": float(np.mean(with_pf)),
            "text": text}


def figure13(runner, names=("cactusADM", "leslie3d", "lbm")):
    """Figure 13: working-set curves (MPKI vs LLC size)."""
    sizes = runner.config.sweep_llc_paper_bytes
    size_labels = [s // MIB for s in sizes]
    charts = []
    data = {}
    for name in names:
        reference = [runner.run(name, "SMARTS", llc_paper_bytes=s).mpki
                     for s in sizes]
        report = runner.run_dse(name)
        delorean = [r.mpki for r in report.results]
        data[name] = {"sizes_mb": size_labels, "smarts": reference,
                      "delorean": delorean}
        charts.append(ascii_chart(
            size_labels,
            {"SMARTS": reference, "DeLorean": delorean},
            title=f"Figure 13 ({name}): MPKI vs LLC size (MB, "
                  f"paper-equivalent)",
            x_label="MB", y_label="MPKI"))
    text = "\n\n".join(charts)
    text += ("\npaper: lbm knees near "
             f"{paper.WSC_KNEES_LBM_MB} MB; "
             f"{', '.join(paper.WSC_SMOOTH)} decline smoothly")
    return {"data": data, "sizes_mb": size_labels, "text": text}


def figure14(runner, names=("cactusADM", "leslie3d", "lbm")):
    """Figure 14: CPI vs LLC size from one shared warm-up (parallel
    Analysts), plus the amortization statistics of Section 6.4.2."""
    sizes = runner.config.sweep_llc_paper_bytes
    size_labels = [s // MIB for s in sizes]
    charts = []
    data = {}
    marginals = []
    for name in names:
        reference = [runner.run(name, "SMARTS", llc_paper_bytes=s).cpi
                     for s in sizes]
        report = runner.run_dse(name)
        delorean = [r.cpi for r in report.results]
        marginals.append(report.marginal_cost)
        data[name] = {"sizes_mb": size_labels, "smarts": reference,
                      "delorean": delorean,
                      "marginal_cost": report.marginal_cost}
        charts.append(ascii_chart(
            size_labels,
            {"SMARTS": reference, "DeLorean": delorean},
            title=f"Figure 14 ({name}): CPI vs LLC size (MB, "
                  f"paper-equivalent)",
            x_label="MB", y_label="CPI"))
    text = "\n\n".join(charts)
    text += (f"\nmarginal cost of {len(sizes)} parallel Analysts: "
             f"{np.mean(marginals):.3f}x "
             f"(paper: <{paper.MARGINAL_COST_10_ANALYSTS}x, vs "
             f"{paper.NAIVE_COST_10_SIMULATIONS:.0f}x naive)")
    return {"data": data, "sizes_mb": size_labels,
            "marginal_cost": float(np.mean(marginals)), "text": text}


def headline(runner):
    """Section 6.1/6.4 headline statistics."""
    fig5 = figure5(runner)
    fig6 = figure6(runner)
    delorean = runner.run_all("DeLorean")
    warmup_ratios = [delorean[n].extras["warmup_vs_detailed"]
                     for n in runner.names]
    rows = [
        ["DeLorean vs SMARTS speedup", fig5["average"][3],
         paper.SPEEDUP_VS_SMARTS],
        ["DeLorean vs CoolSim speedup", fig5["average"][4],
         paper.SPEEDUP_VS_COOLSIM],
        ["SMARTS MIPS", fig5["average"][5], paper.MIPS_SMARTS],
        ["CoolSim MIPS", fig5["average"][6], paper.MIPS_COOLSIM],
        ["DeLorean MIPS", fig5["average"][7], paper.MIPS_DELOREAN],
        ["reuse-distance reduction", fig6["average"][3],
         paper.REUSE_REDUCTION_AVG],
        ["warm-up vs detailed time", float(np.mean(warmup_ratios)),
         paper.WARMUP_VS_DETAILED],
    ]
    headers = ["quantity", "measured", "paper"]
    text = format_table(headers, rows, title="Headline statistics")
    return {"rows": rows, "headers": headers, "text": text}


def lukewarm_stats(runner):
    """Section 3.1.2/3.2 statistics: lukewarm hit rates and key lines."""
    from repro.caches.stats import HIT_LUKEWARM, HIT_MSHR, LABELS
    results = runner.run_all("DeLorean")
    rows = []
    key_all = []
    for name in runner.names:
        result = results[name]
        lukewarm = mshr = total = 0
        for region in result.regions:
            counts = region.stats.counts
            lukewarm += counts[LABELS[HIT_LUKEWARM]]
            mshr += counts[LABELS[HIT_MSHR]]
            total += region.stats.total
        keys = result.extras["key_lines_per_region"]
        key_all.extend(keys)
        rows.append([
            name,
            100.0 * lukewarm / total if total else 0.0,
            100.0 * (lukewarm + mshr) / total if total else 0.0,
            float(np.mean(keys)),
        ])
    avg = ["average",
           float(np.mean([r[1] for r in rows])),
           float(np.mean([r[2] for r in rows])),
           float(np.mean([r[3] for r in rows]))]
    headers = ["benchmark", "lukewarm hit%", "lukewarm+MSHR%",
               "key lines/region"]
    text = format_table(headers, rows + [avg], float_format="{:.1f}",
                        title="Lukewarm-cache and key-line statistics")
    text += (f"\npaper: lukewarm avg {100 * paper.LUKEWARM_HIT_AVG:.1f}%, "
             f"+MSHR {100 * paper.LUKEWARM_MSHR_HIT_AVG:.1f}%, key lines "
             f"{paper.KEY_LINES_MIN}..{paper.KEY_LINES_MAX} "
             f"avg {paper.KEY_LINES_AVG}; "
             f"measured keys {min(key_all)}..{max(key_all)} "
             f"avg {np.mean(key_all):.0f}")
    return {"rows": rows, "average": avg, "headers": headers, "text": text}
