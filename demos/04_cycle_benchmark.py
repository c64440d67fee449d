"""Cycle-count benchmark over Gaussian inputs, for several data widths.

For each trial the engine runs a fresh sample and the trace yields the
generation cycle at which each output rank was found.  Mean curves rise
with the rank and shift with the distribution mean: the engine detects
value v at cycle v + 1, so the curves are order statistics plus one.

Writes benchmark CSVs (plus .meta.json sidecars) under demos/output/.
"""

from pathlib import Path

from unarysort.bench import BenchConfig, run_bench, write_bench_csv

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "demos" / "output"
OUT_DIR.mkdir(exist_ok=True)

for m in (5, 6, 8):
    full = 1 << m
    print(f"=== width {m} (values 0..{full - 1}), 8 inputs, 1000 trials ===")
    print("mu     " + "".join(f"rank{r:<4d}" for r in range(8)))
    for mu in (full * 0.25, full * 0.5, full * 0.75):
        cfg = BenchConfig(
            arch="min", n=8, m=m, dist="gaussian",
            mu=mu, sigma=full / 8, trials=1000, seed=2718,
        )
        result = run_bench(cfg, check=True)  # every trial verified vs oracle
        means = "".join(f"{v:8.1f}" for v in result.mean_cycles)
        print(f"{mu:5.0f}  {means}")
        out = OUT_DIR / f"cycles_m{m}_mu{int(mu)}.csv"
        write_bench_csv(result, out)
    print()

# relative, so that the output is the same from any checkout
print(f"CSV output in {OUT_DIR.relative_to(ROOT)}/ (one file per curve, with metadata sidecars)")
