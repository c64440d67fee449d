import json

import numpy as np
import pytest

from unarysort import bench
from unarysort.bench import (
    MAX_TRIALS,
    SAMPLE_BLOCK,
    BenchConfig,
    OracleMismatch,
    detection_cycles,
    oracle_cycles,
    run_bench,
    sample_trial,
    write_bench_csv,
)
from unarysort.bitstream import MAX_SORT_INPUTS
from unarysort.min_sorter import MinSortEngine


class TestConfig:
    def test_rejects_batcher(self):
        with pytest.raises(ValueError):
            BenchConfig(arch="batcher")

    def test_rejects_bad_dist(self):
        for dist in ("poisson", "file"):  # a file run is named by its input path
            with pytest.raises(ValueError):
                BenchConfig(dist=dist)

    @pytest.mark.parametrize(
        "mu,sigma",
        [(float("nan"), 32.0), (float("inf"), 32.0), (128.0, float("nan")),
         (128.0, float("inf"))],
    )
    def test_rejects_non_finite_parameters(self, mu, sigma):
        with pytest.raises(ValueError, match="finite"):
            BenchConfig(mu=mu, sigma=sigma)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            BenchConfig(sigma=-1.0)

    @pytest.mark.parametrize("field, low, cap",
                             [("n", 2, MAX_SORT_INPUTS), ("trials", 1, MAX_TRIALS)])
    def test_bounds(self, field, low, cap):
        for value in (low, cap):
            assert getattr(BenchConfig(**{field: value}), field) == value
        for value in (low - 1, cap + 1, 2.5):
            with pytest.raises(ValueError) as caught:
                BenchConfig(**{field: value})
            assert str(caught.value) == f"{field} must be in {low}..{cap}, got {value}"

    def test_seed_is_a_non_negative_integer(self):
        for seed in (0, 2**70):
            assert BenchConfig(seed=seed).seed == seed
        for seed in (-1, 0.5):
            with pytest.raises(ValueError) as caught:
                BenchConfig(seed=seed)
            assert str(caught.value) == f"seed must be an integer >= 0, got {seed}"


class TestSampling:
    def test_gaussian_clamped_to_range(self):
        cfg = BenchConfig(n=64, m=4, mu=100.0, sigma=50.0, trials=1, seed=0)
        values = sample_trial(cfg, 0)
        assert all(0 <= v <= 15 for v in values)

    def test_rounds_half_to_even_then_clamps(self):
        # sigma = 0 draws the mean itself, so each draw is the mean rounded
        for mu, sampled in ((2.5, 2), (3.5, 4), (-0.5, 0), (15.5, 15), (1e300, 15)):
            cfg = BenchConfig(n=2, m=4, mu=mu, sigma=0.0, trials=1, seed=0)
            assert sample_trial(cfg, 0) == [sampled, sampled], mu

    def test_per_trial_seeding(self):
        cfg = BenchConfig(n=8, m=8, trials=2, seed=42)
        assert sample_trial(cfg, 0) != sample_trial(cfg, 1)
        # trial i of seed s equals trial 0 of seed s+i
        shifted = BenchConfig(n=8, m=8, trials=2, seed=43)
        assert sample_trial(cfg, 1) == sample_trial(shifted, 0)

    def test_uniform_in_range(self):
        cfg = BenchConfig(n=128, m=3, dist="uniform", trials=1, seed=1)
        values = sample_trial(cfg, 0)
        assert all(0 <= v <= 7 for v in values)


class TestMeasurement:
    def test_detection_cycles_match_oracle(self):
        cfg = BenchConfig(arch="min", n=6, m=5)
        values = [17, 3, 3, 30, 0, 9]
        engine = MinSortEngine(values, 5)
        engine.run()
        assert detection_cycles(engine.trace) == oracle_cycles(cfg, values)
        assert oracle_cycles(cfg, values) == [1, 4, 4, 10, 18, 31]

    def test_max_oracle(self):
        cfg = BenchConfig(arch="max", n=3, m=3)
        assert oracle_cycles(cfg, [4, 6, 4]) == [2, 4, 4]

    def test_mismatch_raises(self, monkeypatch):
        import unarysort.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "oracle_cycles", lambda cfg, values: [0] * cfg.n
        )
        cfg = BenchConfig(n=4, m=4, trials=1, seed=0)
        with pytest.raises(OracleMismatch):
            run_bench(cfg, check=True)


class TestAggregates:
    def test_degenerate_sigma(self):
        # every value is mu, so one detection event covers all ranks
        cfg = BenchConfig(n=4, m=5, mu=10, sigma=0, trials=20, seed=9)
        result = run_bench(cfg, check=True)
        assert result.mean_cycles == [11.0] * 4
        assert result.std_cycles == [0.0] * 4

    @pytest.mark.parametrize("trials", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                                        SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 1])
    def test_blocks_sample_every_trial_once(self, trials, monkeypatch):
        # trial i is seeded seed + i whatever block samples it, and sampling
        # never runs more than one block ahead of the engine runs
        cfg = BenchConfig(n=5, m=6, mu=30, sigma=9, trials=trials, seed=3)
        cycles = np.array([oracle_cycles(cfg, sample_trial(cfg, i)) for i in range(trials)])
        sampled, builds = [], [0]

        def sample(cfg, trial):
            assert trial - builds[0] < SAMPLE_BLOCK
            sampled.append(trial)
            return sample_trial(cfg, trial)

        class CountedEngine(MinSortEngine):
            def __init__(self, values, width):
                builds[0] += 1
                super().__init__(values, width)

        monkeypatch.setattr(bench, "sample_trial", sample)
        monkeypatch.setitem(bench.ENGINES, "min", CountedEngine)
        result = run_bench(cfg, check=True)
        assert sampled == list(range(trials))
        assert result.mean_cycles == [float(v) for v in cycles.mean(axis=0)]
        assert result.std_cycles == [float(v) for v in cycles.std(axis=0)]


class TestOutput:
    def test_sidecar_records_only_what_shaped_the_run(self, tmp_path):
        # a file run samples nothing, a sampled run reads no file, and only a
        # gaussian run reads mu and sigma
        path = tmp_path / "vectors.csv"
        path.write_text("4,6,4,0\n1,1,2,3\n")
        runs = {"file": BenchConfig(input_path=str(path), m=3),
                "uniform": BenchConfig(n=4, m=3, dist="uniform", trials=5)}
        for name, cfg in runs.items():
            write_bench_csv(run_bench(cfg), tmp_path / f"{name}.csv")
        file_meta, uniform_meta = (json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
                                   for name in runs)
        assert not {"rng", "seed", "dist", "mu", "sigma"} & file_meta.keys()
        assert file_meta["input_path"] == str(path) and file_meta["trials"] == 2
        assert not {"mu", "sigma", "input_path"} & uniform_meta.keys()
        assert uniform_meta["seed"] == 1 and "rng" in uniform_meta

    @pytest.mark.parametrize("text, message", [
        ("1," * MAX_SORT_INPUTS + "1\n",
         f"n must be in 2..{MAX_SORT_INPUTS}, got {MAX_SORT_INPUTS + 1}"),
        ("1,2\n" * (MAX_TRIALS + 1), f"trials must be in 1..{MAX_TRIALS}, got {MAX_TRIALS + 1}"),
    ], ids=["columns", "rows"])
    def test_file_past_a_cap_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "vectors.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            run_bench(BenchConfig(input_path=str(path), m=3))
        assert str(caught.value) == f"{path}: {message}"
