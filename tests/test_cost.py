import itertools

import pytest

from unarysort.cost import (
    MAX_INPUTS,
    TABLE_M,
    TABLE_N,
    WEIGHTS,
    Architecture,
    ResourceCount,
    gate_equiv,
    resources,
    score,
)

GRID = [(n, m) for n in TABLE_N for m in TABLE_M]


def _perturbed_corners(radius):
    names = list(WEIGHTS)
    for factors in itertools.product((1 - radius, 1 + radius), repeat=len(names)):
        yield {n: WEIGHTS[n] * f for n, f in zip(names, factors)}


class TestResourceCount:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceCount(registers_bits=-1)

    def test_batcher_cas_blocks(self):
        assert resources(Architecture.BATCHER, 8, 8).cas_blocks == 24

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValueError):
            resources(Architecture.MIN_SORTER, 1, 8)
        with pytest.raises(ValueError):
            resources(Architecture.MIN_SORTER, 8, 0)
        with pytest.raises(ValueError):
            resources(Architecture.BATCHER, 6, 8)
        for arch in Architecture:  # counts for a fractional N, or a TypeError
            with pytest.raises(ValueError) as info:
                resources(arch, 8.5, 4)
            assert str(info.value) == f"input count must be in 2..{MAX_INPUTS}, got 8.5"

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_input_count_bound(self, arch):
        # at the largest N every count is an exact float; past it, and past
        # the float range, every architecture refuses with one message
        assert all(c < 2**53 for c in vars(resources(arch, MAX_INPUTS, 32)).values())
        assert score(arch, MAX_INPUTS, 32) < 2**53
        for n in (MAX_INPUTS + 1, 2**1100):
            with pytest.raises(ValueError) as info:
                resources(arch, n, 8)
            assert str(info.value) == f"input count must be in 2..{MAX_INPUTS}, got {n}"

    @pytest.mark.parametrize(
        "n,m", GRID + [(2, m) for m in TABLE_M] + [(n, 1) for n in TABLE_N]
    )
    def test_iterative_sorters_differ_only_in_value_readout(self, n, m):
        # the min sorter rebuilds the value with an M-bit adder, the max
        # sorter reads it out through an N*M-input mux; all else is shared
        lo = vars(resources(Architecture.MIN_SORTER, n, m))
        hi = vars(resources(Architecture.MAX_SORTER, n, m))
        assert {k for k in lo if lo[k] != hi[k]} == {"adder_bits", "mux_inputs"}
        assert lo["adder_bits"] - hi["adder_bits"] == m
        assert (lo["mux_inputs"], hi["mux_inputs"]) == (0, n * m)


class TestWeightSet:
    def test_one_positive_weight_per_resource_category(self):
        assert list(WEIGHTS) == list(vars(ResourceCount()))
        assert all(w > 0 for w in WEIGHTS.values())

    def test_gate_equiv_zero(self):
        assert gate_equiv(ResourceCount()) == 0

    def test_linearity(self):
        rc = resources(Architecture.MIN_SORTER, 8, 16)
        doubled = {name: 2 * w for name, w in WEIGHTS.items()}
        assert gate_equiv(rc, doubled) == pytest.approx(2 * gate_equiv(rc))


class TestOrdering:
    def test_grid_sweep_default_weights(self):
        for n, m in GRID:
            s_min = score(Architecture.MIN_SORTER, n, m)
            s_max = score(Architecture.MAX_SORTER, n, m)
            s_bat = score(Architecture.BATCHER, n, m)
            assert s_min < s_max < s_bat, (n, m)

    def test_stability_under_half_weight_perturbation(self):
        # the mux-vs-adder structural gap carries any +/-50% weight swing
        # once the input count reaches 16
        for weights in _perturbed_corners(0.5):
            for n, m in GRID:
                if n < 16:
                    continue
                assert gate_equiv(resources(Architecture.MIN_SORTER, n, m), weights) < (
                    gate_equiv(resources(Architecture.MAX_SORTER, n, m), weights)
                ), (n, m)

    def test_stability_at_eight_inputs(self):
        # at N=8 the margin is one adder vs an 8-lane mux; +/-20% holds
        for weights in _perturbed_corners(0.2):
            for m in TABLE_M:
                assert gate_equiv(resources(Architecture.MIN_SORTER, 8, m), weights) < (
                    gate_equiv(resources(Architecture.MAX_SORTER, 8, m), weights)
                )


class TestMonotonicity:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_non_decreasing_in_n_and_m(self, arch):
        for m in TABLE_M:
            values = [score(arch, n, m) for n in TABLE_N]
            assert values == sorted(values)
        for n in TABLE_N:
            values = [score(arch, n, m) for m in TABLE_M]
            assert values == sorted(values)
