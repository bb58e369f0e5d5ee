"""Instance generation and the experiment harness: determinism, stats, row invariants."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsched.harness import (
    Experiment,
    ExperimentConfig,
    GenParams,
    _trial_seed,
    generate_instance,
    make_identical_instance,
    run_experiment,
)

QUICK_FIG3 = dict(allowance_means=(5.0, 20.0), trials=2, fig3_jobs=30)


def quick_fig3_config(seed: int) -> ExperimentConfig:
    base = ExperimentConfig.default(Experiment.FIG3_COSTS, seed=seed)
    return replace(base, **QUICK_FIG3)


class TestGenParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenParams(0, 5.0, 5.0, 1.0, 5.0, seed=1)
        with pytest.raises(ValueError):
            GenParams(5, -1.0, 5.0, 1.0, 5.0, seed=1)
        with pytest.raises(ValueError):
            GenParams(5, 5.0, 5.0, 5.0, 1.0, seed=1)
        for seed in (-1, 2**64, 1.5, True):
            with pytest.raises(ValueError, match=f"^seed must be an unsigned 64-bit integer, got {seed}$"):
                GenParams(5, 5.0, 5.0, 1.0, 5.0, seed=seed)

    @pytest.mark.parametrize("field", ["mean_interarrival", "mean_allowance", "energy_low", "energy_high"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        params = dict(n=5, mean_interarrival=5.0, mean_allowance=5.0, energy_low=1.0, energy_high=5.0, seed=1)
        params[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be a finite positive real"):
            GenParams(**params)

    @pytest.mark.parametrize("field", ["energy_low", "energy_high"])
    def test_subnormal_energy_bounds_rejected(self, field):
        params = dict(n=5, mean_interarrival=5.0, mean_allowance=5.0, energy_low=1e-320, energy_high=1e-310, seed=1)
        params["energy_low" if field == "energy_high" else "energy_high"] = 1.0
        with pytest.raises(ValueError, match=f"^{field} must be a normal float, at least 2.2250738585072014e-308"):
            GenParams(**params)

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            GenParams(n, 5.0, 5.0, 1.0, 5.0, seed=1)


class TestGenerateInstance:
    def test_identical_seeds_identical_instances(self):
        params = GenParams(50, 5.0, 10.0, 1.0, 5.0, seed=123)
        assert generate_instance(params) == generate_instance(params)

    def test_different_seeds_differ(self):
        a = generate_instance(GenParams(50, 5.0, 10.0, 1.0, 5.0, seed=1))
        b = generate_instance(GenParams(50, 5.0, 10.0, 1.0, 5.0, seed=2))
        assert a != b

    def test_shape_constraints(self):
        inst = generate_instance(GenParams(200, 5.0, 10.0, 1.0, 5.0, seed=9))
        assert inst.n == 200
        assert inst.jobs[0].arrival == 1
        arrivals = [j.arrival for j in inst.jobs]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))  # gaps >= 1
        assert all(j.allowance >= 1 for j in inst.jobs)
        assert all(1.0 <= j.energy <= 5.0 for j in inst.jobs)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 300),
        st.floats(1e-300, 1e15),
        st.floats(1e-300, 1e15),
        st.floats(1e-300, 1e300),
        st.floats(1e-300, 1e300),
        st.integers(0, 2**64 - 1),
    )
    def test_arrivals_strictly_increase(self, n, mean_interarrival, mean_allowance, low, high, seed):
        # fig4 relies on this: limited_attack_curve rejects colliding arrivals.  Means up to
        # 1e15 keep 300 draws far below the int64 slot limit.
        inst = generate_instance(GenParams(n, mean_interarrival, mean_allowance, min(low, high), max(low, high), seed))
        arrivals = [j.arrival for j in inst.jobs]
        assert arrivals[0] == 1
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    @pytest.mark.parametrize("field", ["mean_interarrival", "mean_allowance"])
    def test_draws_past_int64_slots_rejected(self, field):
        # finite means whose rounded draws would wrap in the int64 cast
        params = dict(n=3, mean_interarrival=5.0, mean_allowance=5.0, energy_low=1.0, energy_high=5.0, seed=1)
        params[field] = 1e300
        with pytest.raises(ValueError, match=f"^{field}=1e\\+300 draws slots past .* at seed 1$"):
            generate_instance(GenParams(**params))

    def test_interarrival_mean_statistics(self):
        inst = generate_instance(GenParams(10_000, 5.0, 10.0, 1.0, 5.0, seed=77))
        gaps = np.diff([j.arrival for j in inst.jobs])
        assert abs(gaps.mean() - 5.0) < 0.3

    def test_energy_mean_statistics(self):
        inst = generate_instance(GenParams(10_000, 5.0, 10.0, 1.0, 5.0, seed=78))
        energies = np.array([j.energy for j in inst.jobs])
        assert abs(energies.mean() - 3.0) < 0.1


class TestMakeIdenticalInstance:
    def test_reference_setup(self):
        inst = make_identical_instance(50, 5.0, 50, 1)
        assert [j.arrival for j in inst.jobs] == list(range(1, 51))
        assert all(j.deadline == j.arrival + 50 for j in inst.jobs)
        # every window covers slot 50
        assert all(j.arrival <= 50 <= j.deadline for j in inst.jobs)

    def test_single_job(self):
        inst = make_identical_instance(1, 2.0, 7, 3)
        assert inst.jobs[0] == type(inst.jobs[0])(0, 1, 8, 2.0)

    def test_disjoint_when_spacing_exceeds_window(self):
        inst = make_identical_instance(2, 5.0, 50, 100)
        first, second = inst.jobs
        assert first.deadline < second.arrival

    @pytest.mark.parametrize("name", ["n", "allowance", "interarrival"])
    def test_non_integer_rejected(self, name):
        args = dict(n=4, energy=5.0, allowance=3, interarrival=2)
        args[name] = 2.5
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            make_identical_instance(**args)


class TestExperimentConfig:
    def test_defaults_validate(self):
        for experiment in Experiment:
            ExperimentConfig.default(experiment, seed=1)

    def test_bad_trials_rejected(self):
        for trials in (0, 2.5, True):
            with pytest.raises(ValueError, match=f"^trials must be an integer >= 1, got {trials}$"):
                ExperimentConfig.default(Experiment.FIG3_COSTS, seed=1, trials=trials)

    @pytest.mark.parametrize("experiment", [Experiment.FIG2_BOUND, Experiment.FIG3_COSTS])
    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), float("-inf"), 0.5])
    def test_bad_exponent_rejected(self, experiment, exponent):
        with pytest.raises(ValueError, match="cost exponent"):
            ExperimentConfig.default(experiment, seed=1, exponent=exponent)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_non_finite_allowance_mean_rejected(self, mean):
        config = ExperimentConfig.default(Experiment.FIG3_COSTS, seed=1)
        with pytest.raises(ValueError, match="^mean_allowance must be a finite positive real"):
            replace(config, allowance_means=(5.0, mean))

    def test_non_integer_spacing_rejected(self):
        config = ExperimentConfig.default(Experiment.FIG5_ORDERED_RATIO, seed=1)
        with pytest.raises(ValueError, match="^interarrival must be an integer >= 1"):
            replace(config, interarrival_grid=(1, 2.5))

    def test_unknown_beta_rejected(self):
        config = ExperimentConfig.default(Experiment.FIG4_MAXMIN_BOUNDS, seed=1)
        with pytest.raises(ValueError):
            replace(config, betas=(1.5,))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_out_of_range_seed_rejected_at_construction(self, seed):
        # before any run, as Job, GenParams and CostModel reject their bad fields
        with pytest.raises(ValueError, match=f"^seed must be an unsigned 64-bit integer, got {seed}$"):
            ExperimentConfig(Experiment.FIG3_COSTS, seed=seed, trials=1)
        with pytest.raises(ValueError, match="^seed must be"):
            ExperimentConfig.default(Experiment.FIG2_BOUND, seed=seed)

    @pytest.mark.parametrize(
        "experiment, field, grid, message",
        [
            (Experiment.FIG3_COSTS, "allowance_means", (), "fig3 needs an allowance-mean sweep"),
            (Experiment.FIG4_MAXMIN_BOUNDS, "betas", (), "fig4 needs a beta grid inside [0, 1]"),
            (Experiment.FIG5_ORDERED_RATIO, "fig5_betas", (0.5, 1.5), "fig5 needs a beta grid inside [0, 1]"),
            (Experiment.FIG5_ORDERED_RATIO, "fig5_betas", (-0.1,), "fig5 needs a beta grid inside [0, 1]"),
            (Experiment.FIG5_ORDERED_RATIO, "interarrival_grid", (), "fig5 needs an interarrival grid"),
        ],
        ids=["fig3-no-means", "fig4-no-betas", "fig5-beta-above-1", "fig5-beta-below-0", "fig5-no-spacings"],
    )
    def test_empty_or_out_of_range_sweep_rejected(self, experiment, field, grid, message):
        config = ExperimentConfig.default(experiment, seed=1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(config, **{field: grid})


class TestRunExperimentFig2:
    def test_monotone_in_lmin_and_n(self):
        result = run_experiment(ExperimentConfig.default(Experiment.FIG2_BOUND, seed=4))
        rows = result.rows_as_dicts()
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], []).append((row["l_min"], row["lower_bound"]))
        for seq in by_n.values():
            values = [v for _, v in sorted(seq)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        lmins = sorted({row["l_min"] for row in rows})
        for l_min in lmins:
            values = [row["lower_bound"] for row in sorted(rows, key=lambda r: r["n"]) if row["l_min"] == l_min]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestRunExperimentFig3:
    def test_rows_and_ordering_invariants(self):
        result = run_experiment(quick_fig3_config(seed=6))
        assert result.header[0] == "allowance_mean"
        assert len(result.rows) == 2
        for row in result.rows_as_dicts():
            assert row["c_min_offline"] <= row["c_min_online"] + 1e-9
            assert row["c_min_offline"] <= row["c_base"] + 1e-9
            assert row["c_max_online"] <= row["c_max_offline"] + 1e-9
            assert row["max_offline_over_base"] == pytest.approx(row["c_max_offline"] / row["c_base"])

    def test_non_integer_exponent_gives_finite_rows(self):
        result = run_experiment(ExperimentConfig.default(Experiment.FIG3_COSTS, seed=7, trials=1, exponent=1.5))
        assert len(result.rows) == 10
        assert "nan" not in result.to_csv_text()
        for row in result.rows_as_dicts():
            assert all(np.isfinite(value) for value in row.values())
            assert row["c_max_online"] <= row["c_max_offline"] + 1e-9 * row["c_max_offline"]


class TestRunExperimentFig4:
    def test_rows_and_bound_order(self):
        config = replace(
            ExperimentConfig.default(Experiment.FIG4_MAXMIN_BOUNDS, seed=8, trials=1),
            fig4_jobs=12,
            betas=(0.25, 0.5, 1.0),
        )
        result = run_experiment(config)
        rows = result.rows_as_dicts()
        assert [row["budget"] for row in rows] == [3, 6, 12]
        for row in rows:
            assert row["c_maxmin_lower"] <= row["c_maxmin_upper"] + 1e-9
            assert row["c_maxmin_lower"] <= row["c_max"] + 1e-9
        assert rows[-1]["c_maxmin_lower"] == pytest.approx(rows[-1]["c_max"], rel=1e-12)
        assert "redraws=0" in result.preamble


class TestRunExperimentFig5:
    def test_tight_grouping_follows_budget_square(self):
        config = replace(
            ExperimentConfig.default(Experiment.FIG5_ORDERED_RATIO, seed=2),
            interarrival_grid=(1,),
        )
        rows = run_experiment(config).rows_as_dicts()
        assert len(rows) == 50
        for row in rows:
            assert row["ratio"] == pytest.approx(row["beta"] ** 2, abs=1e-9)


@pytest.mark.parametrize(
    "config, context",
    [
        (quick_fig3_config(seed=3), "fig3 trial failed (allowance_mean=5.0, trial=0, seed={seed})"),
        (
            replace(ExperimentConfig.default(Experiment.FIG4_MAXMIN_BOUNDS, seed=3, trials=1), fig4_jobs=12),
            "fig4 trial failed (trial=0, seed={seed})",
        ),
    ],
    ids=["fig3", "fig4"],
)
def test_a_failing_trial_names_its_trial_and_seed(monkeypatch, config, context):
    cause = ArithmeticError("the attack failed")

    def failing(*args, **kwargs):
        raise cause

    monkeypatch.setattr("gridsched.harness.full_attack_dp", failing)
    message = context.format(seed=_trial_seed(3, 0, 0)) + ": the attack failed"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$") as raised:
        run_experiment(config)
    assert raised.value.__cause__ is cause


class TestDeterminism:
    @pytest.mark.parametrize("experiment", [Experiment.FIG2_BOUND, Experiment.FIG5_ORDERED_RATIO])
    def test_byte_identical_csv(self, experiment):
        first = run_experiment(ExperimentConfig.default(experiment, seed=99))
        second = run_experiment(ExperimentConfig.default(experiment, seed=99))
        assert first.to_csv_text() == second.to_csv_text()

    def test_fig3_byte_identical(self):
        first = run_experiment(quick_fig3_config(seed=31))
        second = run_experiment(quick_fig3_config(seed=31))
        assert first.to_csv_text() == second.to_csv_text()

    def test_preamble_and_write(self, tmp_path):
        result = run_experiment(ExperimentConfig.default(Experiment.FIG2_BOUND, seed=12))
        result.write(tmp_path / "fig2.csv")
        text = (tmp_path / "fig2.csv").read_bytes()
        assert text.decode("utf-8") == result.to_csv_text()
        assert result.preamble.startswith("# experiment=fig2 seed=12 ")

    def test_seed_changes_fig3_output(self):
        a = run_experiment(quick_fig3_config(seed=1))
        b = run_experiment(quick_fig3_config(seed=2))
        assert a.to_csv_text() != b.to_csv_text()

    def test_csv_sha256_pinned(self):
        # criterion 10's four small configs; the preamble carries the package
        # version, so a version bump changes every digest
        configs = {
            "4eb0dcb102b23fc23d5f6274eab723a4456a15e35b551ecb5162b951f647642b": ExperimentConfig.default(
                Experiment.FIG2_BOUND, seed=110
            ),
            "e942cf17f6b6c8223b3982ea2d386e882e65c219b004453b7eb70c218cf824ac": replace(
                ExperimentConfig.default(Experiment.FIG3_COSTS, seed=110, trials=2),
                allowance_means=(5.0, 25.0),
                fig3_jobs=30,
            ),
            "b77bf6401bb36b6b6a8c75cf0c79a33316e9d275ca35a918b6ae88c76b147ae9": replace(
                ExperimentConfig.default(Experiment.FIG4_MAXMIN_BOUNDS, seed=110, trials=1),
                fig4_jobs=12,
                betas=(0.25, 0.5, 1.0),
            ),
            # two trials, so fig4's sums across trials are pinned too
            "d75296442d625cee2f104f607c7e7569c4a443fdd3bf69821ee77318f5955123": replace(
                ExperimentConfig.default(Experiment.FIG4_MAXMIN_BOUNDS, seed=110, trials=2),
                fig4_jobs=12,
                betas=(0.25, 0.5, 1.0),
            ),
            "57ae2f508da1a147ac70745c947dbb2d844a9a9a4d1b48e1f9d754f1f9febb2e": replace(
                ExperimentConfig.default(Experiment.FIG5_ORDERED_RATIO, seed=110), interarrival_grid=(1, 5)
            ),
        }
        for digest, config in configs.items():
            text = run_experiment(config).to_csv_text()
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, config.experiment

    def test_fig4_default_size_csv_sha256_pinned(self):
        # one trial at fig4's own n = 50, where limited_attack_curve's tables are far wider than at n = 12
        config = ExperimentConfig.default(Experiment.FIG4_MAXMIN_BOUNDS, seed=110, trials=1)
        assert config.fig4_jobs == 50
        text = run_experiment(config).to_csv_text()
        digest = "4829376adcd56021808c8ec015863c8674575adc3562104dced18c68242b82ca"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
