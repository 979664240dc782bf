"""Configuration round-trips, CSV schemas, CLI determinism, exit codes and the public names."""

import csv
import io
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import slotshare as ss
from slotshare import cli
from slotshare.config import (
    ConfigError,
    SlotScenario,
    default_config,
    emit_config,
    parse_config,
    slots_from_scenario,
)


GOLDEN = Path(__file__).parent / "golden_cli"


def explicit_slots_config():
    config = default_config()
    scenario = replace(config.scenario, slots=ss.SlotLengths(0.02, 1.5, 0.7))
    return replace(config, scenario=scenario)


def named_slots_config(slot_scenario, beta):
    config = default_config()
    scenario = replace(config.scenario, slots=slots_from_scenario(slot_scenario, beta))
    return replace(config, scenario=scenario)


class TestConfig:
    def test_slot_scenario_expansion(self):
        slots = slots_from_scenario(SlotScenario.SMALL_COLLISION, beta=0.01)
        assert slots.idle == 0.01
        assert slots.success == 1.01
        assert slots.collision == pytest.approx(0.101, abs=1e-15)
        assert slots_from_scenario(SlotScenario.EQUAL_SLOTS).collision == 1.01
        assert slots_from_scenario(SlotScenario.LARGE_COLLISION).collision == 2.02

    def test_round_trip_default(self):
        config = default_config()
        assert parse_config(emit_config(config)) == config

    def test_round_trip_modified(self):
        config = default_config()
        scenario = replace(
            config.scenario,
            sizes=ss.NetworkSizes(7, 3),
            alpha=0.123456789,
            p_r=0.875,
            initial_age=2.5,
        )
        config = replace(
            config,
            scenario=scenario,
            n_runs=123,
            master_seed=987654321,
            alphas=(0.25, 0.5, 0.75),
        )
        assert parse_config(emit_config(config)) == config

    def test_round_trip_explicit_slots(self):
        config = explicit_slots_config()
        assert parse_config(emit_config(config)) == config

    @pytest.mark.parametrize(
        "config, golden",
        [(default_config, "emit_default.ini"), (explicit_slots_config, "emit_explicit_slots.ini")],
    )
    def test_emit_matches_golden(self, config, golden):
        # Pins the sections, key order and value text, not only the round trip.
        assert emit_config(config()).encode() == (GOLDEN / golden).read_bytes()

    def test_parse_reads_named_scenario_and_grids(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[scenario]\n"
            "n_aon = 2\n"
            "slot_scenario = small_collision\n"
            "alpha = 0.8\n"
            "[run]\n"
            "n_runs = 50\n"
            "[grids]\n"
            "alpha_grid = 0.1:0.9:5\n"
            "ages = 1.0, 2.0\n"
        )
        config = parse_config(str(path))
        assert config.scenario.sizes.n_aon == 2
        assert config.scenario.slots.collision == pytest.approx(0.101)
        assert config.scenario.alpha == 0.8
        assert config.n_runs == 50
        assert config.alpha_grid == pytest.approx((0.1, 0.3, 0.5, 0.7, 0.9))
        assert config.ages == (1.0, 2.0)

    def test_field_errors_carry_location(self):
        with pytest.raises(ConfigError, match="scenario.alpha"):
            parse_config("[scenario]\nalpha = not-a-number\n")
        with pytest.raises(ConfigError, match="grids.alpha_grid"):
            parse_config("[grids]\nalpha_grid = 0.1:0.9\n")
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("[scenario]\nalpha = 1.7\n")
        # A '%' is part of the value, not an interpolation.
        with pytest.raises(ConfigError, match="scenario.alpha"):
            parse_config("[scenario]\nalpha = 5%\n")

    def test_bad_grids_rejected(self):
        with pytest.raises(ConfigError, match="grids.n_aon_list"):
            parse_config("[grids]\nn_aon_list = 2.7, 5\n")
        with pytest.raises(ConfigError, match="grids.alpha_grid"):
            parse_config("[grids]\nalpha_grid = 0.1:0.9:0\n")
        for grid in ("0.1, x", "a:1:3"):
            with pytest.raises(ConfigError, match="grids.alpha_grid"):
                parse_config(f"[grids]\nalpha_grid = {grid}\n")
        assert parse_config("[grids]\nn_aon_list = 1:10:4\n").n_aon_list == (1, 4, 7, 10)

    @pytest.mark.parametrize(
        "ini, where",
        [
            ("[run]\nn_run = 7\n", "run.n_run: unknown key"),
            ("[scenario]\nn_runs = 7\n", "scenario.n_runs: unknown key"),
            ("[grid]\nages = 1.0\n", r"unknown section \[grid\]"),
            ("[Run]\nn_runs = 7\n", r"unknown section \[Run\]"),
            ("[DEFAULT]\nn_run = 7\n", r"\[DEFAULT\] section is not supported"),
            ("[DEFAULT]\nn_aon = 3\n[scenario]\n", r"\[DEFAULT\] section is not supported"),
        ],
        ids=[
            "misspelt_key",
            "key_in_wrong_section",
            "misspelt_section",
            "capitalised_section",
            "default_section",
            "known_key_in_default_section",
        ],
    )
    def test_unknown_section_or_key_refused(self, tmp_path, ini, where):
        # Read in silence, each would leave its default in force.
        with pytest.raises(ConfigError, match=where):
            parse_config(ini)
        config = tmp_path / "c.ini"
        config.write_text(ini)
        code, out = run_cli(["simulate", "--mode", "competitive", "--config", str(config)])
        assert (code, out) == (cli.EXIT_CONFIG, "")

    @pytest.mark.parametrize(
        "beta", [0.001, 0.01, 0.3, 0.9, np.float64(0.3), np.float32(0.3)], ids=repr
    )
    @pytest.mark.parametrize("slot_scenario", list(SlotScenario))
    def test_round_trip_named_scenarios(self, slot_scenario, beta):
        # Emitted sigma_* lines are the scenario's own lengths, so none is refused.
        config = named_slots_config(slot_scenario, beta)
        text = emit_config(config)
        assert parse_config(text) == config
        # The lengths alone name the family.  float32 lengths are not the
        # float64 family at the emitted beta, so they are written as explicit.
        name = "explicit" if type(beta) is np.float32 else slot_scenario.value
        assert f"slot_scenario = {name}\n" in text

    @pytest.mark.parametrize(
        "slots, name",
        [
            (ss.SlotLengths(*map(np.float64, (0.02, 1.5, 0.7))), "explicit"),
            (ss.SlotLengths(0.01, 1.01, 1.01), "equal_slots"),
            (ss.SlotLengths(0.3, 1.3, 2.6), "large_collision"),
            (ss.SlotLengths(*map(np.float64, (0.01, 1.01, 1.01))), "equal_slots"),
        ],
        ids=["explicit_numpy", "equal_slots", "large_collision", "equal_slots_numpy"],
    )
    def test_round_trip_explicit_lengths(self, slots, name):
        # Lengths that equal a family are emitted under that family's name.
        config = replace(default_config(), scenario=replace(default_config().scenario, slots=slots))
        text = emit_config(config)
        assert f"slot_scenario = {name}\nbeta = {float(slots.idle)!r}\n" in text
        assert parse_config(text) == config

    @pytest.mark.parametrize("number", [np.float64, np.float32])
    def test_round_trip_numpy_scenario_values(self, number):
        scenario = replace(
            default_config().scenario,
            rate=number(1.0),
            alpha=number(0.9),
            p_r=number(0.25),
            initial_age=number(2.5),
        )
        config = replace(default_config(), scenario=scenario)
        text = emit_config(config)
        assert "np." not in text
        assert parse_config(text) == config

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.ini")), ids=lambda p: p.name)
    def test_round_trip_golden_configs(self, path):
        config = parse_config(str(path))
        assert parse_config(emit_config(config)) == config

    @pytest.mark.parametrize("beta", ["0", "-1.5"])
    def test_explicit_refuses_beta_without_slot_lengths(self, tmp_path, beta):
        # The explicit defaults are built from beta, so it must give valid lengths.
        ini = (
            f"[scenario]\nslot_scenario = explicit\nbeta = {beta}\n"
            "sigma_idle = 0.02\nsigma_success = 1.5\nsigma_collision = 0.7\n"
        )
        with pytest.raises(ConfigError, match="scenario: slot lengths"):
            parse_config(ini)
        config = tmp_path / "c.ini"
        config.write_text(ini)
        code, out = run_cli(["simulate", "--mode", "competitive", "--config", str(config)])
        assert (code, out) == (cli.EXIT_CONFIG, "")

    @pytest.mark.parametrize(
        "ini, key",
        [
            ("[scenario]\nsigma_collision = 0.5\n", "sigma_collision"),
            ("[scenario]\nslot_scenario = small_collision\nsigma_idle = 0.02\n", "sigma_idle"),
            (
                "[scenario]\nslot_scenario = large_collision\nbeta = 0.3\n"
                + "".join(
                    line + "\n"
                    for line in emit_config(
                        named_slots_config(SlotScenario.LARGE_COLLISION, 0.01)
                    ).splitlines()
                    if line.startswith("sigma_")
                ),
                "sigma_idle",
            ),
        ],
        ids=["default_scenario", "small_collision", "stale_lengths_after_beta_change"],
    )
    def test_named_scenario_refuses_other_slot_lengths(self, tmp_path, ini, key):
        # Read in silence, the named scenario's own lengths would run instead.
        where = rf"scenario\.{key}: .* slot_scenario = explicit"
        with pytest.raises(ConfigError, match=where):
            parse_config(ini)
        config = tmp_path / "c.ini"
        config.write_text(ini)
        code, out = run_cli(["simulate", "--mode", "competitive", "--config", str(config)])
        assert (code, out) == (cli.EXIT_CONFIG, "")

    def test_invalid_syntax_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid config syntax"):
            parse_config("[run\n")
        config = tmp_path / "c.ini"
        config.write_text("[run\n")
        code, out = run_cli(["simulate", "--mode", "competitive", "--config", str(config)])
        assert (code, out) == (cli.EXIT_CONFIG, "")

    def test_one_line_inline_config(self, tmp_path):
        assert parse_config("[run]") == parse_config("[run]\n") == default_config()
        assert parse_config("  [run]").n_runs == default_config().n_runs
        with pytest.raises(FileNotFoundError):
            parse_config(str(tmp_path / "missing.ini"))

    def test_threads_below_one_rejected(self):
        with pytest.raises(ConfigError, match="run.threads"):
            parse_config("[run]\nthreads = 0\n")
        with pytest.raises(ConfigError, match="run.threads"):
            replace(default_config(), threads=-2)

    def test_paper_scale(self):
        config = default_config().at_paper_scale()
        assert (config.n_runs, config.n_stages) == (100_000, 1_000)


def run_cli(args):
    buffer = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(buffer):
        code = cli.main(args)
    return code, buffer.getvalue()


class TestCli:
    def test_csv_text_header_is_first_row_keys(self):
        rows = [{"b": 1, "a": "x"}, {"b": 2, "a": "y"}]
        assert cli._csv_text(rows) == "b,a\n1,x\n2,y\n"

    @pytest.mark.parametrize(
        "row", [{"b": 2}, {"b": 2, "a": "y", "c": 0}, {"a": "y", "b": 2}],
        ids=["missing", "extra", "reordered"],
    )
    def test_csv_text_rejects_rows_with_other_keys(self, row):
        with pytest.raises(ValueError, match="differ from the header"):
            cli._csv_text([{"b": 1, "a": "x"}, row])

    def test_msne_table_thresholds(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text(
            "[scenario]\nslot_scenario = small_collision\n[grids]\nages = 1.0, 4.646\n"
        )
        code, out = run_cli(["msne", "--config", str(config)])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "-0.68125" in lines[1]
        assert "4.545" in lines[1]
        # tau_ton column is 1/N_T in every row
        assert all("0.2" in line.split()[2] for line in lines[1:])

    def test_msne_table_silent_row(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[grids]\nages = 4.9\n")  # equal slots, N=5: threshold 5.0
        code, out = run_cli(["msne", "--config", str(config)])
        assert code == 0
        row = out.strip().splitlines()[1].split()
        assert float(row[1]) == 0.0
        assert row[-1] == "forced_zero"

    def test_stage_table_runs(self):
        code, out = run_cli(["stage"])
        assert code == 0
        assert "cooperate" in out and "compete" in out

    def test_simulate_csv_schema(self, tmp_path):
        out_path = tmp_path / "sim.csv"
        code, _ = run_cli(
            ["simulate", "--mode", "competitive", "--runs", "20", "--stages", "30",
             "--out", str(out_path)]
        )
        assert code == 0
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert rows[0] == [
            "mode", "N_A", "N_T", "sigma_C_ratio", "alpha", "p_r", "n_runs", "n_stages",
            "seed", "U_aon_mean", "U_aon_se", "U_ton_mean", "U_ton_se", "f_tau1_mean",
            "f_tau0_mean",
        ]
        assert len(rows) == 2
        assert rows[1][0] == "competitive"

    def test_simulate_degenerate_scenario_constant_payoff(self, tmp_path):
        # One TON node against a silenced AON succeeds every stage: the mean
        # hits the truncated geometric sum exactly and the error bar is zero.
        config = tmp_path / "c.ini"
        config.write_text(
            "[scenario]\nn_aon = 1\nn_ton = 1\nslot_scenario = large_collision\n"
            "alpha = 0.9\n[run]\nn_runs = 5\nn_stages = 40\n"
        )
        code, out = run_cli(["simulate", "--mode", "competitive", "--config", str(config)])
        assert code == 0
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert float(row["U_ton_mean"]) == pytest.approx((1 - 0.9**40) * 1.01, abs=1e-12)
        assert float(row["U_ton_se"]) == pytest.approx(0.0, abs=1e-15)

    def test_simulate_deterministic_across_threads(self, tmp_path):
        outputs = []
        for threads in (1, 4, 16):
            out_path = tmp_path / f"sim{threads}.csv"
            code, _ = run_cli(
                ["simulate", "--mode", "cooperative", "--runs", "64", "--stages", "40",
                 "--threads", str(threads), "--seed", "5", "--out", str(out_path)]
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_freq_csv(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[grids]\nn_aon_list = 1, 3\n")
        code, out = run_cli(
            ["freq", "--config", str(config), "--runs", "10", "--stages", "20"]
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == [
            "N_A", "N_T", "sigma_C_ratio", "alpha", "n_runs", "n_stages", "seed",
            "f_tau1_mean", "f_tau1_se", "f_tau0_mean", "f_tau0_se",
        ]
        assert [r[0] for r in rows[1:]] == ["1", "3"]

    def test_region_csv_intersection(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text(
            "[scenario]\nn_aon = 2\nn_ton = 2\n"
            "[grids]\nalpha_grid = 0.3, 0.9\npr_grid = 0.3, 0.6\n"
        )
        code, out = run_cli(
            ["region", "--config", str(config), "--runs", "150", "--stages", "80"]
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == [
            "alpha", "p_r", "ton_prefers", "aon_prefers", "spe", "indeterminate",
            "margin_aon_h", "se_aon_h", "margin_ton_h", "se_ton_h",
            "margin_aon_t", "se_aon_t", "margin_ton_t", "se_ton_t",
        ]
        assert len(rows) == 5
        for row in rows[1:]:
            ton, aon, spe, indet = (int(row[i]) for i in (2, 3, 4, 5))
            assert indet in (0, 1)
            if -1 not in (ton, aon):
                assert spe == min(ton, aon)
            if ton == 0 or aon == 0:
                assert spe == 0

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nalpha = 2.0\n")
        code, _ = run_cli(["msne", "--config", str(bad)])
        assert code == cli.EXIT_CONFIG

    def test_empty_region_grid_exit_code(self, tmp_path):
        bad = tmp_path / "empty.ini"
        bad.write_text("[grids]\nalpha_grid = 0.1:0.9:0\n")
        out = tmp_path / "region.csv"
        code, _ = run_cli(["region", "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "grids", ["alphas = 0.5, 1.5\n", "pr_grid = nan\n"], ids=["alpha_above_one", "nan_bias"]
    )
    def test_bad_gain_grid_exit_code(self, tmp_path, grids):
        config = tmp_path / "c.ini"
        config.write_text("[grids]\n" + grids)
        code, out = run_cli(["gain", "--config", str(config), "--runs", "4", "--stages", "3"])
        assert (code, out) == (cli.EXIT_CONFIG, "")

    @pytest.mark.parametrize(
        "ini, args",
        [
            ("[run]\nthreads = 0\n", []),
            ("[run]\n", ["--threads", "0"]),
            ("[run]\n", ["--threads", "-2"]),
        ],
        ids=["config_zero", "flag_zero", "flag_negative"],
    )
    def test_threads_below_one_exit_code(self, tmp_path, ini, args):
        config = tmp_path / "c.ini"
        config.write_text(ini)
        # The table commands take no --threads, but still validate the config.
        commands = [["simulate", "--mode", "competitive", "--runs", "4"]]
        if not args:
            commands.append(["msne"])
        for command in commands:
            code, out = run_cli([*command, "--config", str(config), *args])
            assert (code, out) == (cli.EXIT_CONFIG, "")

    @pytest.mark.parametrize("command", ["msne", "stage"])
    @pytest.mark.parametrize(
        "flag", [["--runs", "5"], ["--seed", "1"], ["--stages", "5"], ["--threads", "0"],
                 ["--paper-scale"]]
    )
    def test_table_commands_reject_run_flags(self, command, flag, capsys):
        # msne and stage read no runs, stages, seed or threads: argparse refuses them.
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, *flag])
        assert exit_info.value.code == cli.EXIT_CONFIG
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command",
        [["simulate", "--mode", "competitive"], ["simulate", "--mode", "cooperative"],
         ["gain"], ["freq"]],
        ids=["simulate_competitive", "simulate_cooperative", "gain", "freq"],
    )
    def test_one_run_monte_carlo_exit_code(self, command):
        # One run's standard error would read 0, as if every estimate were exact.
        code, out = run_cli([*command, "--runs", "1", "--stages", "5"])
        assert (code, out) == (cli.EXIT_CONFIG, "")

    @pytest.mark.parametrize(
        "seed, expected",
        [("-1", cli.EXIT_CONFIG), ("18446744073709551616", cli.EXIT_CONFIG),
         ("0", cli.EXIT_OK), ("18446744073709551615", cli.EXIT_OK)],
    )
    def test_seed_range_exit_code(self, seed, expected):
        # A seed keys one 64-bit Philox word: -1 and 2**64 would alias the
        # streams of 2**64 - 1 and of 0, so they are refused before any draw.
        for command in (["gain"], ["region"], ["freq"], ["simulate", "--mode", "competitive"]):
            code, out = run_cli([*command, "--seed", seed, "--runs", "3", "--stages", "3"])
            assert (code, bool(out)) == (expected, expected == cli.EXIT_OK)
        if out:
            # The last command's CSV, ``simulate``'s, prints the seed it ran.
            assert next(csv.DictReader(io.StringIO(out)))["seed"] == seed

    def test_one_run_region_exit_code(self):
        # One run has no standard error, so it cannot decide a cell.
        code, out = run_cli(["region", "--runs", "1", "--stages", "5"])
        assert (code, out) == (cli.EXIT_CONFIG, "")

    @pytest.mark.parametrize(
        "ini, command",
        [
            ("[scenario]\ninitial_age = nan\n", ["simulate", "--mode", "competitive"]),
            ("[scenario]\ninitial_age = inf\n", ["simulate", "--mode", "cooperative"]),
            ("[grids]\nages = nan\n", ["msne"]),
            ("[grids]\nages = 1.0, inf\n", ["stage"]),
        ],
        ids=["simulate_nan", "simulate_inf", "msne_nan", "stage_inf"],
    )
    def test_non_finite_age_exit_code(self, tmp_path, ini, command):
        config = tmp_path / "c.ini"
        config.write_text(ini + "[run]\nn_runs = 4\nn_stages = 3\n")
        code, out = run_cli([*command, "--config", str(config)])
        assert (code, out) == (cli.EXIT_CONFIG, "")

    def test_io_error_exit_code(self, tmp_path):
        code, _ = run_cli(["msne", "--out", str(tmp_path / "missing" / "x.txt")])
        assert code == cli.EXIT_IO

    def test_numeric_regime_exit_code(self, monkeypatch):
        def explode(config):
            raise ss.OutOfRangeError("interior formula escaped")

        monkeypatch.setattr(cli, "cmd_msne", explode)
        code, _ = run_cli(["msne"])
        assert code == cli.EXIT_NUMERIC

    def test_missing_config_file_is_io_error(self):
        code, _ = run_cli(["msne", "--config", "/nonexistent/path.ini"])
        assert code == cli.EXIT_IO


class TestPublishedShapes:
    def test_competitive_ton_payoff_increases_with_collision_ratio(self):
        # Longer collision slots push the AON toward silence and help the TON.
        means = []
        for scenario_name in ("small_collision", "equal_slots", "large_collision"):
            config = parse_config(f"[scenario]\nslot_scenario = {scenario_name}\n")
            config = replace(config, n_runs=400, n_stages=150)
            text = cli.cmd_simulate(config, ss.Mode.COMPETITIVE)
            row = list(csv.DictReader(io.StringIO(text)))[0]
            means.append(float(row["U_ton_mean"]))
        assert means[0] < means[1] < means[2]

    def test_cooperative_aon_payoff_increases_with_bias(self):
        means = []
        for p_r in (0.2, 0.5, 0.8):
            config = parse_config(f"[scenario]\np_r = {p_r}\n")
            config = replace(config, n_runs=400, n_stages=150)
            text = cli.cmd_simulate(config, ss.Mode.COOPERATIVE)
            row = list(csv.DictReader(io.StringIO(text)))[0]
            means.append(float(row["U_aon_mean"]))
        assert means[0] < means[1] < means[2]


def test_public_names_are_pinned():
    # Adding or removing a public name must show in this list.
    assert sorted(ss.__all__) == [
        "AccessProfile",
        "Aggregate",
        "ComplianceFlag",
        "ConfigurationError",
        "CooperationRange",
        "DeviationCase",
        "DeviationReport",
        "GainResult",
        "InequalityEstimate",
        "Mode",
        "NetworkSizes",
        "OutOfRangeError",
        "Recommendation",
        "Regime",
        "RegionGrid",
        "RunConfig",
        "RunResult",
        "ScenarioParams",
        "SlotLengths",
        "SlotProbabilities",
        "StagePayoffs",
        "ThresholdAges",
        "best_response_oracle",
        "cooperation_beneficial_pr_set",
        "cooperative_optimum",
        "deviation_inequalities",
        "expected_next_network_age",
        "expected_stage_payoffs",
        "gain_grid",
        "gain_of_cooperation",
        "monte_carlo",
        "msne",
        "region_sweep",
        "run_single",
        "simulate_grim_trigger",
        "slot_probabilities_competitive",
        "slot_probabilities_cooperative",
        "stage1_expected_ton_throughput",
    ]
