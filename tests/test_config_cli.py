"""Configuration round-trips, CSV schemas, CLI determinism, and exit codes."""

import csv
import io
from dataclasses import replace

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
        config = default_config()
        scenario = replace(config.scenario, slots=ss.SlotLengths(0.02, 1.5, 0.7))
        config = replace(config, scenario=scenario, slot_scenario=None)
        assert parse_config(emit_config(config)) == config

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

    def test_bad_grids_rejected(self):
        with pytest.raises(ConfigError, match="grids.n_aon_list"):
            parse_config("[grids]\nn_aon_list = 2.7, 5\n")
        with pytest.raises(ConfigError, match="grids.alpha_grid"):
            parse_config("[grids]\nalpha_grid = 0.1:0.9:0\n")
        assert parse_config("[grids]\nn_aon_list = 1:10:4\n").n_aon_list == (1, 4, 7, 10)

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
        assert rows[0] == cli.SIMULATE_COLUMNS
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
        assert rows[0] == cli.FREQ_COLUMNS
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
        assert rows[0] == cli.REGION_COLUMNS
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
