"""Experiment configuration: slot-length scenarios and INI parsing.

Config files are flat ``key = value`` INI sections (``[scenario]``, ``[run]``,
``[grids]``); every key is optional and falls back to the defaults below,
and a ``[DEFAULT]`` key, or a section or key that ``emit_config`` does not
write, is refused.  Grids accept either a comma list (``0.1, 0.5, 0.9``) or a
linspace spec ``lo:hi:count``.  ``emit_config`` round-trips: parsing its
output reproduces the identical configuration.
"""

from __future__ import annotations

import configparser
import enum
import io
from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigurationError, NetworkSizes, ScenarioParams, SlotLengths

PAPER_SCALE_RUNS = 100_000
PAPER_SCALE_STAGES = 1_000

# The [run] keys (integers) and the [grids] keys holding floats, each named as
# its ExperimentConfig field, in the order emit_config writes them.
_RUN_KEYS = ("n_runs", "n_stages", "master_seed", "threads")
_GRID_FLOAT_KEYS = ("alpha_grid", "pr_grid", "ages", "alphas")


class ConfigError(ConfigurationError):
    """Config-file problem, annotated with the offending section and key."""


class SlotScenario(enum.Enum):
    """Named slot-length families: sigma_I = beta, sigma_S = 1 + beta."""

    SMALL_COLLISION = "small_collision"
    EQUAL_SLOTS = "equal_slots"
    LARGE_COLLISION = "large_collision"

    @property
    def collision_ratio(self) -> float:
        return {
            SlotScenario.SMALL_COLLISION: 0.1,
            SlotScenario.EQUAL_SLOTS: 1.0,
            SlotScenario.LARGE_COLLISION: 2.0,
        }[self]


def slots_from_scenario(scenario: SlotScenario, beta: float = 0.01) -> SlotLengths:
    success = 1.0 + beta
    return SlotLengths(idle=beta, success=success, collision=scenario.collision_ratio * success)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioParams
    slot_scenario: SlotScenario | None  # None means explicit slot lengths
    beta: float
    n_runs: int
    n_stages: int
    master_seed: int
    threads: int
    alpha_grid: tuple[float, ...]
    pr_grid: tuple[float, ...]
    ages: tuple[float, ...]
    alphas: tuple[float, ...]
    n_aon_list: tuple[int, ...]

    def __post_init__(self):
        # Also guards the CLI's --threads override, applied with replace().
        if self.threads < 1:
            raise ConfigError(f"run.threads: need at least one thread, got {self.threads}")

    def at_paper_scale(self) -> "ExperimentConfig":
        return replace(self, n_runs=PAPER_SCALE_RUNS, n_stages=PAPER_SCALE_STAGES)


def default_config() -> ExperimentConfig:
    beta = 0.01
    slots = slots_from_scenario(SlotScenario.EQUAL_SLOTS, beta)
    scenario = ScenarioParams(
        sizes=NetworkSizes(n_aon=5, n_ton=5),
        slots=slots,
        rate=1.0,
        alpha=0.9,
        p_r=0.5,
        initial_age=slots.success,
    )
    grid = tuple(float(v) for v in np.linspace(0.05, 0.95, 10))
    return ExperimentConfig(
        scenario=scenario,
        slot_scenario=SlotScenario.EQUAL_SLOTS,
        beta=beta,
        n_runs=2000,
        n_stages=300,
        master_seed=1,
        threads=1,
        alpha_grid=grid,
        pr_grid=grid,
        ages=(slots.success,),
        alphas=(0.1, 0.99),
        n_aon_list=(1, 2, 5, 10),
    )


def _parse_values(text: str, where: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: grid spec must be lo:hi:count, got {text!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from None
        if count < 1:
            raise ConfigError(f"{where}: grid spec needs a count of at least 1, got {count}")
        return tuple(float(v) for v in np.linspace(lo, hi, count))
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


class _Section:
    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.data = parser[name] if parser.has_section(name) else {}

    def get(self, key: str, default, convert):
        raw = self.data.get(key)
        if raw is None or str(raw).strip() == "":
            return default
        try:
            return convert(str(raw).strip())
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"{self.name}.{key}: {err}") from None

    def get_float(self, key, default):
        return self.get(key, default, float)

    def get_int(self, key, default):
        return self.get(key, default, int)

    def get_values(self, key, default):
        return self.get(key, default, lambda text: _parse_values(text, f"{self.name}.{key}"))

    def get_int_values(self, key, default):
        values = self.get_values(key, default)
        if not all(float(v).is_integer() for v in values):
            raise ConfigError(f"{self.name}.{key}: values must be integers, got {values}")
        return tuple(int(v) for v in values)


def parse_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a path or an already-read INI string.

    A string holding a newline or starting (after blanks) with a ``[`` section
    header is INI text; anything else is opened as a path.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    text = str(source)
    try:
        if "\n" in text or text.lstrip().startswith("["):
            parser.read_string(text)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
    except OSError:
        raise
    except configparser.Error as err:
        raise ConfigError(f"invalid config syntax: {err}") from None

    base = default_config()
    # The known sections and keys are those emit_config writes.
    known = configparser.ConfigParser()
    known.read_string(emit_config(base))
    if parser.defaults():
        raise ConfigError("[DEFAULT] section is not supported")
    for name in parser.sections():
        if not known.has_section(name):
            raise ConfigError(f"unknown section [{name}]")
        for key in parser.options(name):
            if not known.has_option(name, key):
                raise ConfigError(f"{name}.{key}: unknown key")
    scen = _Section(parser, "scenario")
    run = _Section(parser, "run")
    grids = _Section(parser, "grids")

    beta = scen.get_float("beta", base.beta)
    name = scen.get("slot_scenario", "equal_slots", str).lower()
    try:
        if name == "explicit":
            slot_scenario = None
            slots = SlotLengths(
                idle=scen.get_float("sigma_idle", beta),
                success=scen.get_float("sigma_success", 1.0 + beta),
                collision=scen.get_float("sigma_collision", 1.0 + beta),
            )
        else:
            slot_scenario = SlotScenario(name)
            slots = slots_from_scenario(slot_scenario, beta)
        scenario = ScenarioParams(
            sizes=NetworkSizes(
                n_aon=scen.get_int("n_aon", base.scenario.sizes.n_aon),
                n_ton=scen.get_int("n_ton", base.scenario.sizes.n_ton),
            ),
            slots=slots,
            rate=scen.get_float("rate", base.scenario.rate),
            alpha=scen.get_float("alpha", base.scenario.alpha),
            p_r=scen.get_float("p_r", base.scenario.p_r),
            initial_age=scen.get_float("initial_age", slots.success),
        )
    except ValueError as err:
        raise ConfigError(f"scenario: {err}") from None

    return ExperimentConfig(
        scenario=scenario,
        slot_scenario=slot_scenario,
        beta=beta,
        **{key: run.get_int(key, getattr(base, key)) for key in _RUN_KEYS},
        **{key: grids.get_values(key, getattr(base, key)) for key in _GRID_FLOAT_KEYS},
        n_aon_list=grids.get_int_values("n_aon_list", base.n_aon_list),
    )


def emit_config(config: ExperimentConfig) -> str:
    """Serialize a config so that parse_config reproduces it exactly."""
    scen = config.scenario

    def values(seq):
        return ", ".join(repr(float(v)) for v in seq)

    parser = configparser.ConfigParser()
    parser["scenario"] = {
        "n_aon": str(scen.sizes.n_aon),
        "n_ton": str(scen.sizes.n_ton),
        "slot_scenario": config.slot_scenario.value if config.slot_scenario else "explicit",
        "beta": repr(config.beta),
        "sigma_idle": repr(scen.slots.idle),
        "sigma_success": repr(scen.slots.success),
        "sigma_collision": repr(scen.slots.collision),
        "rate": repr(scen.rate),
        "alpha": repr(scen.alpha),
        "p_r": repr(scen.p_r),
        "initial_age": repr(scen.initial_age),
    }
    parser["run"] = {key: str(getattr(config, key)) for key in _RUN_KEYS}
    parser["grids"] = {key: values(getattr(config, key)) for key in _GRID_FLOAT_KEYS}
    parser["grids"]["n_aon_list"] = ", ".join(str(v) for v in config.n_aon_list)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
