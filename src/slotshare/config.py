"""Experiment configuration: slot-length scenarios and INI parsing.

Config files are flat ``key = value`` INI sections (``[scenario]``, ``[run]``,
``[grids]``); every key is optional and falls back to the defaults below,
and a ``[DEFAULT]`` key, or a section or key that ``emit_config`` does not
write, is refused.  A named ``slot_scenario`` takes its slot lengths from
``beta`` and refuses a ``sigma_*`` that differs from them; ``explicit`` reads
them, by default sigma_I = beta and sigma_S = sigma_C = 1 + beta.  Grids take
a comma list (``0.1, 0.5, 0.9``) or a linspace spec ``lo:hi:count``.  A config
holds its slot lengths once: ``emit_config`` writes ``beta = sigma_I`` and the
family they are at that beta (else ``explicit``), and parsing it round-trips.
"""

from __future__ import annotations

import configparser
import enum
import io
from dataclasses import astuple, dataclass, replace

import numpy as np

from .model import ConfigurationError, NetworkSizes, ScenarioParams, SlotLengths

PAPER_SCALE_RUNS = 100_000
PAPER_SCALE_STAGES = 1_000

# The [run] keys (integers) and the [grids] keys holding floats, each named as
# its ExperimentConfig field, in the order emit_config writes them.
_RUN_KEYS = ("n_runs", "n_stages", "master_seed", "threads")
_GRID_FLOAT_KEYS = ("alpha_grid", "pr_grid", "ages", "alphas")
# The [scenario] slot-length keys, in SlotLengths field order.
_SLOT_KEYS = ("sigma_idle", "sigma_success", "sigma_collision")


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


def _scenario_name(slots: SlotLengths) -> str:
    """The ``slot_scenario`` whose lengths at beta = sigma_I are ``slots``, else ``explicit``."""
    # As the floats emit_config writes: numpy float32 lengths would compare in float32.
    lengths = tuple(map(float, astuple(slots)))
    for scenario in SlotScenario:
        if astuple(slots_from_scenario(scenario, lengths[0])) == lengths:
            return scenario.value
    return "explicit"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioParams
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
    slots = slots_from_scenario(SlotScenario.EQUAL_SLOTS)
    grid = tuple(float(v) for v in np.linspace(0.05, 0.95, 10))
    return ExperimentConfig(
        scenario=ScenarioParams(sizes=NetworkSizes(n_aon=5, n_ton=5), slots=slots),
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


def _parse_values(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be lo:hi:count, got {text!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid spec needs a count of at least 1, got {count}")
        return tuple(float(v) for v in np.linspace(lo, hi, count))
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    values = _parse_values(text)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"values must be integers, got {values}")
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

    def get(section, key, default, convert=float):
        # Raw: a '%' is part of the value, not an interpolation.
        text = parser.get(section, key, raw=True, fallback="").strip()
        if not text:
            return default
        try:
            return convert(text)
        except ValueError as err:
            raise ConfigError(f"{section}.{key}: {err}") from None

    beta = get("scenario", "beta", base.scenario.slots.idle)
    name = get("scenario", "slot_scenario", _scenario_name(base.scenario.slots), str).lower()
    try:
        slot_scenario = None if name == "explicit" else SlotScenario(name)
        own = astuple(slots_from_scenario(slot_scenario or SlotScenario.EQUAL_SLOTS, beta))
        lengths = [get("scenario", key, length) for key, length in zip(_SLOT_KEYS, own)]
        for key, length, expected in zip(_SLOT_KEYS, lengths, own):
            if slot_scenario and length != expected:
                raise ConfigError(
                    f"scenario.{key}: {length!r} is not the {name} length {expected!r}"
                    " at this beta; set slot_scenario = explicit to use it"
                )
        scenario = ScenarioParams(
            sizes=NetworkSizes(
                n_aon=get("scenario", "n_aon", base.scenario.sizes.n_aon, int),
                n_ton=get("scenario", "n_ton", base.scenario.sizes.n_ton, int),
            ),
            slots=SlotLengths(*lengths),
            rate=get("scenario", "rate", base.scenario.rate),
            alpha=get("scenario", "alpha", base.scenario.alpha),
            p_r=get("scenario", "p_r", base.scenario.p_r),
            initial_age=get("scenario", "initial_age", None),
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"scenario: {err}") from None

    return ExperimentConfig(
        scenario=scenario,
        **{key: get("run", key, getattr(base, key), int) for key in _RUN_KEYS},
        **{key: get("grids", key, getattr(base, key), _parse_values) for key in _GRID_FLOAT_KEYS},
        n_aon_list=get("grids", "n_aon_list", base.n_aon_list, _parse_ints),
    )


def emit_config(config: ExperimentConfig) -> str:
    """Serialize a config so that parse_config reproduces it exactly."""
    scen = config.scenario

    def fmt(v):
        # float() first: a numpy scalar's repr is not a float parse_config reads.
        return repr(float(v))

    parser = configparser.ConfigParser()
    parser["scenario"] = {
        "n_aon": str(scen.sizes.n_aon),
        "n_ton": str(scen.sizes.n_ton),
        "slot_scenario": _scenario_name(scen.slots),
        "beta": fmt(scen.slots.idle),
        **{key: fmt(length) for key, length in zip(_SLOT_KEYS, astuple(scen.slots))},
        **{key: fmt(getattr(scen, key)) for key in ("rate", "alpha", "p_r", "initial_age")},
    }
    parser["run"] = {key: str(getattr(config, key)) for key in _RUN_KEYS}
    parser["grids"] = {key: ", ".join(map(fmt, getattr(config, key))) for key in _GRID_FLOAT_KEYS}
    parser["grids"]["n_aon_list"] = ", ".join(str(v) for v in config.n_aon_list)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
