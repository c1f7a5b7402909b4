"""Run configuration: defaults, INI config files, and flag overrides.

Precedence is flags over config file over defaults. A single master seed
drives every stage; stage seeds are derived at fixed offsets so each stage
is independently reproducible. ``SCHEMA`` is the one description of the INI
file: reading, writing and the flag overrides are all derived from it.
"""

import configparser
import csv
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

from .gbt import HYPERPARAM_KEYS, Hyperparams
from .ingest import DEFAULT_DROP_COLUMNS, DEFAULT_LABEL_COLUMN, SplitSpec
from .selection import check_pass_limits

SEED_OFFSET_SPLIT = 0
SEED_OFFSET_TRAIN = 1
SEED_OFFSET_CARVE = 2

VALIDATION_CARVE_FRACTION = 0.75  # selection trains on 75% of train, scores on the rest

SELECTION_METHODS = ("shap", "correlation", "chi_square", "anova")


@dataclass(frozen=True)
class RunConfig:
    input_csv: str | None = None
    label_column: str = DEFAULT_LABEL_COLUMN
    drop_columns: tuple = DEFAULT_DROP_COLUMNS
    seed: int = 0
    output_dir: str = "out"
    train_fraction: float = 0.8
    stratified: bool = True
    n_estimators: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    min_child_weight: float = 1.0
    gamma: float = 0.0
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    base_score: float = 0.5
    method: str = "shap"
    k_for_filters: int = 12
    max_candidates: int | None = None
    patience: int | None = None
    evaluation_scope: str = "validation"
    explain_rows: str = "test"

    def __post_init__(self):
        if self.method not in SELECTION_METHODS:
            raise ValueError(f"method must be one of {SELECTION_METHODS}")
        if self.evaluation_scope not in ("validation", "test"):
            raise ValueError("evaluation_scope must be 'validation' or 'test'")
        if self.explain_rows not in ("test", "train"):
            raise ValueError("explain rows must be 'test' or 'train'")
        if self.k_for_filters < 1:
            raise ValueError("k_for_filters must be at least 1")
        check_pass_limits(self.max_candidates, self.patience)
        self.split_spec()
        self.hyperparams()

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train_fraction=self.train_fraction,
            seed=self.seed + SEED_OFFSET_SPLIT,
            stratified=self.stratified,
        )

    def carve_spec(self) -> SplitSpec:
        return SplitSpec(
            train_fraction=VALIDATION_CARVE_FRACTION,
            seed=self.seed + SEED_OFFSET_CARVE,
            stratified=self.stratified,
        )

    def hyperparams(self) -> Hyperparams:
        tuned = {field: getattr(self, field) for section, _, field, _, _ in SCHEMA
                 if section == "hyperparams"}
        return Hyperparams(**tuned, seed=self.seed + SEED_OFFSET_TRAIN)


# RunConfig field names as attributes, so a misspelt name fails at import.
FIELD = SimpleNamespace(**{f.name: f.name for f in fields(RunConfig)})


def _optional(parse):
    return lambda text: parse(text) if text.strip() else None


def _format_optional(value) -> str:
    return "" if value is None else str(value)


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_names(text: str) -> tuple:
    cells = next(csv.reader([text], skipinitialspace=True), [])
    return tuple(c.strip() for c in cells if c.strip())


def _format_names(names) -> str:
    """Comma-separated; a name holding a comma or quote is CSV-quoted."""
    return ", ".join(
        '"' + n.replace('"', '""') + '"' if "," in n or '"' in n else n for n in names
    )


# (parse, format) pairs; floats are written with their shortest round-trip repr.
_TEXT = (str.strip, str)
_OPTIONAL_TEXT = (_optional(str.strip), _format_optional)
_INT = (int, str)
_OPTIONAL_INT = (_optional(int), _format_optional)
_FLOAT = (float, repr)
_BOOL = (_parse_bool, lambda value: str(value).lower())
_NAMES = (_parse_names, _format_names)


def _entry(section, key, codec, field=None):
    """One schema row; the RunConfig field is named after the key unless given."""
    return (section, key, field or key, *codec)


# (section, key, RunConfig field, parse, format), in file order. [hyperparams]
# keys are the model document's names of the Hyperparams fields.
SCHEMA = (
    _entry("run", "input_csv", _OPTIONAL_TEXT),
    _entry("run", "label_column", _TEXT),
    _entry("run", "drop_columns", _NAMES),
    _entry("run", "seed", _INT),
    _entry("run", "output_dir", _TEXT),
    _entry("split", "train_fraction", _FLOAT),
    _entry("split", "stratified", _BOOL),
    *(
        _entry("hyperparams", HYPERPARAM_KEYS[f.name], _INT if f.type is int else _FLOAT, f.name)
        for f in fields(Hyperparams) if f.name in vars(FIELD) and f.name != FIELD.seed
    ),
    _entry("selection", "method", _TEXT),
    _entry("selection", "k_for_filters", _INT),
    _entry("selection", "max_candidates", _OPTIONAL_INT),
    _entry("selection", "patience", _OPTIONAL_INT),
    _entry("selection", "evaluation_scope", _TEXT),
    _entry("explain", "rows", _TEXT, FIELD.explain_rows),
)


def _parser() -> configparser.ConfigParser:
    # Values are literal (no % interpolation). "" can never be a section
    # header, so [DEFAULT] is an ordinary section here instead of a fallback.
    return configparser.ConfigParser(interpolation=None, default_section="")


def load_config_file(path, base: RunConfig | None = None) -> RunConfig:
    """Layer an INI file over the given (or default) configuration.

    Values are taken literally; an unknown section or key is an error.
    """
    parser = _parser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    sections = {section for section, *_ in SCHEMA}
    keys = {(section, key) for section, key, *_ in SCHEMA}
    unknown = [f"[{s}]" for s in parser.sections() if s not in sections]
    unknown += [f"[{s}] {k}" for s in parser.sections() if s in sections
                for k in parser[s] if (s, k) not in keys]
    if unknown:
        raise ValueError(f"{path}: unknown config entries: {', '.join(unknown)}")
    updates = {}
    for section, key, field, parse, _ in SCHEMA:
        if parser.has_option(section, key):
            try:
                updates[field] = parse(parser[section][key])
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    return replace(base or RunConfig(), **updates)


def write_config_file(cfg: RunConfig, path) -> None:
    """Echo the effective configuration; feeding it back reproduces the run."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, field, _, fmt in SCHEMA:
        sections.setdefault(section, {})[key] = fmt(getattr(cfg, field))
    parser = _parser()
    parser.read_dict(sections)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
