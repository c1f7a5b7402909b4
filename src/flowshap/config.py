"""Run configuration: defaults, INI config files, and flag overrides.

Precedence is flags over config file over defaults. A single master seed
drives every stage; stage seeds are derived at fixed offsets so each stage
is independently reproducible. Each RunConfig field declares one INI key, its
default and allowed values, and its type picks the codec; ``SCHEMA``, derived
from the fields, is what reading, writing and parsing the flags all use.
"""

import configparser
import csv
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

from .gbt import HYPERPARAM_KEYS, Hyperparams
from .ingest import DEFAULT_DROP_COLUMNS, DEFAULT_LABEL_COLUMN, SplitSpec
from .selection import FILTER_SCORERS, check_pass_limits

SEED_OFFSET_SPLIT = 0
SEED_OFFSET_TRAIN = 1
SEED_OFFSET_CARVE = 2

VALIDATION_CARVE_FRACTION = 0.75  # selection trains on 75% of train, scores on the rest

SELECTION_METHODS = ("shap", *FILTER_SCORERS)


def _key(section, default, key=None, choices=None):
    """A field held as ``[section] key`` (its own name unless given), limited to ``choices``."""
    return field(default=default, metadata={"section": section, "key": key, "choices": choices})


def _tuned(name):
    """A [hyperparams] key: a Hyperparams field under its model document's name."""
    return _key("hyperparams", getattr(Hyperparams, name), HYPERPARAM_KEYS[name])


@dataclass(frozen=True)
class RunConfig:
    input_csv: str | None = _key("run", None)
    label_column: str = _key("run", DEFAULT_LABEL_COLUMN)
    drop_columns: tuple = _key("run", DEFAULT_DROP_COLUMNS)
    seed: int = _key("run", 0)
    output_dir: str = _key("run", "out")
    train_fraction: float = _key("split", SplitSpec.train_fraction)
    stratified: bool = _key("split", SplitSpec.stratified)
    n_estimators: int = _tuned("n_estimators")
    learning_rate: float = _tuned("learning_rate")
    max_depth: int = _tuned("max_depth")
    min_child_weight: float = _tuned("min_child_weight")
    gamma: float = _tuned("gamma")
    reg_lambda: float = _tuned("reg_lambda")
    reg_alpha: float = _tuned("reg_alpha")
    base_score: float = _tuned("base_score")
    method: str = _key("selection", "shap", choices=SELECTION_METHODS)
    k_for_filters: int = _key("selection", 12)
    max_candidates: int | None = _key("selection", None)
    patience: int | None = _key("selection", None)
    evaluation_scope: str = _key("selection", "validation", choices=("validation", "test"))
    explain_rows: str = _key("explain", "test", "rows", ("test", "train"))

    def __post_init__(self):
        for f in fields(self):
            if (choices := f.metadata["choices"]) and getattr(self, f.name) not in choices:
                raise ValueError(f"{f.name} must be one of {choices}")
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
        tuned = {f.name: getattr(self, f.name) for f in fields(self) if f.metadata["section"] == "hyperparams"}
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
    if "\n" in text:
        raise ValueError("the names must be on one line")
    cells = next(csv.reader([text], skipinitialspace=True), [])
    return tuple(c.strip() for c in cells if c.strip())


def _format_names(names) -> str:
    """Comma-separated; a name holding a comma or quote is CSV-quoted."""
    return ", ".join(
        '"' + n.replace('"', '""') + '"' if "," in n or '"' in n else n for n in names
    )


# The (parse, format) pair of each field type; floats are written as their shortest repr.
_CODECS = {
    str: (str.strip, str),
    str | None: (_optional(str.strip), _format_optional),
    int: (int, str),
    int | None: (_optional(int), _format_optional),
    float: (float, repr),
    bool: (_parse_bool, lambda value: str(value).lower()),
    tuple: (_parse_names, _format_names),
}

# (section, key, RunConfig field, parse, format), in file order.
SCHEMA = tuple(
    (f.metadata["section"], f.metadata["key"] or f.name, f.name, *_CODECS[f.type])
    for f in fields(RunConfig)
)


def _parser() -> configparser.ConfigParser:
    # Values are literal (no % interpolation). "" can never be a section
    # header, so [DEFAULT] is an ordinary section here instead of a fallback.
    return configparser.ConfigParser(interpolation=None, default_section="")


def _parsed(text_of, source) -> dict:
    """Every RunConfig field whose ``text_of(section, key, field)`` is not None,
    parsed by its SCHEMA entry; a rejected text raises one ValueError naming the
    source and the key."""
    values = {}
    for section, key, field, parse, _ in SCHEMA:
        if (text := text_of(section, key, field)) is not None:
            try:
                values[field] = parse(text)
            except ValueError as exc:
                raise ValueError(f"{source}: [{section}] {key}: {exc}") from None
    return values


def load_config_file(path, whole: bool = False) -> RunConfig:
    """The configuration an INI file gives, over the defaults.

    Values are taken literally; an unknown section or key is an error, and so,
    when ``whole`` (a record ``write_config_file`` made), is a missing key.
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
    values = _parsed(lambda s, k, _: parser.get(s, k, fallback=None), path)
    if whole and (missing := [f"[{s}] {k}" for s, k, field, *_ in SCHEMA if field not in values]):
        raise ValueError(f"{path} lacks {', '.join(missing)}; use a fresh output directory")
    return RunConfig(**values)


def build_config(args) -> RunConfig:
    """Defaults, then the ``args.config`` file, then every flag whose
    destination is a RunConfig field, parsed as its INI value is."""
    cfg = load_config_file(args.config) if args.config else RunConfig()
    return replace(cfg, **_parsed(lambda s, k, field: getattr(args, field, None), "command line"))


def write_config_file(cfg: RunConfig, path) -> None:
    """Echo the effective configuration; feeding it back reproduces the run."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, field, _, fmt in SCHEMA:
        sections.setdefault(section, {})[key] = fmt(getattr(cfg, field))
    parser = _parser()
    parser.read_dict(sections)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
