"""Declarative pipeline configuration: one INI file whose sections
mirror the pipeline stages.  A key is a setting that runs vary, a path,
address or budget, or a setting that depends on an outside component;
absent keys fall back to the stage defaults, which each stage module
defines once, and unknown sections and keys are fatal.  The
``[crawler]`` section is the crawl's own ``CrawlBudget``.  Stage
parameters that every run holds at one value have no key: the document
matcher's score weights, score floor and URL language markers
(``docalign``), the sentence DP's length model, bead priors, diagonal
band, dictionary weight and bead cost ceiling (``sentalign``), Model 1's
iteration count (``model1``), the character LMs' order and smoothing
constant (``charlm``), the forest's tree count and depth (``forest``)
and the JA/ZH detection thresholds (``text``) are constants of the
module that reads them.

A numeric key whose value can be out of range declares its range next
to its field, as ``metadata={"range": ...}`` in interval notation:
``[`` and ``]`` include a bound, ``(`` and ``)`` exclude it, so
``(0, inf)`` is finite and positive.  ``load_config`` checks each value
it reads against its field's range.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import embeddings, filtering
from .crawl import CrawlBudget
from .discovery import DEFAULT_LIMIT, DEFAULT_MIN_BALANCE, DEFAULT_MIN_BYTES


@dataclass
class DiscoveryConfig:
    min_bytes: int = field(default=DEFAULT_MIN_BYTES, metadata={"range": "[0, inf)"})
    min_balance: float = field(default=DEFAULT_MIN_BALANCE, metadata={"range": "(0, 1]"})
    limit: int = field(default=DEFAULT_LIMIT, metadata={"range": "[1, inf)"})


@dataclass
class LexiconConfig:
    dictionary: str = ""  # TSV ja<TAB>zh; empty means the bundled starter files
    char_map: str = ""


@dataclass
class FilterConfig:
    threshold: float = field(
        default=filtering.DEFAULT_SCORE_THRESHOLD, metadata={"range": "[0, 1]"}
    )
    model_path: str = ""  # trained filter bundle; trained on the fly when empty
    train_corpus: str = ""  # parallel TSV used when model_path is empty
    embed_threshold: float = field(
        default=filtering.DEFAULT_EMBED_THRESHOLD, metadata={"range": "[-1, 1]"}
    )
    embed_vectors: str = ""  # precomputed-vector JSONL; empty disables the gate
    embed_endpoint: str = ""  # HTTP provider; overrides embed_vectors
    embed_batch_size: int = field(
        default=embeddings.DEFAULT_BATCH_SIZE, metadata={"range": "[1, inf)"}
    )


@dataclass
class PipelineSectionConfig:
    output_dir: str = "out"
    seed: int = 0
    sites: str = ""  # candidate-site JSONL produced by discovery
    submissions: str = ""  # crowdsourced URL-pair TSV
    archive: str = ""  # WARC file or record directory
    snapshot_dir: str = ""  # offline fetch binding


@dataclass
class PipelineConfig:
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    crawler: CrawlBudget = field(default_factory=CrawlBudget)
    lexicon: LexiconConfig = field(default_factory=LexiconConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    pipeline: PipelineSectionConfig = field(default_factory=PipelineSectionConfig)


def _check_range(section: str, key: str, value: float, interval: str) -> None:
    """A one-line ``ValueError`` unless ``value`` lies in ``interval``
    (see the module docstring)."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    above = value > lo if interval[0] == "(" else value >= lo
    below = value < hi if interval[-1] == ")" else value <= hi
    if not (above and below):
        raise ValueError(f"key {key!r} in section [{section}] is {value}, outside {interval}")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse an INI config; unknown sections or keys, NaN values and
    values outside their key's declared range are fatal (they are silent
    misconfiguration otherwise).  So is a file that is not INI, such as
    one repeating a section or key, or setting a key before any section
    header: a one-line ``ValueError`` that names the file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as err:
        raise ValueError(f"malformed config file {path}: {' '.join(str(err).split())}") from None
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    config = PipelineConfig()
    sections = {f.name for f in fields(PipelineConfig)}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        target = getattr(config, section)
        known = {f.name: f for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            # Every key is an int, float or str; its default's type parses it.
            value = type(getattr(target, key))(raw.strip())
            if isinstance(value, float) and math.isnan(value):  # fails every range check
                raise ValueError(f"key {key!r} in section [{section}] is NaN")
            interval = known[key].metadata.get("range")
            if interval is not None:
                _check_range(section, key, value, interval)
            setattr(target, key, value)
    return config


def dump_default_config() -> str:
    """Render the full default configuration as INI text."""
    lines: list[str] = []
    config = PipelineConfig()
    for section in fields(PipelineConfig):
        lines.append(f"[{section.name}]")
        target = getattr(config, section.name)
        for f in fields(target):
            lines.append(f"{f.name} = {getattr(target, f.name)}")
        lines.append("")
    return "\n".join(lines)
