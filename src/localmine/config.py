"""Declarative pipeline configuration: one INI file whose sections
mirror the pipeline stages.  Each key is a tunable of a run; absent keys
fall back to the stage defaults, which each stage module defines once,
and unknown keys are fatal.  The ``[crawler]`` section is the crawl's
own ``CrawlBudget``.  Stage parameters that every run holds at one
value have no key: the sentence DP's diagonal band and bead priors, the
document-score weights and the JA/ZH detection thresholds are constants
of the module that reads them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import charlm, docalign, embeddings, filtering, forest, model1, sentalign
from .crawl import CrawlBudget
from .discovery import DEFAULT_LIMIT, DEFAULT_MIN_BALANCE, DEFAULT_MIN_BYTES
from .urls import DEFAULT_LANG_MARKERS


@dataclass
class DiscoveryConfig:
    min_bytes: int = DEFAULT_MIN_BYTES
    min_balance: float = DEFAULT_MIN_BALANCE
    limit: int = DEFAULT_LIMIT


@dataclass
class LexiconConfig:
    dictionary: str = ""  # TSV ja<TAB>zh; empty means the bundled starter files
    char_map: str = ""


@dataclass
class DocAlignConfig:
    min_score: float = docalign.DEFAULT_MIN_SCORE
    lang_markers: str = ",".join(m.strip("/") for m in DEFAULT_LANG_MARKERS)

    @property
    def marker_list(self) -> tuple[str, ...]:
        return tuple(f"/{m.strip().strip('/')}/" for m in self.lang_markers.split(",") if m.strip())


@dataclass
class SentAlignConfig:
    c: float = sentalign.DEFAULT_C
    s2: float = sentalign.DEFAULT_S2
    dict_weight: float = sentalign.DEFAULT_DICT_WEIGHT
    max_bead_cost: float = sentalign.DEFAULT_MAX_BEAD_COST

    def length_model(self) -> sentalign.LengthModel:
        return sentalign.LengthModel(c=self.c, s2=self.s2)


@dataclass
class FilterConfig:
    threshold: float = filtering.DEFAULT_SCORE_THRESHOLD
    model_path: str = ""  # trained filter bundle; trained on the fly when empty
    train_corpus: str = ""  # parallel TSV used when model_path is empty
    model1_iterations: int = model1.DEFAULT_ITERATIONS
    lm_order: int = charlm.DEFAULT_ORDER
    lm_k: float = charlm.DEFAULT_ADD_K
    trees: int = forest.DEFAULT_TREES
    depth: int = forest.DEFAULT_DEPTH
    embed_threshold: float = filtering.DEFAULT_EMBED_THRESHOLD
    embed_vectors: str = ""  # precomputed-vector JSONL; empty disables the gate
    embed_endpoint: str = ""  # HTTP provider; overrides embed_vectors
    embed_batch_size: int = embeddings.DEFAULT_BATCH_SIZE


@dataclass
class PipelineSectionConfig:
    output_dir: str = "out"
    seed: int = 0
    jobs: int = 1
    sites: str = ""  # candidate-site JSONL produced by discovery
    submissions: str = ""  # crowdsourced URL-pair TSV
    archive: str = ""  # WARC file or record directory
    snapshot_dir: str = ""  # offline fetch binding


@dataclass
class PipelineConfig:
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    crawler: CrawlBudget = field(default_factory=CrawlBudget)
    lexicon: LexiconConfig = field(default_factory=LexiconConfig)
    docalign: DocAlignConfig = field(default_factory=DocAlignConfig)
    sentalign: SentAlignConfig = field(default_factory=SentAlignConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    pipeline: PipelineSectionConfig = field(default_factory=PipelineSectionConfig)


def load_config(path: str | Path) -> PipelineConfig:
    """Parse an INI config; unknown sections or keys, and NaN values, are
    fatal (they are silent misconfiguration otherwise)."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    config = PipelineConfig()
    sections = {f.name for f in fields(PipelineConfig)}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        target = getattr(config, section)
        known = {f.name for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            # Every key is an int, float or str; its default's type parses it.
            value = type(getattr(target, key))(raw.strip())
            if isinstance(value, float) and math.isnan(value):  # passes every range check
                raise ValueError(f"key {key!r} in section [{section}] is NaN")
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
