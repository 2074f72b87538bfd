"""Declarative pipeline configuration: one INI file whose sections
mirror the pipeline stages.  Each key is a tunable of a run; absent keys
fall back to the stage defaults, which each stage module defines once,
and unknown keys are fatal.  The ``[crawler]`` section is the crawl's
own ``CrawlBudget``.  Stage parameters that every run holds at one
value, such as the sentence DP's diagonal band, have no key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import charlm, docalign, embeddings, filtering, forest, model1, sentalign, text
from .crawl import CrawlBudget
from .discovery import DEFAULT_LIMIT, DEFAULT_MIN_BALANCE, DEFAULT_MIN_BYTES
from .sentalign import BeadKind
from .urls import DEFAULT_LANG_MARKERS


@dataclass
class TextConfig:
    kana_threshold: float = text.KANA_FRACTION_JA
    han_threshold: float = text.HAN_FRACTION_ZH


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
    weight_dict: float = docalign.DEFAULT_WEIGHTS[0]
    weight_url: float = docalign.DEFAULT_WEIGHTS[1]
    weight_struct: float = docalign.DEFAULT_WEIGHTS[2]
    weight_len: float = docalign.DEFAULT_WEIGHTS[3]
    min_score: float = docalign.DEFAULT_MIN_SCORE
    lang_markers: str = ",".join(m.strip("/") for m in DEFAULT_LANG_MARKERS)

    @property
    def weights(self) -> tuple[float, float, float, float]:
        return (self.weight_dict, self.weight_url, self.weight_struct, self.weight_len)

    @property
    def marker_list(self) -> tuple[str, ...]:
        return tuple(f"/{m.strip().strip('/')}/" for m in self.lang_markers.split(",") if m.strip())


@dataclass
class SentAlignConfig:
    c: float = sentalign.DEFAULT_C
    s2: float = sentalign.DEFAULT_S2
    dict_weight: float = sentalign.DEFAULT_DICT_WEIGHT
    max_bead_cost: float = sentalign.DEFAULT_MAX_BEAD_COST
    prior_one: float = sentalign.DEFAULT_PRIORS[BeadKind.ONE]
    prior_del: float = sentalign.DEFAULT_PRIORS[BeadKind.DEL]
    prior_sub: float = sentalign.DEFAULT_PRIORS[BeadKind.SUB]
    prior_expand: float = sentalign.DEFAULT_PRIORS[BeadKind.EXPAND]
    prior_contract: float = sentalign.DEFAULT_PRIORS[BeadKind.CONTRACT]
    prior_merge: float = sentalign.DEFAULT_PRIORS[BeadKind.MERGE]

    def length_model(self) -> sentalign.LengthModel:
        priors = {
            BeadKind.ONE: self.prior_one,
            BeadKind.DEL: self.prior_del,
            BeadKind.SUB: self.prior_sub,
            BeadKind.EXPAND: self.prior_expand,
            BeadKind.CONTRACT: self.prior_contract,
            BeadKind.MERGE: self.prior_merge,
        }
        return sentalign.LengthModel(c=self.c, s2=self.s2, bead_priors=priors)


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
    text: TextConfig = field(default_factory=TextConfig)
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    crawler: CrawlBudget = field(default_factory=CrawlBudget)
    lexicon: LexiconConfig = field(default_factory=LexiconConfig)
    docalign: DocAlignConfig = field(default_factory=DocAlignConfig)
    sentalign: SentAlignConfig = field(default_factory=SentAlignConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    pipeline: PipelineSectionConfig = field(default_factory=PipelineSectionConfig)


def load_config(path: str | Path) -> PipelineConfig:
    """Parse an INI config; unknown sections or keys are fatal (they are
    silent misconfiguration otherwise)."""
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
            setattr(target, key, type(getattr(target, key))(raw.strip()))
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
