"""Declarative pipeline configuration: one INI file whose sections
mirror the pipeline stages.  Every tunable named by a stage has a key
here; absent keys fall back to the stage defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import docalign, sentalign
from .crawl import CrawlBudget
from .discovery import DEFAULT_MIN_BALANCE, DEFAULT_MIN_BYTES


@dataclass
class TextConfig:
    kana_threshold: float = 0.05
    han_threshold: float = 0.5


@dataclass
class DiscoveryConfig:
    min_bytes: int = DEFAULT_MIN_BYTES
    min_balance: float = DEFAULT_MIN_BALANCE
    limit: int = 1000


@dataclass
class CrawlerConfig:
    max_seconds: int = 172_800
    max_pages: int = 10_000
    max_bytes: int = 256 * 1024 * 1024
    per_host_delay_ms: int = 100
    timeout: float = 30.0

    def budget(self) -> CrawlBudget:
        return CrawlBudget(
            max_seconds=self.max_seconds,
            max_pages=self.max_pages,
            max_bytes=self.max_bytes,
            per_host_delay_ms=self.per_host_delay_ms,
        )


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
    lang_markers: str = ",".join(m.strip("/") for m in ("/ja/", "/zh/", "/jp/", "/cn/"))

    @property
    def weights(self) -> tuple[float, float, float, float]:
        return (self.weight_dict, self.weight_url, self.weight_struct, self.weight_len)

    @property
    def marker_list(self) -> tuple[str, ...]:
        return tuple(f"/{m.strip().strip('/')}/" for m in self.lang_markers.split(",") if m.strip())


@dataclass
class SentAlignConfig:
    c: float = 1.0
    s2: float = 6.8
    dict_weight: float = sentalign.DEFAULT_DICT_WEIGHT
    max_bead_cost: float = sentalign.DEFAULT_MAX_BEAD_COST
    banded: bool = True
    refit: bool = False  # second pass with per-document length statistics
    prior_one: float = 0.89
    prior_del: float = 0.0099
    prior_sub: float = 0.0099
    prior_expand: float = 0.0445
    prior_contract: float = 0.0445
    prior_merge: float = 0.011

    def length_model(self) -> sentalign.LengthModel:
        priors = {
            sentalign.BeadKind.ONE: self.prior_one,
            sentalign.BeadKind.DEL: self.prior_del,
            sentalign.BeadKind.SUB: self.prior_sub,
            sentalign.BeadKind.EXPAND: self.prior_expand,
            sentalign.BeadKind.CONTRACT: self.prior_contract,
            sentalign.BeadKind.MERGE: self.prior_merge,
        }
        return sentalign.LengthModel(c=self.c, s2=self.s2, bead_priors=priors)


@dataclass
class FilterConfig:
    threshold: float = 0.5
    model_path: str = ""  # trained filter bundle; trained on the fly when empty
    train_corpus: str = ""  # parallel TSV used when model_path is empty
    model1_iterations: int = 10
    lm_order: int = 5
    lm_k: float = 0.1
    trees: int = 100
    depth: int = 8
    embed_threshold: float = 0.7
    embed_keep_below: bool = False  # comparison direction of the gate
    embed_vectors: str = ""  # precomputed-vector JSONL; empty disables the gate
    embed_endpoint: str = ""  # HTTP provider; overrides embed_vectors
    embed_batch_size: int = 64


@dataclass
class PipelineSectionConfig:
    output_dir: str = "out"
    seed: int = 0
    jobs: int = 1
    sites: str = ""  # candidate-site JSONL produced by discovery
    submissions: str = ""  # crowdsourced URL-pair TSV
    archive: str = ""  # WARC file or record directory
    snapshot_dir: str = ""  # offline fetch binding
    dedup_exact: bool = True


@dataclass
class PipelineConfig:
    text: TextConfig = field(default_factory=TextConfig)
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    crawler: CrawlerConfig = field(default_factory=CrawlerConfig)
    lexicon: LexiconConfig = field(default_factory=LexiconConfig)
    docalign: DocAlignConfig = field(default_factory=DocAlignConfig)
    sentalign: SentAlignConfig = field(default_factory=SentAlignConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    pipeline: PipelineSectionConfig = field(default_factory=PipelineSectionConfig)


_SECTIONS = {
    "text": TextConfig,
    "discovery": DiscoveryConfig,
    "crawler": CrawlerConfig,
    "lexicon": LexiconConfig,
    "docalign": DocAlignConfig,
    "sentalign": SentAlignConfig,
    "filter": FilterConfig,
    "pipeline": PipelineSectionConfig,
}


def load_config(path: str | Path) -> PipelineConfig:
    """Parse an INI config; unknown sections or keys are fatal (they are
    silent misconfiguration otherwise)."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    config = PipelineConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        target = getattr(config, section)
        known = {f.name: f.type for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            current = getattr(target, key)
            setattr(target, key, _coerce(raw, type(current)))
    return config


def _coerce(raw: str, kind: type):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind is int:
        return int(raw.strip())
    if kind is float:
        return float(raw.strip())
    return raw.strip()


def dump_default_config() -> str:
    """Render the full default configuration as INI text."""
    lines: list[str] = []
    config = PipelineConfig()
    for section, _ in _SECTIONS.items():
        lines.append(f"[{section}]")
        target = getattr(config, section)
        for f in fields(target):
            lines.append(f"{f.name} = {getattr(target, f.name)}")
        lines.append("")
    return "\n".join(lines)
