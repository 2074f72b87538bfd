"""Command-line interface for the mining pipeline.

Exit codes: 0 success, 1 fatal config/IO error, 2 completed with
per-site errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import PipelineConfig, dump_default_config, load_config
from .filtering import BitextFilter, CorpusRecord
from .jsonl import read_jsonl, write_jsonl
from .lexicon import load_pair_tsv
from .pipeline import (
    SiteReport,
    crawl_and_dump,
    discover_archive,
    emit_report,
    fetch_for,
    filter_candidates,
    merge_corpus,
    mine_site,
    read_sites,
    resolve_lexicon,
    resolve_provider,
    run_pipeline,
    train_configured_filter,
    validate_submissions,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_SITE_ERRORS = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localmine",
        description="Mine JA-ZH parallel sentence pairs from bilingual websites.",
    )
    parser.add_argument("--config", help="pipeline INI config file")
    parser.add_argument("--seed", type=int, help="override [pipeline] seed")
    parser.add_argument(
        "--snapshot-dir", help="serve fetches from this snapshot directory instead of the network"
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover-archive", help="scan an archive for balanced JA/ZH hosts")
    p.add_argument("--archive", required=True, help="WARC(.gz) file or record directory")
    p.add_argument("--out", required=True, help="candidate-site JSONL to write")

    p = sub.add_parser("validate-urls", help="validate crowdsourced URL pairs")
    p.add_argument("--submissions", required=True, help="TSV url_ja<TAB>url_zh<TAB>worker_id")
    p.add_argument("--out", required=True, help="candidate-site JSONL to write")
    p.add_argument("--rows-out", help="per-row validation status JSONL")

    p = sub.add_parser("crawl", help="crawl candidate sites into page snapshots")
    p.add_argument("--sites", required=True, help="candidate-site JSONL")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("mine", help="crawl and align sites down to candidate pairs")
    p.add_argument("--sites", required=True, help="candidate-site JSONL")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train-filter", help="train the sentence-pair filter")
    p.add_argument("--parallel", required=True, help="training corpus TSV ja<TAB>zh")
    p.add_argument("--out", required=True, help="filter model file to write")

    p = sub.add_parser("filter", help="apply a trained filter to candidate pairs")
    p.add_argument("--model", required=True, help="filter model file")
    p.add_argument("--pairs", required=True, help="raw_pairs JSONL")
    p.add_argument("--out", required=True, help="filtered JSONL to write")

    p = sub.add_parser("dedup", help="drop exact duplicate pairs")
    p.add_argument("--input", required=True, help="filtered JSONL")
    p.add_argument("--out", required=True, help="deduped JSONL to write")
    p.add_argument("--tsv", help="also write a two-column TSV")

    p = sub.add_parser("report", help="render a mining report")
    p.add_argument("--input", required=True, help="report JSON")
    p.add_argument("--format", choices=("tsv", "json", "markdown"), default="tsv")

    sub.add_parser("run", help="end-to-end pipeline per the config")
    sub.add_parser("default-config", help="print the default INI config")
    return parser


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        config.pipeline.seed = args.seed
    if args.snapshot_dir:
        config.pipeline.snapshot_dir = args.snapshot_dir
    return config


def _cmd_discover_archive(args, config) -> int:
    scan, sites = discover_archive(args.archive, config)
    write_jsonl(args.out, (s.to_json() for s in sites))
    print(f"{len(scan.hosts)} hosts scanned, {scan.skipped_records} records skipped, "
          f"{len(sites)} candidate sites -> {args.out}")
    return EXIT_OK


def _cmd_validate_urls(args, config) -> int:
    sites, rows = validate_submissions(args.submissions, config, fetch_for(config))
    write_jsonl(args.out, (s.to_json() for s in sites))
    if args.rows_out:
        write_jsonl(args.rows_out, (r.to_json() for r in rows))
    n_errors = sum(1 for r in rows if r.status == "ERROR")
    print(f"{len(rows)} submissions: {len(sites)} valid, {n_errors} errors -> {args.out}")
    return EXIT_OK


def _cmd_crawl(args, config) -> int:
    fetch = fetch_for(config)
    failures = 0
    for site in read_sites(args.sites):
        store = crawl_and_dump(site, config, fetch, Path(args.out_dir) / site.host / "pages")
        if store.crawl_failed:
            failures += 1
            print(f"{site.host}: crawl failed ({store.failure_reason})")
            continue
        print(f"{site.host}: {len(store.pages)} pages")
    return EXIT_SITE_ERRORS if failures else EXIT_OK


def _cmd_mine(args, config) -> int:
    fetch = fetch_for(config)
    lexicon = resolve_lexicon(config)
    failures = 0
    total = 0
    for site in read_sites(args.sites):
        outcome, _ = mine_site(site, lexicon, config, fetch, Path(args.out_dir) / site.host)
        if outcome.error:
            failures += 1
            print(f"{site.host}: {outcome.error}")
            continue
        total += outcome.n_candidates
        print(f"{site.host}: {outcome.n_doc_pairs} document pairs, "
              f"{outcome.n_candidates} candidate pairs")
    print(f"{total} candidate pairs total")
    return EXIT_SITE_ERRORS if failures else EXIT_OK


def _cmd_train_filter(args, config) -> int:
    parallel = load_pair_tsv(args.parallel)
    model = train_configured_filter(parallel, resolve_lexicon(config), config)
    model.save(args.out)
    print(f"filter trained on {len(parallel)} pairs -> {args.out}")
    return EXIT_OK


def _cmd_filter(args, config) -> int:
    candidates = [CorpusRecord.from_raw_json(obj) for obj in read_jsonl(args.pairs)]
    records = filter_candidates(
        candidates,
        BitextFilter.load(args.model),
        resolve_lexicon(config),
        config,
        resolve_provider(config),
    )
    write_jsonl(args.out, (r.to_json() for r in records))
    print(f"{len(records)}/{len(candidates)} pairs kept -> {args.out}")
    return EXIT_OK


def _cmd_dedup(args, config) -> int:
    (kept,) = merge_corpus([Path(args.input)], args.out, args.tsv)
    print(f"{kept} records -> {args.out}")
    return EXIT_OK


def _cmd_report(args, config) -> int:
    rows = json.loads(Path(args.input).read_text("utf-8"))
    if type(rows) is not list:
        raise ValueError(f"{args.input}: not a JSON list of report rows")
    reports = []
    for number, row in enumerate(rows, 1):
        try:
            reports.append(SiteReport.from_json(row))
        except ValueError as err:
            raise ValueError(f"{args.input}: row {number}: {err}") from None
    sys.stdout.buffer.write(emit_report(reports, args.format))
    return EXIT_OK


def _cmd_run(args, config) -> int:
    result = run_pipeline(config)
    sys.stdout.buffer.write(emit_report(result.reports, "tsv"))
    print(f"{result.n_records} records -> {result.corpus_jsonl}")
    if result.site_errors:
        print(f"{result.site_errors} site(s) failed", file=sys.stderr)
        return EXIT_SITE_ERRORS
    return EXIT_OK


_COMMANDS = {
    "discover-archive": _cmd_discover_archive,
    "validate-urls": _cmd_validate_urls,
    "crawl": _cmd_crawl,
    "mine": _cmd_mine,
    "train-filter": _cmd_train_filter,
    "filter": _cmd_filter,
    "dedup": _cmd_dedup,
    "report": _cmd_report,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.command == "default-config":
        print(dump_default_config())
        return EXIT_OK
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](args, config)
    except (OSError, ValueError, KeyError) as err:
        logger.error("%s", err)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
