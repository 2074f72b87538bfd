"""One measured operation in a fresh process, so that its peak resident
memory is its own.

    python3 perfbench/child.py setup --train TSV --model OUT --result JSON [--spans JSON]
    python3 perfbench/child.py mine --config INI --result JSON [--spans JSON]

``setup`` loads the bundled lexicon, trains the filter and saves it:
the one-time cost a user pays with ``localmine train-filter``.  ``mine``
runs ``run_pipeline`` on a config.  Each writes its wall time, process
CPU time and peak RSS to ``--result``; with ``--spans`` the layer calls
are traced and the spans written there.  ``localmine`` must be
importable (the caller puts ``src`` on ``PYTHONPATH``).

While the operation runs, a timer signal interrupts the main thread
every ``PROBE_PERIOD_S`` and times a fixed loop of interpreter work
that owes nothing to ``localmine`` (``SpeedProbe``).  The median of
those samples, ``probe_s``, says how fast this core ran the program at
that moment; the caller uses it to factor out the speed of a shared
host, which drifts by up to twofold over tens of seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time
from pathlib import Path

import localmine
from localmine import lexicon as lexicon_mod
from localmine.config import load_config
from localmine.filtering import train_filter
from localmine.pipeline import run_pipeline
from localmine.text import LanguageTag, make_segmenter

import tracer as tracing

DATA = Path(localmine.__file__).parent / "data"
PROBE_PERIOD_S = 0.05


def probe_loop() -> int:
    """About 0.3 ms on an idle core: build, sort and sum small tuples,
    the allocation and comparison work Python programs are made of.  Of
    the loops tried (dict and float arithmetic, string and regex work,
    larger sorts, a float DP like the sentence aligner's, this one) its
    slowdown tracked the miner's most closely: over minutes of repeats,
    mining time rose as this loop's time to the power 0.94 (many-sites)
    and 0.97 (long-docs)."""
    rows = [(i % 17, -i, str(i)) for i in range(600)]
    rows.sort()
    return sum(key for key, _, _ in rows[:300])


class SpeedProbe:
    """Samples ``probe_loop`` in the main thread, where the program runs,
    so each sample sees the core and caches the program sees.  Samples
    are CPU time of the thread: a sample the host preempts is not
    lengthened by the wait."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        started = time.thread_time()
        probe_loop()
        self.samples.append(time.thread_time() - started)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(3):  # warm the loop; an operation never ends unsampled
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup(args, trace: tracing.Tracer | None) -> None:
    if trace is not None:
        tracing.instrument_setup(trace)
        span = trace.open("setup")
    lex = lexicon_mod.load_lexicon(DATA / "lexicon_ja_zh.tsv", DATA / "kanji_simplified.tsv")
    bitext_filter = train_filter(
        lexicon_mod.load_pair_tsv(args.train),
        lex,
        make_segmenter(lex, LanguageTag.JA),
        make_segmenter(lex, LanguageTag.ZH),
    )
    bitext_filter.save(args.model)
    if trace is not None:
        trace.close(span)


def mine(args, trace: tracing.Tracer | None) -> None:
    config = load_config(args.config)
    if trace is None:
        run_pipeline(config)
        return
    tracing.instrument_mining(trace, config.filter.threshold)
    span = trace.open("pipeline.run")
    run_pipeline(config)
    trace.close(span)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("op", choices=("setup", "mine"))
    parser.add_argument("--train")
    parser.add_argument("--model")
    parser.add_argument("--config")
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    trace = tracing.Tracer() if args.spans else None

    with SpeedProbe() as probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        (setup if args.op == "setup" else mine)(args, trace)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    if trace is not None:
        trace.dump(args.spans)
    args.result.write_text(json.dumps({
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_s": statistics.median(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), encoding="utf-8")


if __name__ == "__main__":
    main()
