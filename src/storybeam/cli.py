"""Command-line interface: train-lm, decode, eval.

Each command imports the modules it runs when it runs, ``pathlib``
included. The parser needs only ``argparse`` and ``storybeam.config``, so
``--help`` and a usage error load nothing else of storybeam. Every text
input is read with ``corpus.read_text``: UTF-8, one leading byte order
mark skipped.

Exit codes are a stable contract: 0 on success, 2 for usage or
validation errors (including unreadable files and malformed documents),
1 for unexpected internal errors.

``main`` registers ``gc.freeze`` to run at exit. The collections CPython
runs as the interpreter ends would walk every object numpy and the
command made, only for the OS to reclaim the memory a moment later;
frozen objects are skipped. The handler runs once the command has
written and closed its outputs, and a caller that runs ``main`` in
process keeps a collectable heap until its own exit.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from .config import (BEAM_WIDTH, DEFAULT_MIN_COUNT, DIVERSITY_STRENGTH, MAX_LEN, PENALTY_NAMES,
                     check_count)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path``, replacing a regular file atomically.

    Through a symlink, the link's target is replaced and the link kept. An
    existing target that is not a regular file, such as a FIFO or a
    character device, is written in place.
    """
    from pathlib import Path

    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    # os.open masks 0o666 at write time as open() does; mkstemp would give 0o600.
    # The name does not grow with the target's, so any valid target name fits.
    tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storybeam",
        description="Multi-segment beam-search decoding with diversity penalties.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train-lm", help="train an n-gram language model")
    train.add_argument("corpus", help="UTF-8 text, one sentence per line")
    train.add_argument("--order", type=int, default=2,
                       help="n-gram order (default: 2)")
    train.add_argument("--alpha", type=float, default=1.0,
                       help="Laplace smoothing constant (default: 1.0)")
    train.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT,
                       help=f"minimum corpus frequency (default: {DEFAULT_MIN_COUNT})")
    train.add_argument("--out", required=True, help="model file to write")

    decode = sub.add_parser("decode", help="decode a story from a model file")
    decode.add_argument("--model", required=True,
                        help="n-gram model or scoring-table file")
    source = decode.add_mutually_exclusive_group(required=True)
    source.add_argument("--conditions", nargs="+", metavar="KEY",
                        help="one opaque condition key per segment")
    source.add_argument("--conditions-file",
                        help="file with one condition key per line")
    source.add_argument("--batch",
                        help="file of stories: one line of condition keys each; "
                             "--out names a directory")
    decode.add_argument("--jobs", type=int, default=1,
                        help="concurrent stories in batch mode (default: 1)")
    decode.add_argument("--beam-width", type=int, default=BEAM_WIDTH)
    decode.add_argument("--lambda", dest="strength", type=float, default=DIVERSITY_STRENGTH,
                        help="diversity strength (default: %(default)g)")
    decode.add_argument("--max-len", type=int, default=MAX_LEN,
                        help="maximum tokens per segment (default: %(default)s)")
    decode.add_argument("--penalty", default="hamming", choices=sorted(PENALTY_NAMES))
    decode.add_argument("--out", help="output JSON path (default: stdout)")

    evaluate = sub.add_parser("eval", help="diversity report for a decoded story")
    evaluate.add_argument("story", help="story JSON produced by decode")
    return parser


def _cmd_train_lm(args: argparse.Namespace) -> int:
    from .corpus import Corpus, build_vocabulary
    from .ngram import _check_alpha, _check_order, dump_ngram, train_ngram

    # the settings' owners check them before the corpus is read; only the
    # alpha * (V - 2) part of the alpha rule waits for the vocabulary
    _check_order(args.order)
    _check_alpha(args.alpha)
    check_count("min_count", args.min_count)
    corpus = Corpus.from_file(args.corpus)
    vocab = build_vocabulary(corpus, args.min_count)
    if not vocab.non_special_tokens:
        print(f"warning: no token occurs >= {args.min_count} times; "
              "vocabulary contains only special tokens", file=sys.stderr)
    model = train_ngram(corpus, vocab, args.order, args.alpha)
    _atomic_write(args.out, dump_ngram(model))
    print(f"vocabulary size: {len(vocab)}")
    print(f"contexts: {len(model.counts)}")
    return EXIT_OK


def _read_lines(path: str) -> list[str]:
    from .corpus import read_text, split_lines

    return split_lines(read_text(path))


def _cmd_decode(args: argparse.Namespace) -> int:
    # Decoding does no linear algebra, yet importing numpy starts OpenBLAS's
    # thread pool, 60-70 ms on a 2-core host. A value the caller set stands,
    # and a numpy already imported has read it. This goes when decode stops
    # importing numpy (ROADMAP item 5c).
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .corpus import read_text

    # the only command that needs numpy, so the only one that imports it
    from .decoding import DecodeConfig, inter_sentence_dbs, story_to_json
    from .diversity import get_penalty_fn
    from .scoring import load_scorer

    # checked once, before any file is read
    config = DecodeConfig(beam_width=args.beam_width, diversity_strength=args.strength,
                          max_len=args.max_len)
    check_count("jobs", args.jobs)
    scorer = load_scorer(read_text(args.model))
    vocab = scorer.vocab
    penalty_fn = get_penalty_fn(args.penalty)

    def decode_one(conditions: list[str]) -> str:
        result = inter_sentence_dbs(scorer, conditions, vocab, config, penalty_fn)
        return story_to_json(result, vocab)

    if args.batch is not None:
        from pathlib import Path

        if not args.out:
            raise ValueError("--batch requires --out to name an output directory")
        stories = [(line_no, line.split())
                   for line_no, line in enumerate(_read_lines(args.batch), start=1)
                   if line.split()]
        if not stories:
            raise ValueError(f"batch file {args.batch} contains no stories")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        def story_path(index: int):
            return out_dir / f"story_{index:04d}.json"

        def attempt(index: int, conditions: list[str]) -> Exception | None:
            try:
                _atomic_write(story_path(index), decode_one(conditions))
            except Exception as exc:
                return exc
            return None

        indices = range(len(stories))
        lines = [conditions for _, conditions in stories]
        if args.jobs == 1:  # in this thread: a pool and its imports cost ~5 ms
            errors = list(map(attempt, indices, lines))
        else:
            # only --jobs above 1 runs a thread pool, so only it imports one
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                errors = list(pool.map(attempt, indices, lines))
        # every story is attempted; failures are reported in line order, and a
        # failed story leaves no file behind, not even one from an earlier run
        failed = 0
        for index, ((line_no, _), exc) in enumerate(zip(stories, errors)):
            if exc is None:
                continue
            if not isinstance(exc, (ValueError, OSError)):
                raise exc
            story_path(index).unlink(missing_ok=True)
            print(f"batch line {line_no}: {exc}", file=sys.stderr)
            failed += 1
        if failed:
            raise ValueError(f"{failed} of {len(stories)} stories failed")
        print(f"decoded {len(stories)} stories into {out_dir}")
        return EXIT_OK

    conditions = args.conditions
    if conditions is None:  # a blank line of --conditions-file names no segment
        conditions = [line.strip() for line in _read_lines(args.conditions_file) if line.strip()]
    text = decode_one(conditions)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    import json

    from .corpus import read_text

    # the only command that reports metrics, so the only one that imports them
    from .metrics import diversity_report, report_to_json
    from .ngram import _is_token_list

    try:
        doc = json.loads(read_text(args.story))
    except RecursionError:
        raise ValueError("story document is nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise ValueError("story document must have a segments list")
    segments = []
    for seg in doc["segments"]:
        tokens = seg.get("tokens") if isinstance(seg, dict) else None
        if not _is_token_list(tokens):
            raise ValueError("every segment needs a tokens list of strings")
        segments.append(tokens)
    sys.stdout.write(report_to_json(diversity_report(segments)))
    return EXIT_OK


_COMMANDS = {
    "train-lm": _cmd_train_lm,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    atexit.unregister(gc.freeze)  # repeated calls in one process leave one handler
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"storybeam {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"storybeam {args.command}: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
