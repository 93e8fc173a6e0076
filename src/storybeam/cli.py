"""Command-line interface: train-lm, decode, eval.

Exit codes are a stable contract: 0 on success, 2 for usage or
validation errors (including unreadable files and malformed documents),
1 for unexpected internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .config import PENALTY_NAMES, DecodeConfig, check_count
from .corpus import DEFAULT_MIN_COUNT, Corpus, build_vocabulary, split_lines
from .metrics import diversity_report, report_to_json
from .ngram import _check_alpha, _check_order, _is_token_list, dump_ngram, train_ngram

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _default_file_mode() -> int:
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


# mkstemp creates 0600 files; outputs get the mode a plain open() would give
_FILE_MODE = _default_file_mode()


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, _FILE_MODE)
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
    decode.add_argument("--conditions", nargs="+", metavar="KEY",
                        help="one opaque condition key per segment")
    decode.add_argument("--conditions-file",
                        help="file with one condition key per line")
    decode.add_argument("--batch",
                        help="file of stories: one line of condition keys each; "
                             "--out names a directory")
    decode.add_argument("--jobs", type=_positive_int, default=1,
                        help="concurrent stories in batch mode (default: 1)")
    decode.add_argument("--beam-width", type=int, default=DecodeConfig.beam_width)
    decode.add_argument("--lambda", dest="strength", type=float,
                        default=DecodeConfig.diversity_strength,
                        help="diversity strength (default: %(default)g)")
    decode.add_argument("--max-len", type=int, default=DecodeConfig.max_len,
                        help="maximum tokens per segment (default: %(default)s)")
    decode.add_argument("--penalty", default="hamming", choices=sorted(PENALTY_NAMES))
    decode.add_argument("--out", help="output JSON path (default: stdout)")

    evaluate = sub.add_parser("eval", help="diversity report for a decoded story")
    evaluate.add_argument("story", help="story JSON produced by decode")
    return parser


def _cmd_train_lm(args: argparse.Namespace) -> int:
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
    _atomic_write(Path(args.out), dump_ngram(model))
    print(f"vocabulary size: {len(vocab)}")
    print(f"contexts: {len(model.counts)}")
    return EXIT_OK


def _read_lines(path: str) -> list[str]:
    return split_lines(Path(path).read_text(encoding="utf-8"))


def _read_conditions_file(path: str) -> list[str]:
    return [line.strip() for line in _read_lines(path) if line.strip()]


def _cmd_decode(args: argparse.Namespace) -> int:
    # the only command that needs numpy, so the only one that imports it
    from .decoding import inter_sentence_dbs, story_to_json
    from .diversity import get_penalty_fn
    from .scoring import load_scorer

    sources = [args.conditions is not None, args.conditions_file is not None,
               args.batch is not None]
    if sum(sources) != 1:
        raise ValueError(
            "exactly one of --conditions, --conditions-file, --batch is required")
    # checked once, before any file is read
    config = DecodeConfig(beam_width=args.beam_width, diversity_strength=args.strength,
                          max_len=args.max_len)
    scorer = load_scorer(Path(args.model).read_text(encoding="utf-8"))
    vocab = scorer.vocab
    penalty_fn = get_penalty_fn(args.penalty)

    def decode_one(conditions: list[str]) -> str:
        story_config = dataclasses.replace(config, num_segments=len(conditions))
        result = inter_sentence_dbs(scorer, conditions, vocab, story_config, penalty_fn)
        return story_to_json(result, vocab)

    if args.batch is not None:
        if not args.out:
            raise ValueError("--batch requires --out to name an output directory")
        stories = [(line_no, line.split())
                   for line_no, line in enumerate(_read_lines(args.batch), start=1)
                   if line.split()]
        if not stories:
            raise ValueError(f"batch file {args.batch} contains no stories")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        def story_path(index: int) -> Path:
            return out_dir / f"story_{index:04d}.json"

        def run(index: int, conditions: list[str]) -> None:
            _atomic_write(story_path(index), decode_one(conditions))

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(run, index, conditions)
                       for index, (_, conditions) in enumerate(stories)]
        # every story is attempted; failures are reported in line order, and a
        # failed story leaves no file behind, not even one from an earlier run
        failed = 0
        for index, ((line_no, _), future) in enumerate(zip(stories, futures)):
            try:
                future.result()
            except (ValueError, OSError) as exc:
                story_path(index).unlink(missing_ok=True)
                print(f"batch line {line_no}: {exc}", file=sys.stderr)
                failed += 1
        if failed:
            raise ValueError(f"{failed} of {len(stories)} stories failed")
        print(f"decoded {len(stories)} stories into {out_dir}")
        return EXIT_OK

    if args.conditions is not None:
        conditions = args.conditions
    else:
        conditions = _read_conditions_file(args.conditions_file)
    if not conditions:
        raise ValueError("at least one condition is required")
    text = decode_one(conditions)
    if args.out:
        _atomic_write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.story).read_text(encoding="utf-8"))
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
