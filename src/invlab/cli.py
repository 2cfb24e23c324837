"""Command-line interface.

Subcommands: embed, attack, defend-sweep, crosslingual, retrieve, serve,
report. Global flags --config / --seed / --out apply to every subcommand;
--seed and --out override the corresponding config fields.
"""

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .defenses import DefenseConfig, assign_language_ids
from .eaas import EaasClient, EaasServer, eaas_embed
from .embeddings import ConfigError, InputFormatError, NgramEmbedder
from .experiments import (
    build_retrieval_tasks,
    run_crosslingual,
    run_defense_sweep,
    run_reconstruction,
)
from .report import emit_report, read_report_csv, render_markdown
from .retrieval import evaluate_task


def _parse_remote(value: str | None) -> tuple[str, int] | None:
    if value is None:
        return None
    host, _, port = value.rpartition(":")
    if not host or not (port.isascii() and port.isdigit() and 0 < int(port) < 65536):
        raise SystemExit(f"--remote expects host:port, got {value!r}")
    return host, int(port)


def _load(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is None:
        raise SystemExit("this subcommand needs --config")
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = str(args.out)
    return config


def _emit(report, config: ExperimentConfig, name: str, fmt: str) -> None:
    out_dir = Path(config.out_dir)
    csv_path = emit_report(report, out_dir / f"{name}.csv", "csv")
    print(f"wrote {csv_path}")
    if fmt == "markdown":
        md_path = emit_report(report, out_dir / f"{name}.md", "markdown")
        print(f"wrote {md_path}")


def _cmd_embed(args: argparse.Namespace) -> int:
    remote = _parse_remote(args.remote)
    if remote is not None:
        with EaasClient(*remote) as client:
            embeddings, used = eaas_embed(client, args.text)
    else:
        embedder = NgramEmbedder(_load(args).embedder)
        embeddings = embedder.embed_many(args.text)
        used = embedder.queries_used()
    print(json.dumps({"embeddings": embeddings.tolist(), "queries_used": used}))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    config = _load(args)
    languages = args.langs.split(",") if args.langs else None
    report = run_reconstruction(config, languages, remote=_parse_remote(args.remote))
    _emit(report, config, "reconstruction", args.format)
    return 0


def _cmd_defend_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    report = run_defense_sweep(config, remote=_parse_remote(args.remote))
    _emit(report, config, "defense_sweep", args.format)
    return 0


def _cmd_crosslingual(args: argparse.Namespace) -> int:
    config = _load(args)
    report = run_crosslingual(config, args.src, args.tgt, remote=_parse_remote(args.remote))
    _emit(report, config, f"crosslingual_{args.src}_{args.tgt}", args.format)
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise SystemExit(f"--k must be at least 1, got {args.k}")
    config = _load(args)
    masking = None
    if args.mask:
        masking = assign_language_ids(sorted(config.corpora), scale=config.defense.mask_scale)
    try:
        # All stages off is the identity, so the default run is undefended.
        defense = DefenseConfig(
            noise_lambda=args.noise_lambda,
            noise_seed=config.seed,
            masking=masking,
            language_agnostic=args.agnostic,
        )
    except ConfigError as exc:
        raise SystemExit(f"invalid defense: {exc}") from None
    tasks = build_retrieval_tasks(config)
    if not tasks:
        raise SystemExit("retrieve needs at least one corpus or retrieval task")
    embedder = NgramEmbedder(config.embedder)
    total = 0.0
    for task in tasks:
        score = evaluate_task(task, embedder, defense, k=args.k)
        total += score
        print(f"{task.name}\tndcg@{args.k}={score:.6f}")
    print(f"mean\tndcg@{args.k}={total / len(tasks):.6f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    embedder = NgramEmbedder(_load(args).embedder)
    with EaasServer(embedder, host=args.host, port=args.port) as server:
        host, port = server.address
        print(f"serving on {host}:{port}", flush=True)
        with contextlib.suppress(KeyboardInterrupt):
            server.serve_forever()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = read_report_csv(args.input)
    if args.format == "markdown":
        text = render_markdown(report)
    else:
        text = Path(args.input).read_text(encoding="utf-8")
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Embedding inversion laboratory: attacks, defenses, retrieval trade-offs.",
    )
    parser.add_argument("--config", type=Path, help="experiment config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", type=Path, help="override the config output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed texts and print vectors as JSON")
    p.add_argument("--text", action="append", required=True)
    p.add_argument("--remote", help="host:port of a running service")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("attack", help="run the reconstruction sweep")
    p.add_argument("--langs", help="comma-separated subset of configured languages")
    p.add_argument("--remote", help="host:port of a running service")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("defend-sweep", help="run the defense trade-off sweep")
    p.add_argument("--remote", help="host:port of a running service")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.set_defaults(func=_cmd_defend_sweep)

    p = sub.add_parser("crosslingual", help="cross-lingual attack with translation rescoring")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--remote", help="host:port of a running service")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.set_defaults(func=_cmd_crosslingual)

    p = sub.add_parser("retrieve", help="evaluate retrieval tasks under a defense")
    p.add_argument("--noise-lambda", type=float, default=0.0)
    p.add_argument("--mask", action="store_true")
    p.add_argument("--agnostic", action="store_true")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("serve", help="run the embedding service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("report", help="re-render an emitted report CSV")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--format", choices=["csv", "markdown"], default="markdown")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a malformed config or input file (a corpus,
    qrels, dictionary or report) is one line on stderr and exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputFormatError) as exc:
        print(f"invlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
